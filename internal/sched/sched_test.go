package sched

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// TestBiasedDeterminismAndSupport: same seed twice gives the same
// stream regardless of batch split, and draws stay in range with the
// hot arcs actually favored.
func TestBiasedDeterminism(t *testing.T) {
	const n = 16
	b1, err := NewBiased(HotspotWeights(n, 2, 50))
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := NewBiased(HotspotWeights(n, 2, 50))
	ra, rb := xrand.New(7), xrand.New(7)
	var a, b [900]int32
	b1.Fill(ra, 0, a[:])
	for off := 0; off < len(b); {
		sz := 111
		if off+sz > len(b) {
			sz = len(b) - off
		}
		b2.Fill(rb, uint64(off), b[off:off+sz])
		off += sz
	}
	hot := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across batch splits: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 0 || int(a[i]) >= n {
			t.Fatalf("draw %d out of range: %d", i, a[i])
		}
		if a[i] < 2 {
			hot++
		}
	}
	// Hot arcs carry 100/114 of the mass; even a loose bound separates
	// them decisively from the uniform 2/16.
	if hot < len(a)/2 {
		t.Fatalf("hotspot arcs drawn only %d/%d times; bias not applied", hot, len(a))
	}
}

// TestBiasedAliasMass: the alias table must preserve the weight vector
// exactly — each arc's total mass across slots equals its normalized
// weight.
func TestBiasedAliasMass(t *testing.T) {
	weights := []float64{1, 0, 3, 2.5, 0.25, 8}
	b, err := NewBiased(weights)
	if err != nil {
		t.Fatal(err)
	}
	n := len(weights)
	mass := make([]float64, n)
	for j := 0; j < n; j++ {
		mass[j] += b.prob[j] / float64(n)
		mass[b.alias[j]] += (1 - b.prob[j]) / float64(n)
	}
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	for i, w := range weights {
		if math.Abs(mass[i]-w/sum) > 1e-12 {
			t.Fatalf("arc %d mass %g, want %g", i, mass[i], w/sum)
		}
	}
}

func TestBiasedRejectsBadWeights(t *testing.T) {
	for _, w := range [][]float64{{}, {0, 0}, {-1, 2}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := NewBiased(w); err == nil {
			t.Fatalf("weights %v accepted", w)
		}
	}
}

// TestEclipseSchedule pins the phase machinery to a hand-computed
// trace: windows [100,130), [300,330), ... on a 10-arc ring with dead
// interval [6,9).
func TestEclipseSchedule(t *testing.T) {
	e, err := NewEclipse(10, 100, 200, 30, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		step     uint64
		epoch    int
		eclipsed bool
		next     uint64
	}{
		{0, 0, false, 100},
		{99, 0, false, 100},
		{100, 1, true, 130},
		{129, 1, true, 130},
		{130, 2, false, 300},
		{299, 2, false, 300},
		{300, 3, true, 330},
		{330, 4, false, 500},
		{500, 5, true, 530},
	}
	for _, c := range cases {
		epoch, ecl := e.Phase(c.step)
		if epoch != c.epoch || ecl != c.eclipsed {
			t.Fatalf("Phase(%d) = (%d, %v), want (%d, %v)", c.step, epoch, ecl, c.epoch, c.eclipsed)
		}
		if next := e.NextTransition(c.step); next != c.next {
			t.Fatalf("NextTransition(%d) = %d, want %d", c.step, next, c.next)
		}
	}
}

// TestEclipseDeadArcsNeverDrawn: inside a window, draws must exclude
// exactly the dead interval (including a wrapping one) and be uniform
// over the rest; outside a window every arc is live.
func TestEclipseDeadArcsNeverDrawn(t *testing.T) {
	for _, tc := range []struct{ lo, width int }{{6, 3}, {8, 5}} { // second wraps: dead = {8,9,0,1,2}
		e, err := NewEclipse(10, 0, 100, 99, tc.lo, tc.width)
		if err != nil {
			t.Fatal(err)
		}
		dead := make(map[int]bool)
		for i := 0; i < tc.width; i++ {
			dead[(tc.lo+i)%10] = true
		}
		rng := xrand.New(3)
		var out [4096]int32
		e.Fill(rng, 10, out[:]) // step 10 is inside the window
		seen := make(map[int]int)
		for _, v := range out {
			if dead[int(v)] {
				t.Fatalf("dead arc %d drawn during eclipse (lo=%d width=%d)", v, tc.lo, tc.width)
			}
			seen[int(v)]++
		}
		if len(seen) != 10-tc.width {
			t.Fatalf("only %d live arcs drawn, want %d", len(seen), 10-tc.width)
		}
	}
}

// TestEclipseClearPhaseIsUniformStream: outside windows the eclipse
// scheduler must reproduce the uniform stream exactly.
func TestEclipseClearPhaseIsUniformStream(t *testing.T) {
	e, err := NewEclipse(12, 1000, 100, 10, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, b := xrand.New(9), xrand.New(9)
	var got, want [512]int32
	e.Fill(a, 0, got[:])
	b.FillIntn(12, want[:])
	if got != want {
		t.Fatal("clear-phase eclipse draws differ from uniform stream")
	}
}

// TestEclipseWidthClamp: a width covering the whole ring is clamped so
// one arc survives.
func TestEclipseWidthClamp(t *testing.T) {
	e, err := NewEclipse(4, 0, 10, 5, 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	if lo, width := e.Dead(); lo != 1 || width != 3 {
		t.Fatalf("Dead() = (%d, %d), want (1, 3)", lo, width)
	}
	rng := xrand.New(1)
	var out [64]int32
	e.Fill(rng, 0, out[:])
	for _, v := range out {
		if v != 0 {
			t.Fatalf("only arc 0 survives, drew %d", v)
		}
	}
}

func TestEclipseRejectsBadParams(t *testing.T) {
	if _, err := NewEclipse(1, 0, 10, 5, 0, 1); err == nil {
		t.Fatal("nArcs=1 accepted")
	}
	if _, err := NewEclipse(8, 0, 10, 10, 0, 1); err == nil {
		t.Fatal("duration == period accepted")
	}
	if _, err := NewEclipse(8, 0, 0, 0, 0, 1); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := NewEclipse(8, 0, 10, 5, 0, 0); err == nil {
		t.Fatal("zero width accepted")
	}
}
