package repro

import (
	"testing"
)

// laneSeeds is the seed batch of the lane differential tests: enough
// trials that later ones run over tables several earlier trials filled,
// with a spread that converges at different steps.
func laneSeeds() []uint64 { return []uint64{1, 2, 3, 5, 8, 13} }

// assertLanesMatchSolo pins LaneTrials to the per-seed solo path: sharing
// one table set is purely a throughput device, so every TrialResult —
// steps, exact hitting time, stabilization step, convergence flag — must
// be bit-identical to running each seed alone over tables of its own.
func assertLanesMatchSolo(t *testing.T, name string, sc Scenario, n int, seeds []uint64) {
	t.Helper()
	p, err := NewProtocol(name)
	if err != nil {
		t.Fatal(err)
	}
	if p.Validate(sc) != nil {
		return // scenario rejected (e.g. churn on a fixed-size protocol)
	}
	n = p.FixSize(n)
	l, ok := p.(engineProtocol)
	if !ok {
		t.Fatalf("%s does not implement LaneTrials", name)
	}
	laneRes, err := l.LaneTrials(sc, n, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(laneRes) != len(seeds) {
		t.Fatalf("%s n=%d: %d lane results for %d seeds", name, n, len(laneRes), len(seeds))
	}
	for i, seed := range seeds {
		solo, err := p.Trial(sc, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		if laneRes[i] != solo {
			t.Fatalf("%s n=%d seed=%d: lane result diverged\nsolo: %+v\nlane: %+v",
				name, n, seed, solo, laneRes[i])
		}
	}
}

// TestLaneTrialsMatchSolo is the lane differential test: for every
// built-in protocol and ring sizes across both pair-table tiers, a batch
// of same-cell trials sharing one table set, run back to back, must
// reproduce the solo path bit-for-bit.
func TestLaneTrialsMatchSolo(t *testing.T) {
	for name, sizes := range diffCells() {
		// Smallest and largest per protocol: both table tiers, fast matrix.
		for _, n := range []int{sizes[0], sizes[len(sizes)-1]} {
			assertLanesMatchSolo(t, name, Scenario{}, n, laneSeeds())
		}
	}
}

// TestLaneTrialsMatchSoloUnderAdversaries extends the lane differential to
// the adversarial schedulers and ring dynamics. Every cell runs over the
// shared table set: stuck-agent trials take their generic engines, and
// fault and churn trials re-intern each installed configuration into the
// shared tables — either way the results must be identical to the solo
// path.
func TestLaneTrialsMatchSoloUnderAdversaries(t *testing.T) {
	scenarios := []Scenario{
		{Sched: &SchedulerSpec{Kind: "biased", Family: "hotspot", HotArcs: 4, Weight: 8}},
		{Sched: &SchedulerSpec{Kind: "biased", Family: "ramp", Weight: 8}},
		{Sched: &SchedulerSpec{Kind: "eclipse", Start: 1, Period: 1 << 30, Duration: 2000, Arcs: 6}},
		{Sched: &SchedulerSpec{Stuck: 2}, Budget: Budget{Scale: 0.02}},
		{Sched: &SchedulerSpec{Churn: []ChurnEvent{{AtStep: 800, Remove: 2}, {AtStep: 2500, Insert: 2}}}},
		{Faults: []Fault{{AtStep: 500, Agents: 3}}},
	}
	cells := map[string]int{
		"ppl": 33, "orient": 33, "yokota": 33, "angluin": 33, "fj": 32, "chenchen": 8,
	}
	for name, n := range cells {
		for _, sc := range scenarios {
			assertLanesMatchSolo(t, name, sc, n, laneSeeds()[:4])
		}
	}
}

// TestLaneTrialsCapacityFallback pins the mid-run interner-overflow
// fallback on the lane path: a Scenario.MaxStates far below the states a
// trial visits makes each lane overflow its interner mid-run and finish on
// its generic engine. The cap is a memory knob, not a semantics one, so
// the capped lane results must match both the capped solo path and the
// uncapped run.
func TestLaneTrialsCapacityFallback(t *testing.T) {
	cells := map[string]int{"ppl": 33, "yokota": 33, "angluin": 33}
	for name, n := range cells {
		capped := Scenario{MaxStates: 8}
		assertLanesMatchSolo(t, name, capped, n, laneSeeds())

		p, err := NewProtocol(name)
		if err != nil {
			t.Fatal(err)
		}
		fn := p.FixSize(n)
		for _, seed := range laneSeeds() {
			withCap, err := p.Trial(capped, fn, seed)
			if err != nil {
				t.Fatal(err)
			}
			unCapped, err := p.Trial(Scenario{}, fn, seed)
			if err != nil {
				t.Fatal(err)
			}
			if withCap != unCapped {
				t.Fatalf("%s n=%d seed=%d: MaxStates changed the trial\ncapped:   %+v\nuncapped: %+v",
					name, fn, seed, withCap, unCapped)
			}
		}
	}
}

// TestLaneTrialsSmallBatches pins the degenerate batch sizes — zero seeds
// and a single seed must still agree with Trial — and the ring-size check:
// a ring below two agents is an error, not a panic.
func TestLaneTrialsSmallBatches(t *testing.T) {
	p, err := NewProtocol("ppl")
	if err != nil {
		t.Fatal(err)
	}
	l := p.(engineProtocol)
	if res, err := l.LaneTrials(Scenario{}, p.FixSize(16), nil); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: got (%v, %v)", res, err)
	}
	assertLanesMatchSolo(t, "ppl", Scenario{}, 16, []uint64{7})
	if _, err := l.LaneTrials(Scenario{}, 1, []uint64{7}); err == nil {
		t.Fatal("LaneTrials ran a 1-agent ring")
	}
}
