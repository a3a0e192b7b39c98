package core

import (
	"fmt"
	"testing"

	"repro/internal/population"
	"repro/internal/population/tracktest"
	"repro/internal/xrand"
)

// TestSafetySpecExact pins the incremental S_PL tracker to the brute-force
// IsSafe scan: agreement after every single step and identical hitting
// times through the engine run paths, across sizes (including a
// non-power-of-two and the n=64 acceptance size) and adversarial initial
// classes. Every case runs the tracker in both of its modes — meta mode
// (SafetySpec as built) and closure mode (a copy with MetaID cleared) —
// and a lockstep run pins their channel counts, which become the chan_*
// record observables, equal after every step.
func TestSafetySpecExact(t *testing.T) {
	type cse struct {
		n       int
		classes []string
		seeds   []uint64
	}
	cases := []cse{
		{4, []string{"random", "noleader", "allleaders", "corrupted"}, []uint64{1, 2}},
		{16, []string{"random", "noleader", "allleaders", "corrupted"}, []uint64{1, 2}},
		{33, []string{"random", "noleader"}, []uint64{1}},
		{64, []string{"random", "corrupted"}, []uint64{1}},
	}
	for _, c := range cases {
		p := NewParams(c.n)
		pr := New(p)
		for _, class := range c.classes {
			for _, seed := range c.seeds {
				seed, class := seed, class
				t.Run(fmt.Sprintf("n=%d/%s/seed=%d", c.n, class, seed), func(t *testing.T) {
					mk := func() *population.Engine[State] {
						eng := population.NewEngine(population.DirectedRing(p.N), pr.Step, xrand.New(seed))
						eng.SetStates(p.InitConfig(class, seed))
						return eng
					}
					pred := func(cfg []State) bool { return p.IsSafe(cfg) }
					closure := p.SafetySpec()
					closure.MetaID = nil
					t.Run("meta", func(t *testing.T) { tracktest.Exact(t, mk, p.SafetySpec(), pred, budget(p)) })
					t.Run("closure", func(t *testing.T) { tracktest.Exact(t, mk, closure, pred, budget(p)) })
					t.Run("lockstep", func(t *testing.T) { lockstepCounts(t, mk, p.SafetySpec(), closure, budget(p)) })
				})
			}
		}
	}
}

// TestSafetySpecOnPerfect pins the tracker's verdict inside S_PL: a
// perfect configuration must be judged converged at step 0 and stay
// converged while the closed set holds.
func TestSafetySpecOnPerfect(t *testing.T) {
	p := NewParams(32)
	pr := New(p)
	eng := population.NewEngine(population.DirectedRing(p.N), pr.Step, xrand.New(5))
	eng.SetStates(p.PerfectConfig(3, 9))
	tr := population.NewRingTracker(p.SafetySpec())
	eng.SetTracker(tr)
	if !tr.Converged() {
		t.Fatal("perfect configuration not judged safe")
	}
	for i := 0; i < 5000; i++ {
		eng.Step()
		if !tr.Converged() {
			t.Fatalf("left the tracked safe set at step %d (closure violated?)", eng.Steps())
		}
	}
}

// lockstepCounts steps two identically seeded engines, one tracked under
// each spec, and fails at the first step where the trackers' channel
// counts or verdicts differ. It stops at maxSteps or 256 steps after the
// first converged verdict.
func lockstepCounts(t *testing.T, mk func() *population.Engine[State], a, b population.RingSpec[State], maxSteps uint64) {
	t.Helper()
	ea, eb := mk(), mk()
	ta, tb := population.NewRingTracker(a), population.NewRingTracker(b)
	ea.SetTracker(ta)
	eb.SetTracker(tb)
	tail := 0
	for {
		if ca, cb := ta.Counts(), tb.Counts(); ca != cb {
			t.Fatalf("step %d: counts diverged\nmeta:    %+v\nclosure: %+v", ea.Steps(), ca, cb)
		}
		va, vb := ta.Converged(), tb.Converged()
		if va != vb {
			t.Fatalf("step %d: verdicts diverged: meta %v, closure %v", ea.Steps(), va, vb)
		}
		if va {
			tail++
		}
		if ea.Steps() >= maxSteps || tail > 256 {
			return
		}
		ea.Step()
		eb.Step()
	}
}

// TestSafetySpecInternedFeed pins the interned loop's meta-word feed of
// the S_PL tracker: after every step of an interned P_PL run over P_PL
// tables, the installed meta-mode tracker's channel counts and verdict
// equal those of a fresh tracker reset on the configuration — through the
// reuse guard's bail to the generic engine and on past convergence.
func TestSafetySpecInternedFeed(t *testing.T) {
	for _, n := range []int{16, 32} {
		p := NewParams(n)
		codec, ok := p.Codec()
		if !ok {
			t.Fatalf("n=%d: no packed codec", n)
		}
		eng := population.NewEngine(population.DirectedRing(n), New(p).Step, xrand.New(3))
		eng.SetStates(p.InitConfig("random", 3))
		eng.TrackLeaders(IsLeader)
		acc := population.AttachInterned(eng, population.NewTables(p.SafetySpec(), IsLeader, &codec, nil, population.InternOptions{}), nil)
		tr := population.NewRingTracker(p.SafetySpec())
		acc.SetTracker(tr)
		internedSteps, tail := 0, 0
		for acc.Steps() < budget(p) && tail < 256 {
			if acc.Interned() {
				internedSteps++
			}
			acc.Run(1)
			fresh := population.NewRingTracker(p.SafetySpec())
			fresh.Reset(acc.Config())
			if got, want := tr.Counts(), fresh.Counts(); got != want {
				t.Fatalf("n=%d step %d: counts %+v, fresh tracker %+v", n, acc.Steps(), got, want)
			}
			got, want := tr.Converged(), fresh.Converged()
			if got != want {
				t.Fatalf("n=%d step %d: verdict %v, fresh tracker %v", n, acc.Steps(), got, want)
			}
			if got {
				tail++
			}
		}
		if internedSteps == 0 || acc.Interned() || tail == 0 {
			t.Fatalf("n=%d: %d interned steps, still interned %v, converged %v; want a reuse bail before convergence",
				n, internedSteps, acc.Interned(), tail > 0)
		}
	}
}
