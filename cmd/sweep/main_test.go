package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/xrand"
)

// TestE7TrialIsExact pins E7's tracker verdict to the per-step scan of
// "a leader exists, or every agent is in Detect mode" over the same seeds:
// the same hitting step and outcome on every trial.
func TestE7TrialIsExact(t *testing.T) {
	for _, n := range []int{16, 48} {
		par := core.NewParams(n)
		for seed := uint64(0); seed < 3; seed++ {
			eng := population.NewEngine(population.DirectedRing(n), core.New(par).Step, xrand.New(seed))
			cfg := par.NoLeaderAligned()
			for j := range cfg {
				cfg[j].Clock = 0
			}
			eng.SetStates(cfg)
			want, wantOK := eng.RunUntil(func(c []core.State) bool {
				for _, s := range c {
					if s.Leader {
						return true
					}
				}
				for _, s := range c {
					if par.Mode(s) != core.Detect {
						return false
					}
				}
				return true
			}, 1, 4000*uint64(n)*uint64(n)*uint64(par.Psi))
			got, ok := e7Trial(par, seed)
			if got != want || ok != wantOK {
				t.Fatalf("n=%d seed=%d: tracker (%d, %v), per-step scan (%d, %v)", n, seed, got, ok, want, wantOK)
			}
		}
	}
}
