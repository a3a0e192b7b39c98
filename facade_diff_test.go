package repro

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/orient"
	"repro/internal/population"
	"repro/internal/twohop"
	"repro/internal/xrand"
)

// refElection is RingElection's former hand wiring — its own engine, RNG,
// tracker and step budget — kept as the reference the façade, now built
// on the registered protocol's trial engine, must reproduce exactly.
type refElection struct {
	params  core.Params
	eng     *population.Engine[core.State]
	rng     *xrand.RNG
	tracker *population.RingTracker[core.State]
}

func newRefElection(n int, seed uint64, slack, c1 int) *refElection {
	params := core.NewParamsSlack(n, slack, c1)
	rng := xrand.New(seed)
	eng := population.NewEngine(population.DirectedRing(n), core.New(params).Step, rng)
	eng.TrackLeaders(core.IsLeader)
	return &refElection{params: params, eng: eng, rng: rng, tracker: population.NewRingTracker(params.SafetySpec())}
}

func (r *refElection) injectFaults(k int) {
	cfg := r.eng.Snapshot()
	for i := 0; i < k; i++ {
		cfg[r.rng.Intn(len(cfg))] = r.params.RandomState(r.rng)
	}
	r.eng.SetStates(cfg)
}

func (r *refElection) runToSafe(maxSteps uint64) (uint64, bool) {
	if maxSteps == 0 {
		n := uint64(r.params.N)
		maxSteps = r.eng.Steps() + 800*n*n*uint64(r.params.Psi)
	}
	r.eng.SetTracker(r.tracker)
	defer r.eng.SetTracker(nil)
	return r.eng.RunUntilConverged(maxSteps)
}

// facadeOp is one call of a façade script; arg is its argument (a seed,
// leader index, burst size or step count; for "budget" the step budget
// beyond the current step).
type facadeOp struct {
	call string
	arg  uint64
}

// TestRingElectionMatchesHandWiring drives RingElection and the reference
// wiring through the same call scripts and compares, after every call,
// the step count, the last output change, the leader count, the
// configuration and RunToSafe's results.
func TestRingElectionMatchesHandWiring(t *testing.T) {
	scripts := [][]facadeOp{
		{{"random", 2}, {"run", 100}, {"step", 0}, {"step", 0}, {"safe", 0}, {"faults", 5}, {"step", 0}, {"safe", 0}, {"run", 300}},
		{{"faults", 16}, {"budget", 250}, {"step", 0}, {"safe", 0}, {"perfect", 3}, {"faults", 8}, {"run", 1000}, {"safe", 0}},
		{{"noleader", 0}, {"budget", 40}, {"run", 7}, {"safe", 0}, {"faults", 40}, {"safe", 0}, {"random", 9}, {"safe", 0}},
	}
	for _, cell := range []struct {
		n         int
		seed      uint64
		slack, c1 int
		opts      []Option
	}{
		{n: 16, seed: 1, c1: core.DefaultC1, opts: []Option{WithSeed(1)}},
		{n: 12, seed: 9, slack: 1, c1: 16, opts: []Option{WithSeed(9), WithSlack(1), WithC1(16)}},
		{n: 33, seed: 4, c1: core.DefaultC1, opts: []Option{WithSeed(4)}},
		{n: 8, c1: core.DefaultC1},
	} {
		for si, script := range scripts {
			e := NewRingElection(cell.n, cell.opts...)
			ref := newRefElection(cell.n, cell.seed, cell.slack, cell.c1)
			for oi, op := range script {
				var got, want [2]any
				switch op.call {
				case "random":
					e.InitRandom(op.arg)
					ref.eng.SetStates(ref.params.RandomConfig(xrand.New(op.arg)))
				case "perfect":
					e.InitPerfect(int(op.arg))
					ref.eng.SetStates(ref.params.PerfectConfig(int(op.arg), 0))
				case "noleader":
					e.InitNoLeader()
					ref.eng.SetStates(ref.params.NoLeaderAligned())
				case "faults":
					e.InjectFaults(int(op.arg))
					ref.injectFaults(int(op.arg))
				case "step":
					e.Step()
					ref.eng.Step()
				case "run":
					e.Run(op.arg)
					ref.eng.Run(op.arg)
				case "safe":
					got[0], got[1] = e.RunToSafe(0)
					want[0], want[1] = ref.runToSafe(0)
				case "budget":
					got[0], got[1] = e.RunToSafe(e.Steps() + op.arg)
					want[0], want[1] = ref.runToSafe(ref.eng.Steps() + op.arg)
				}
				if got != want || e.Steps() != ref.eng.Steps() || e.LastOutputChange() != ref.eng.LastLeaderChange() ||
					e.LeaderCount() != ref.eng.LeaderCount() || !reflect.DeepEqual(e.te.eng.Config(), ref.eng.Config()) {
					t.Fatalf("n=%d seed=%d script %d op %d %+v: façade (%v, steps %d, changed %d, leaders %d) vs hand wiring (%v, steps %d, changed %d, leaders %d)",
						cell.n, cell.seed, si, oi, op, got, e.Steps(), e.LastOutputChange(), e.LeaderCount(),
						want, ref.eng.Steps(), ref.eng.LastLeaderChange(), ref.eng.LeaderCount())
				}
			}
		}
	}
}

// refOrientation is RingOrientation's former hand wiring, the reference
// of TestRingOrientationMatchesHandWiring.
type refOrientation struct {
	eng     *population.Engine[orient.State]
	rng     *xrand.RNG
	tracker *population.RingTracker[orient.State]
}

func newRefOrientation(n int, seed uint64) *refOrientation {
	rng := xrand.New(seed)
	eng := population.NewEngine(population.UndirectedRing(n), orient.New().Step, rng)
	eng.SetStates(orient.InitialConfig(twohop.Coloring(n), rng.Split()))
	return &refOrientation{eng: eng, rng: rng, tracker: population.NewRingTracker(orient.OrientedSpec())}
}

func (r *refOrientation) runToOriented(maxSteps uint64) (uint64, bool) {
	if maxSteps == 0 {
		n := uint64(r.eng.N())
		maxSteps = r.eng.Steps() + 4000*n*n
	}
	r.eng.SetTracker(r.tracker)
	defer r.eng.SetTracker(nil)
	return r.eng.RunUntilConverged(maxSteps)
}

// TestRingOrientationMatchesHandWiring is the orientation half: Scramble,
// Step and RunToOriented scripts against the reference wiring, comparing
// the step count, the configuration, the direction and RunToOriented's
// results after every call.
func TestRingOrientationMatchesHandWiring(t *testing.T) {
	script := []facadeOp{
		{"oriented", 0}, {"step", 0}, {"scramble", 0}, {"budget", 5}, {"step", 0}, {"step", 0},
		{"oriented", 0}, {"scramble", 0}, {"scramble", 0}, {"oriented", 0},
	}
	for _, cell := range []struct {
		n    int
		seed uint64
	}{{3, 1}, {16, 6}, {24, 5}, {41, 11}} {
		o := NewRingOrientation(cell.n, WithSeed(cell.seed))
		ref := newRefOrientation(cell.n, cell.seed)
		for oi, op := range script {
			var got, want [2]any
			switch op.call {
			case "scramble":
				o.Scramble()
				colors := orient.Colors(ref.eng.Config())
				ref.eng.SetStates(orient.InitialConfig(colors, ref.rng.Split()))
			case "step":
				o.Step()
				ref.eng.Step()
			case "oriented":
				got[0], got[1] = o.RunToOriented(0)
				want[0], want[1] = ref.runToOriented(0)
			case "budget":
				got[0], got[1] = o.RunToOriented(o.Steps() + op.arg)
				want[0], want[1] = ref.runToOriented(ref.eng.Steps() + op.arg)
			}
			cfg := ref.eng.Config()
			if got != want || o.Steps() != ref.eng.Steps() || o.Oriented() != orient.Oriented(cfg) ||
				o.Clockwise() != orient.Clockwise(cfg) || !reflect.DeepEqual(o.te.eng.Config(), cfg) {
				t.Fatalf("n=%d seed=%d op %d %+v: façade (%v, steps %d) vs hand wiring (%v, steps %d)",
					cell.n, cell.seed, oi, op, got, o.Steps(), want, ref.eng.Steps())
			}
		}
	}
}
