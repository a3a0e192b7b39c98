package chenchen

import (
	"testing"

	"repro/internal/population"
	"repro/internal/war"
	"repro/internal/xrand"
)

func TestCleanRingSpawnsSerializedAttempt(t *testing.T) {
	p := New()
	l, r := p.Step(State{}, State{}, Census{})
	if !l.Anchor {
		t.Fatal("initiator did not plant the anchor")
	}
	if !r.Walker {
		t.Fatal("responder did not receive the walker")
	}
}

func TestDirtyRingDoesNotSpawn(t *testing.T) {
	p := New()
	l, r := p.Step(State{}, State{}, Census{Walkers: 1})
	if l.Anchor || r.Walker {
		t.Fatal("attempt spawned despite a walker in the census")
	}
}

func TestWalkerMovesClockwise(t *testing.T) {
	p := New()
	l, r := p.Step(State{Walker: true}, State{}, Census{Walkers: 1, Anchors: 1})
	if l.Walker || !r.Walker {
		t.Fatalf("walker did not move: l=%v r=%v", l.Walker, r.Walker)
	}
}

func TestWalkerAbortsAtLeader(t *testing.T) {
	p := New()
	l, r := p.Step(State{Walker: true}, State{Leader: true, War: war.State{Shield: true}},
		Census{Walkers: 1, Anchors: 1})
	if l.Walker {
		t.Fatal("walker survived meeting a leader")
	}
	if !l.Retract {
		t.Fatal("no retractor spawned")
	}
	if !r.Leader {
		t.Fatal("leader lost its bit in the abort")
	}
}

func TestWalkerReachingAnchorElects(t *testing.T) {
	p := New()
	l, r := p.Step(State{Walker: true}, State{Anchor: true}, Census{Walkers: 1, Anchors: 1})
	if !r.Leader {
		t.Fatal("full circumnavigation did not elect a leader")
	}
	if r.Anchor || l.Walker {
		t.Fatal("anchor/walker not consumed on election")
	}
	if !r.War.Shield {
		t.Fatal("new leader not armed")
	}
}

func TestRetractorClearsAnchor(t *testing.T) {
	p := New()
	l, r := p.Step(State{Anchor: true}, State{Retract: true}, Census{Anchors: 1, Retractors: 1})
	if l.Anchor {
		t.Fatal("retractor did not clear the anchor")
	}
	if !l.Retract || r.Retract {
		t.Fatal("retractor did not move left")
	}
}

func TestRetractorDiesAtLeader(t *testing.T) {
	p := New()
	l, r := p.Step(State{Leader: true, War: war.State{Shield: true}}, State{Retract: true},
		Census{Retractors: 1})
	if r.Retract {
		t.Fatal("retractor survived the leader")
	}
	if !l.Leader {
		t.Fatal("leader harmed by retractor")
	}
}

func TestWalkerRetractorAnnihilate(t *testing.T) {
	p := New()
	l, r := p.Step(State{Walker: true}, State{Retract: true},
		Census{Walkers: 1, Retractors: 1})
	if l.Walker || r.Retract || r.Walker || l.Retract {
		t.Fatalf("head-on meeting did not annihilate: l=%+v r=%+v", l, r)
	}
}

func TestLeaderShedsFlags(t *testing.T) {
	p := New()
	l, _ := p.Step(State{Leader: true, Anchor: true, Walker: true, War: war.State{Shield: true}},
		State{}, Census{Anchors: 1, Walkers: 1})
	if l.Anchor || l.Walker {
		t.Fatal("leader kept walker flags")
	}
}

func TestOrphanCleanup(t *testing.T) {
	p := New()
	// Orphan anchors self-clear.
	l, _ := p.Step(State{Anchor: true}, State{}, Census{Anchors: 1})
	if l.Anchor {
		t.Fatal("orphan anchor survived")
	}
	// Orphan retractors self-clear.
	_, r := p.Step(State{}, State{Retract: true}, Census{Retractors: 1})
	if r.Retract {
		t.Fatal("orphan retractor survived")
	}
	// A lone walker gets an anchor planted beneath it.
	_, r = p.Step(State{}, State{Walker: true}, Census{Walkers: 1})
	if !r.Anchor {
		t.Fatal("lone walker did not receive a finishing line")
	}
}

func TestConvergenceFromRandom(t *testing.T) {
	for _, n := range []int{4, 6, 8} {
		p := New()
		for seed := uint64(0); seed < 4; seed++ {
			ru := NewRunner(n, xrand.New(seed))
			rng := xrand.New(seed + 17)
			ru.SetStates(p.RandomConfig(rng, n))
			maxSteps := uint64(2_000_000)
			_, ok := ru.Engine().RunUntil(Stable, n, maxSteps)
			if !ok {
				t.Fatalf("n=%d seed=%d: not stable within %d steps (%d leaders)",
					n, seed, maxSteps, ru.Engine().LeaderCount())
			}
		}
	}
}

func TestConvergenceFromLeaderless(t *testing.T) {
	n := 8
	ru := NewRunner(n, xrand.New(5))
	ru.SetStates(make([]State, n))
	if _, ok := ru.Engine().RunUntil(Stable, n, 2_000_000); !ok {
		t.Fatal("leaderless start never stabilized")
	}
}

func TestStabilityIsAbsorbing(t *testing.T) {
	n := 6
	ru := NewRunner(n, xrand.New(6))
	ru.SetStates(make([]State, n))
	if _, ok := ru.Engine().RunUntil(Stable, n, 2_000_000); !ok {
		t.Fatal("did not stabilize")
	}
	changes := ru.Engine().LeaderChanges()
	for i := 0; i < 300000; i++ {
		ru.Engine().Step()
		if !Stable(ru.Engine().Config()) {
			t.Fatalf("left the stable set at extra step %d", i)
		}
	}
	if ru.Engine().LeaderChanges() != changes {
		t.Fatal("leader changed after stabilization")
	}
}

func TestNoFalseElectionWithLeader(t *testing.T) {
	// From a clean single-leader configuration, laps must keep aborting at
	// the leader: the leader set never changes.
	n := 8
	ru := NewRunner(n, xrand.New(7))
	cfg := make([]State, n)
	cfg[3] = State{Leader: true, War: war.State{Shield: true}}
	ru.SetStates(cfg)
	// The install itself is recorded as a leader-set change (the zero
	// config is leaderless); only interaction-driven changes count here.
	base := ru.Engine().LeaderChanges()
	ru.Engine().Run(500000)
	if got := ru.Engine().LeaderCount(); got != 1 {
		t.Fatalf("leader count drifted to %d", got)
	}
	if got := ru.Engine().LeaderChanges(); got != base {
		t.Fatalf("leader set changed %d times", got-base)
	}
}

// TestRunnerCensusMatchesRecount pins the flag census the engine observer
// maintains across every path that moves the configuration: generic Run,
// RunUntilConverged and ApplyArc, a run with stuck agents (whose observed
// after-state is their unchanged pre-state), and an interned run whose
// capacity fallback hands the triggering interaction to the generic
// engine.
func TestRunnerCensusMatchesRecount(t *testing.T) {
	const n = 8
	check := func(ru *Runner, when string) {
		t.Helper()
		var want Census
		for _, s := range ru.Engine().Config() {
			want.Anchors += btoi(s.Anchor)
			want.Walkers += btoi(s.Walker)
			want.Retractors += btoi(s.Retract)
		}
		if ru.census != want {
			t.Fatalf("%s: census %+v, recount %+v", when, ru.census, want)
		}
	}
	ru := NewRunner(n, xrand.New(3))
	ru.SetStates(ru.proto.RandomConfig(xrand.New(4), n))
	eng := ru.Engine()
	eng.Run(3000)
	check(ru, "Run")
	eng.SetTracker(population.NewRingTracker(ru.proto.StableSpec()))
	if _, ok := eng.RunUntilConverged(2_000_000); !ok {
		t.Fatal("RunUntilConverged did not converge")
	}
	check(ru, "RunUntilConverged")
	for k := 0; k < n; k++ {
		eng.ApplyArc(k)
	}
	check(ru, "ApplyArc")
	ru.SetStates(ru.proto.RandomConfig(xrand.New(5), n))
	frozen := make([]bool, n)
	frozen[0], frozen[5] = true, true
	eng.SetFrozen(frozen)
	eng.Run(3000)
	check(ru, "stuck-agent Run")

	ru = NewRunner(n, xrand.New(6))
	ru.SetStates(make([]State, n)) // one distinct state: interning starts
	env, spec := ru.InternEnv(), ru.proto.StableSpec()
	tab := population.NewTables(spec, IsLeader, nil, env, population.InternOptions{MaxStates: 3})
	acc := population.AttachInterned(ru.Engine(), tab, env)
	acc.SetTracker(population.NewRingTracker(spec))
	acc.RunUntilConverged(2_000_000)
	if acc.Interned() {
		t.Fatal("a 3-state cap did not force the capacity fallback")
	}
	check(ru, "interned capacity fallback")
}

func TestStableRejectsBadShapes(t *testing.T) {
	if Stable([]State{{}, {}}) {
		t.Fatal("no leader judged stable")
	}
	if Stable([]State{{Leader: true}, {Leader: true}}) {
		t.Fatal("two leaders judged stable")
	}
	// An anchor strictly ahead of the walker will cause a declaration.
	cfg := []State{
		{Leader: true},
		{Walker: true},
		{Anchor: true},
		{},
	}
	if Stable(cfg) {
		t.Fatal("anchor ahead of walker judged stable")
	}
	// The normal mid-lap shape is stable.
	cfg = []State{
		{Leader: true},
		{Anchor: true},
		{Walker: true},
		{},
	}
	if !Stable(cfg) {
		t.Fatal("normal mid-lap shape rejected")
	}
}

func TestStateCountConstant(t *testing.T) {
	if got := New().StateCount(); got != 192 {
		t.Fatalf("state count = %d, want 192", got)
	}
}

func BenchmarkStep(b *testing.B) {
	p := New()
	l := State{Walker: true}
	r := State{}
	env := Census{Walkers: 1, Anchors: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, r = p.Step(l, r, env)
	}
}
