package fj

import (
	"testing"

	"repro/internal/population"
	"repro/internal/war"
	"repro/internal/xrand"
)

func TestOracleCreatesLeader(t *testing.T) {
	p := New()
	_, r := p.Step(State{}, State{}, Oracle{NoLeader: true, NoBullet: true})
	if !r.Leader || !r.Shield || !r.Waiting || r.Bullet != war.Live {
		t.Fatalf("oracle creation: %+v", r)
	}
}

func TestInitiatorLeaderFiresLive(t *testing.T) {
	p := New()
	l, _ := p.Step(State{Leader: true}, State{}, Oracle{})
	// The fired bullet moves to the responder within the interaction.
	if !l.Shield || !l.Waiting {
		t.Fatalf("initiator fire: %+v", l)
	}
}

func TestResponderLeaderFiresDummy(t *testing.T) {
	p := New()
	_, r := p.Step(State{}, State{Leader: true, Shield: true}, Oracle{})
	if r.Shield || !r.Waiting || r.Bullet != war.Dummy {
		t.Fatalf("responder fire: %+v", r)
	}
}

func TestWaitingLeaderHoldsFire(t *testing.T) {
	p := New()
	l, _ := p.Step(State{Leader: true, Waiting: true}, State{}, Oracle{})
	if l.Bullet != war.None {
		t.Fatal("waiting leader fired")
	}
}

func TestNoBulletOracleUnlocks(t *testing.T) {
	p := New()
	l, _ := p.Step(State{Leader: true, Waiting: true}, State{}, Oracle{NoBullet: true})
	// Unlock happens first, so the leader fires in the same interaction.
	if !l.Waiting || l.Shield != true {
		t.Fatalf("unlocked leader did not fire: %+v", l)
	}
}

func TestBulletArrivalKillsUnshielded(t *testing.T) {
	p := New()
	_, r := p.Step(State{Bullet: war.Live}, State{Leader: true, Waiting: true}, Oracle{})
	if r.Leader {
		t.Fatal("unshielded leader survived")
	}
	if r.Waiting {
		t.Fatal("kill must clear waiting")
	}
}

func TestBulletArrivalUnlocksShielded(t *testing.T) {
	p := New()
	_, r := p.Step(State{Bullet: war.Live}, State{Leader: true, Waiting: true, Shield: true}, Oracle{})
	if !r.Leader {
		t.Fatal("shielded leader killed")
	}
	if r.Waiting {
		t.Fatal("arrival must unlock the leader")
	}
}

func TestDummyNeverKills(t *testing.T) {
	p := New()
	_, r := p.Step(State{Bullet: war.Dummy}, State{Leader: true, Waiting: true}, Oracle{})
	if !r.Leader {
		t.Fatal("dummy bullet killed a leader")
	}
}

func TestBulletAbsorption(t *testing.T) {
	p := New()
	l, r := p.Step(State{Bullet: war.Live}, State{Bullet: war.Dummy}, Oracle{})
	if l.Bullet != war.None || r.Bullet != war.Dummy {
		t.Fatalf("absorption: l=%v r=%v", l.Bullet, r.Bullet)
	}
}

func TestBulletMoves(t *testing.T) {
	p := New()
	l, r := p.Step(State{Bullet: war.Live}, State{}, Oracle{})
	if l.Bullet != war.None || r.Bullet != war.Live {
		t.Fatalf("move: l=%v r=%v", l.Bullet, r.Bullet)
	}
}

func TestConvergenceFromRandom(t *testing.T) {
	for _, n := range []int{8, 16, 24} {
		for seed := uint64(0); seed < 3; seed++ {
			ru := NewRunner(n, xrand.New(seed))
			rng := xrand.New(seed + 31)
			ru.SetStates(ru.proto.RandomConfig(rng, n))
			maxSteps := 3000 * uint64(n) * uint64(n) * uint64(n)
			_, ok := ru.Engine().RunUntil(Stable, n, maxSteps)
			if !ok {
				t.Fatalf("n=%d seed=%d: not stable within %d steps", n, seed, maxSteps)
			}
		}
	}
}

func TestConvergenceFromEmpty(t *testing.T) {
	n := 16
	ru := NewRunner(n, xrand.New(7))
	ru.SetStates(make([]State, n))
	if _, ok := ru.Engine().RunUntil(Stable, n, 3000*uint64(n*n*n)); !ok {
		t.Fatal("empty start never stabilized")
	}
}

func TestStabilityIsAbsorbing(t *testing.T) {
	n := 12
	ru := NewRunner(n, xrand.New(8))
	rng := xrand.New(9)
	ru.SetStates(ru.proto.RandomConfig(rng, n))
	if _, ok := ru.Engine().RunUntil(Stable, n, 3000*uint64(n*n*n)); !ok {
		t.Fatal("did not stabilize")
	}
	changes := ru.Engine().LeaderChanges()
	for i := 0; i < 400000; i++ {
		ru.Engine().Step()
		if !Stable(ru.Engine().Config()) {
			t.Fatalf("left the stable set at extra step %d", i)
		}
	}
	if ru.Engine().LeaderChanges() != changes {
		t.Fatal("leader changed after stabilization")
	}
}

// TestRunnerCensusMatchesRecount pins the oracle census the engine
// observer maintains across every path that moves the configuration:
// generic Run, RunUntilConverged and ApplyArc, a run with stuck agents
// (whose observed after-state is their unchanged pre-state), and an
// interned run whose capacity fallback hands the triggering interaction to
// the generic engine.
func TestRunnerCensusMatchesRecount(t *testing.T) {
	const n = 12
	check := func(ru *Runner, when string) {
		t.Helper()
		leaders, bullets := 0, 0
		for _, s := range ru.Engine().Config() {
			leaders += btoi(s.Leader)
			bullets += btoi(s.Bullet != war.None)
		}
		if ru.leaders != leaders || ru.bullets != bullets {
			t.Fatalf("%s: census has %d leaders, %d bullets; recount %d, %d", when, ru.leaders, ru.bullets, leaders, bullets)
		}
	}
	ru := NewRunner(n, xrand.New(3))
	ru.SetStates(ru.proto.RandomConfig(xrand.New(4), n))
	eng := ru.Engine()
	eng.Run(3000)
	check(ru, "Run")
	eng.SetTracker(population.NewRingTracker(ru.proto.StableSpec()))
	if _, ok := eng.RunUntilConverged(1 << 24); !ok {
		t.Fatal("RunUntilConverged did not converge")
	}
	check(ru, "RunUntilConverged")
	for k := 0; k < n; k++ {
		eng.ApplyArc(k)
	}
	check(ru, "ApplyArc")
	ru.SetStates(ru.proto.RandomConfig(xrand.New(5), n))
	frozen := make([]bool, n)
	frozen[0], frozen[7] = true, true
	eng.SetFrozen(frozen)
	eng.Run(3000)
	check(ru, "stuck-agent Run")

	ru = NewRunner(n, xrand.New(6))
	ru.SetStates(make([]State, n)) // one distinct state: interning starts
	env, spec := ru.InternEnv(), ru.proto.StableSpec()
	tab := population.NewTables(spec, IsLeader, nil, env, population.InternOptions{MaxStates: 4})
	acc := population.AttachInterned(ru.Engine(), tab, env)
	acc.Run(3000) // past convergence: the leader's bullets outgrow the cap
	if acc.Interned() {
		t.Fatal("a 4-state cap did not force the capacity fallback")
	}
	check(ru, "interned capacity fallback")
}

func TestStableRejectsBadShapes(t *testing.T) {
	if Stable([]State{{}, {}}) {
		t.Fatal("no leader judged stable")
	}
	if Stable([]State{{Leader: true}, {Leader: true, Waiting: true, Bullet: war.Dummy}}) {
		t.Fatal("two leaders judged stable")
	}
	if Stable([]State{{Leader: true, Waiting: true}, {}}) {
		t.Fatal("waiting leader with no bullet judged stable")
	}
	if Stable([]State{{Leader: true, Waiting: true}, {Bullet: war.Live}}) {
		t.Fatal("unshielded leader with live bullet judged stable")
	}
	if !Stable([]State{{Leader: true, Waiting: true, Shield: true}, {Bullet: war.Live}}) {
		t.Fatal("canonical stable shape rejected")
	}
	if !Stable([]State{{Leader: true}, {}}) {
		t.Fatal("bullet-free ready leader rejected")
	}
}

func TestStateCountConstant(t *testing.T) {
	if got := New().StateCount(); got != 24 {
		t.Fatalf("state count = %d, want 24", got)
	}
}

func BenchmarkStep(b *testing.B) {
	p := New()
	l := State{Leader: true}
	r := State{}
	env := Oracle{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, r = p.Step(l, r, env)
	}
}
