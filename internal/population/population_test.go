package population

import (
	"testing"

	"repro/internal/xrand"
)

// counterState is a trivial protocol state for engine tests: each agent
// counts its interactions, and the initiator hands its parity to the
// responder's lead bit.
type counterState struct {
	count  int
	leader bool
}

func countTransition(l, r counterState) (counterState, counterState) {
	l.count++
	r.count++
	r.leader = l.count%2 == 0
	return l, r
}

func TestDirectedRingTopology(t *testing.T) {
	topo := DirectedRing(5)
	if topo.N != 5 || len(topo.Arcs) != 5 {
		t.Fatalf("unexpected topology: N=%d arcs=%d", topo.N, len(topo.Arcs))
	}
	for i, a := range topo.Arcs {
		if int(a[0]) != i || int(a[1]) != (i+1)%5 {
			t.Fatalf("arc %d is %v", i, a)
		}
	}
}

func TestUndirectedRingTopology(t *testing.T) {
	topo := UndirectedRing(4)
	if topo.N != 4 || len(topo.Arcs) != 8 {
		t.Fatalf("unexpected topology: N=%d arcs=%d", topo.N, len(topo.Arcs))
	}
	// Every edge must appear in both directions.
	seen := make(map[Arc]bool, 8)
	for _, a := range topo.Arcs {
		seen[a] = true
	}
	for i := 0; i < 4; i++ {
		j := (i + 1) % 4
		if !seen[Arc{int32(i), int32(j)}] || !seen[Arc{int32(j), int32(i)}] {
			t.Fatalf("edge %d-%d missing a direction", i, j)
		}
	}
}

func TestTopologyPanics(t *testing.T) {
	tests := []struct {
		name string
		fn   func()
	}{
		{"directed n=1", func() { DirectedRing(1) }},
		{"undirected n=2", func() { UndirectedRing(2) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tt.fn()
		})
	}
}

func TestStepAppliesTransitionToRandomArc(t *testing.T) {
	e := NewEngine(DirectedRing(8), countTransition, xrand.New(1))
	e.Run(1000)
	if e.Steps() != 1000 {
		t.Fatalf("Steps = %d, want 1000", e.Steps())
	}
	total := 0
	for i := 0; i < e.N(); i++ {
		total += e.State(i).count
	}
	if total != 2000 {
		t.Fatalf("total interaction count %d, want 2000 (2 per step)", total)
	}
}

func TestSchedulerUniformity(t *testing.T) {
	// Each agent of a directed n-ring participates in exactly 2 arcs, so
	// over many steps its interaction count should be ~2*steps/n.
	const (
		n     = 16
		steps = 160000
	)
	e := NewEngine(DirectedRing(n), countTransition, xrand.New(2))
	e.Run(steps)
	expected := float64(2*steps) / n
	for i := 0; i < n; i++ {
		c := float64(e.State(i).count)
		if c < 0.9*expected || c > 1.1*expected {
			t.Fatalf("agent %d interacted %v times, expected ~%v", i, c, expected)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []counterState {
		e := NewEngine(DirectedRing(6), countTransition, xrand.New(99))
		e.Run(5000)
		return e.Snapshot()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("agent %d diverged across identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestLeaderTracking(t *testing.T) {
	e := NewEngine(DirectedRing(4), countTransition, xrand.New(3))
	e.TrackLeaders(func(s counterState) bool { return s.leader })
	if e.LeaderCount() != 0 {
		t.Fatalf("initial leader count = %d", e.LeaderCount())
	}
	e.Run(200)
	// Recount from scratch and compare with the incremental counter.
	want := 0
	for i := 0; i < e.N(); i++ {
		if e.State(i).leader {
			want++
		}
	}
	if e.LeaderCount() != want {
		t.Fatalf("incremental leader count %d, recount %d", e.LeaderCount(), want)
	}
	if e.LeaderChanges() == 0 {
		t.Fatal("expected some leader-set changes in this protocol")
	}
	if e.LastLeaderChange() == 0 || e.LastLeaderChange() > e.Steps() {
		t.Fatalf("LastLeaderChange = %d out of range (steps=%d)", e.LastLeaderChange(), e.Steps())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(DirectedRing(4), countTransition, xrand.New(4))
	pred := func(cfg []counterState) bool {
		total := 0
		for _, s := range cfg {
			total += s.count
		}
		return total >= 100
	}
	step, ok := e.RunUntil(pred, 7, 10000)
	if !ok {
		t.Fatal("predicate never held")
	}
	if !pred(e.Config()) {
		t.Fatal("predicate does not hold at reported step")
	}
	if step != e.Steps() {
		t.Fatalf("returned step %d != engine steps %d", step, e.Steps())
	}
	// total grows by exactly 2 per step, so it first reaches 100 at step 50;
	// with checkEvery=7 detection must occur within one check period.
	if step < 50 || step >= 50+7 {
		t.Fatalf("detected at step %d, want within [50, 57)", step)
	}
}

func TestRunUntilRespectsMaxSteps(t *testing.T) {
	e := NewEngine(DirectedRing(4), countTransition, xrand.New(5))
	step, ok := e.RunUntil(func([]counterState) bool { return false }, 10, 123)
	if ok {
		t.Fatal("impossible predicate reported true")
	}
	if step != 123 || e.Steps() != 123 {
		t.Fatalf("engine ran %d steps, want exactly 123", e.Steps())
	}
}

func TestRunUntilImmediate(t *testing.T) {
	e := NewEngine(DirectedRing(4), countTransition, xrand.New(6))
	step, ok := e.RunUntil(func([]counterState) bool { return true }, 10, 100)
	if !ok || step != 0 {
		t.Fatalf("immediate predicate: step=%d ok=%v", step, ok)
	}
}

func TestRunMatchesStepLoop(t *testing.T) {
	// Run's batched draws must replay the exact arc sequence and leader
	// accounting of the step-at-a-time path.
	isLeader := func(s counterState) bool { return s.leader }
	for _, steps := range []uint64{0, 1, 255, 256, 257, 5000} {
		serial := NewEngine(DirectedRing(9), countTransition, xrand.New(21))
		serial.TrackLeaders(isLeader)
		for i := uint64(0); i < steps; i++ {
			serial.Step()
		}
		batched := NewEngine(DirectedRing(9), countTransition, xrand.New(21))
		batched.TrackLeaders(isLeader)
		batched.Run(steps)
		if serial.Steps() != batched.Steps() {
			t.Fatalf("steps=%d: step counters diverged: %d vs %d", steps, serial.Steps(), batched.Steps())
		}
		a, b := serial.Snapshot(), batched.Snapshot()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("steps=%d: agent %d diverged: %+v vs %+v", steps, i, a[i], b[i])
			}
		}
		if serial.LeaderCount() != batched.LeaderCount() ||
			serial.LeaderChanges() != batched.LeaderChanges() ||
			serial.LastLeaderChange() != batched.LastLeaderChange() {
			t.Fatalf("steps=%d: leader accounting diverged", steps)
		}
	}
}

func TestRunUntrackedMatchesStepLoop(t *testing.T) {
	serial := NewEngine(DirectedRing(7), countTransition, xrand.New(33))
	for i := 0; i < 4000; i++ {
		serial.Step()
	}
	batched := NewEngine(DirectedRing(7), countTransition, xrand.New(33))
	batched.Run(4000)
	a, b := serial.Snapshot(), batched.Snapshot()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("agent %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSetStateLazyRecount(t *testing.T) {
	e := NewEngine(DirectedRing(6), countTransition, xrand.New(1))
	e.TrackLeaders(func(s counterState) bool { return s.leader })
	// Install a configuration state-by-state after tracking is enabled: the
	// count must come out right even though no recount runs per SetState.
	for i := 0; i < e.N(); i++ {
		e.SetState(i, counterState{leader: i%2 == 0})
	}
	if got := e.LeaderCount(); got != 3 {
		t.Fatalf("LeaderCount after state-by-state install = %d, want 3", got)
	}
	// The incremental accounting must start from the recounted base.
	e.SetState(0, counterState{leader: false})
	e.Run(500)
	want := 0
	for i := 0; i < e.N(); i++ {
		if e.State(i).leader {
			want++
		}
	}
	if e.LeaderCount() != want {
		t.Fatalf("incremental count %d, recount %d", e.LeaderCount(), want)
	}
}

func TestApplyArcDeterministicSchedule(t *testing.T) {
	e := NewEngine(DirectedRing(4), countTransition, nil)
	e.ApplyArc(2) // interaction (u_2, u_3)
	if e.State(2).count != 1 || e.State(3).count != 1 {
		t.Fatalf("arc 2 did not touch agents 2,3: %+v", e.Snapshot())
	}
	if e.State(0).count != 0 || e.State(1).count != 0 {
		t.Fatalf("arc 2 touched wrong agents: %+v", e.Snapshot())
	}
}

func TestScheduleSeqR(t *testing.T) {
	got := ScheduleSeqR(5, 3, 4)
	want := []int{3, 4, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ScheduleSeqR(5,3,4) = %v, want %v", got, want)
		}
	}
}

func TestScheduleSeqL(t *testing.T) {
	got := ScheduleSeqL(5, 1, 4)
	want := []int{0, 4, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ScheduleSeqL(5,1,4) = %v, want %v", got, want)
		}
	}
}

func TestSeqRTouchesEveryAgent(t *testing.T) {
	const n = 7
	e := NewEngine(DirectedRing(n), countTransition, nil)
	e.ApplySchedule(ScheduleSeqR(n, 0, n))
	for i := 0; i < n; i++ {
		if e.State(i).count == 0 {
			t.Fatalf("agent %d untouched by seq_R(0,n)", i)
		}
	}
}

// TestObserver pins the observer dispatch every entry point shares: Run,
// Step and ApplyArc notify both agents of each interaction once, with the
// state the engine wrote — for a stuck agent, its unchanged pre-state.
func TestObserver(t *testing.T) {
	e := NewEngine(DirectedRing(4), countTransition, xrand.New(8))
	frozen := make([]bool, 4)
	calls, frozenCalls := 0, 0
	e.SetObserver(func(agent int, before, after counterState) {
		calls++
		if after != e.State(agent) {
			t.Fatalf("observer saw agent %d after=%+v, engine wrote %+v", agent, after, e.State(agent))
		}
		if frozen[agent] {
			frozenCalls++
			if after != before {
				t.Fatalf("frozen agent %d changed: %+v -> %+v", agent, before, after)
			}
		} else if after.count != before.count+1 {
			t.Fatalf("observer saw inconsistent states: %+v -> %+v", before, after)
		}
	})
	e.Run(100)
	for i := 0; i < 10; i++ {
		e.Step()
	}
	e.ApplyArc(2)
	if calls != 2*111 {
		t.Fatalf("observer calls = %d, want %d", calls, 2*111)
	}
	frozen[1] = true
	e.SetFrozen(frozen)
	e.ApplyArc(0) // agent 1 stuck as the responder
	e.ApplyArc(1) // and as the initiator
	e.Run(50)
	if calls != 2*163 {
		t.Fatalf("observer calls = %d, want %d", calls, 2*163)
	}
	if frozenCalls < 2 {
		t.Fatalf("frozen agent observed %d times, want at least 2", frozenCalls)
	}
}

func TestSetStatesRejectsWrongLength(t *testing.T) {
	e := NewEngine(DirectedRing(4), countTransition, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong-length SetStates")
		}
	}()
	e.SetStates(make([]counterState, 3))
}

func BenchmarkEngineStep(b *testing.B) {
	e := NewEngine(DirectedRing(256), countTransition, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkEngineStepTracked(b *testing.B) {
	e := NewEngine(DirectedRing(256), countTransition, xrand.New(1))
	e.TrackLeaders(func(s counterState) bool { return s.leader })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
