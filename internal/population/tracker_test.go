package population

import (
	"testing"

	"repro/internal/xrand"
)

// touchSpec is a synthetic spec over counterState: agent channel 0 counts
// untouched agents (count == 0), agent channel 1 counts leaders, arc
// channel 0 counts arcs whose endpoints differ in touch parity. Converged
// once every agent has interacted at least once.
func touchSpec() RingSpec[counterState] {
	return RingSpec[counterState]{
		ArcMask: func(l, r counterState) uint8 {
			if l.count%2 != r.count%2 {
				return 1
			}
			return 0
		},
		AgentMask: func(s counterState) uint8 {
			var m uint8
			if s.count == 0 {
				m |= 1
			}
			if s.leader {
				m |= 2
			}
			return m
		},
		Converged: func(c *LocalCounts, _ []counterState) bool {
			return c.Agent[0] == 0
		},
	}
}

// recount recomputes the tracker's counts from scratch.
func recount(cfg []counterState, spec RingSpec[counterState]) LocalCounts {
	var c LocalCounts
	n := len(cfg)
	for i := 0; i < n; i++ {
		am := spec.ArcMask(cfg[i], cfg[(i+1)%n])
		gm := spec.AgentMask(cfg[i])
		for b := 0; b < 8; b++ {
			if am&(1<<b) != 0 {
				c.Arc[b]++
			}
			if gm&(1<<b) != 0 {
				c.Agent[b]++
				c.AgentPos[b] += i
			}
		}
	}
	return c
}

func TestRingTrackerCountsMatchRecount(t *testing.T) {
	for _, topo := range []Topology{DirectedRing(2), DirectedRing(7), UndirectedRing(3), UndirectedRing(8)} {
		spec := touchSpec()
		e := NewEngine(topo, countTransition, xrand.New(11))
		tr := NewRingTracker(spec)
		e.SetTracker(tr)
		for i := 0; i < 2000; i++ {
			e.Step()
			if got, want := tr.Counts(), recount(e.Config(), spec); got != want {
				t.Fatalf("n=%d step %d: incremental counts %+v, recount %+v",
					topo.N, e.Steps(), got, want)
			}
		}
	}
}

func TestRingTrackerResetOnSetStates(t *testing.T) {
	spec := touchSpec()
	e := NewEngine(DirectedRing(6), countTransition, xrand.New(3))
	tr := NewRingTracker(spec)
	e.SetTracker(tr)
	e.Run(100)
	// A bulk install invalidates the tracker; the engine must resync it
	// before the next verdict-bearing interaction.
	cfg := make([]counterState, 6)
	for i := range cfg {
		cfg[i] = counterState{count: 2 * i} // agent 0 untouched again
	}
	e.SetStates(cfg)
	e.Step()
	if got, want := tr.Counts(), recount(e.Config(), spec); got != want {
		t.Fatalf("counts after SetStates+Step: %+v, recount %+v", got, want)
	}
}

func TestRunUntilConvergedMatchesPerStepScan(t *testing.T) {
	pred := func(cfg []counterState) bool {
		for _, s := range cfg {
			if s.count == 0 {
				return false
			}
		}
		return true
	}
	for _, n := range []int{2, 5, 16, 64} {
		tracked := NewEngine(DirectedRing(n), countTransition, xrand.New(uint64(n)))
		tracked.SetTracker(NewRingTracker(touchSpec()))
		gotStep, gotOK := tracked.RunUntilConverged(1 << 20)
		oracle := NewEngine(DirectedRing(n), countTransition, xrand.New(uint64(n)))
		wantStep, wantOK := oracle.RunUntil(pred, 1, 1<<20)
		if gotStep != wantStep || gotOK != wantOK {
			t.Fatalf("n=%d: tracked (%d, %v) vs per-step scan (%d, %v)",
				n, gotStep, gotOK, wantStep, wantOK)
		}
		if !gotOK {
			t.Fatalf("n=%d: no convergence", n)
		}
	}
}

func TestRunUntilConvergedRespectsMaxSteps(t *testing.T) {
	e := NewEngine(DirectedRing(4), countTransition, xrand.New(5))
	spec := touchSpec()
	spec.Converged = func(*LocalCounts, []counterState) bool { return false }
	e.SetTracker(NewRingTracker(spec))
	step, ok := e.RunUntilConverged(123)
	if ok || step != 123 || e.Steps() != 123 {
		t.Fatalf("impossible verdict: step=%d ok=%v engine=%d", step, ok, e.Steps())
	}
}

func TestRunUntilConvergedImmediate(t *testing.T) {
	e := NewEngine(DirectedRing(4), countTransition, xrand.New(6))
	spec := touchSpec()
	spec.Converged = func(*LocalCounts, []counterState) bool { return true }
	e.SetTracker(NewRingTracker(spec))
	if step, ok := e.RunUntilConverged(100); !ok || step != 0 {
		t.Fatalf("immediate verdict: step=%d ok=%v", step, ok)
	}
}

func TestRunUntilConvergedPanicsWithoutTracker(t *testing.T) {
	e := NewEngine(DirectedRing(4), countTransition, xrand.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without a tracker")
		}
	}()
	e.RunUntilConverged(10)
}

// TestInternedRunUntilConvergedPanicsWithoutTracker pins the interned
// layer to the engine's contract: its convergence runs judge through the
// tracker installed with SetTracker and have none of their own.
func TestInternedRunUntilConvergedPanicsWithoutTracker(t *testing.T) {
	for name, run := range map[string]func(*InternedEngine[uint16]){
		"RunUntilConverged": func(acc *InternedEngine[uint16]) { acc.RunUntilConverged(10) },
		"Prefill":           func(acc *InternedEngine[uint16]) { acc.Prefill(10) },
	} {
		_, acc := newToyPairTrans(8, 1, 1<<20, toyReuseTrans)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic without a tracker", name)
				}
			}()
			run(acc)
		}()
	}
}

// TestRunUntilConvergedWithObserver pins observation under a convergence
// run: an installed observer (the oracle protocols' census) must keep
// firing while the tracker judges convergence, with the identical arc
// stream.
func TestRunUntilConvergedWithObserver(t *testing.T) {
	pred := func(cfg []counterState) bool {
		for _, s := range cfg {
			if s.count == 0 {
				return false
			}
		}
		return true
	}
	tracked := NewEngine(DirectedRing(9), countTransition, xrand.New(21))
	calls := 0
	tracked.SetObserver(func(int, counterState, counterState) { calls++ })
	tracked.SetTracker(NewRingTracker(touchSpec()))
	gotStep, gotOK := tracked.RunUntilConverged(1 << 20)
	oracle := NewEngine(DirectedRing(9), countTransition, xrand.New(21))
	wantStep, wantOK := oracle.RunUntil(pred, 1, 1<<20)
	if gotStep != wantStep || gotOK != wantOK {
		t.Fatalf("observer path diverged: (%d, %v) vs (%d, %v)", gotStep, gotOK, wantStep, wantOK)
	}
	if uint64(calls) != 2*gotStep {
		t.Fatalf("observer fired %d times over %d steps", calls, gotStep)
	}
}

// TestSetStatesRecordsLeaderChange pins the fault-injection accounting
// fix: installing a configuration that changes the leader set must be
// recorded exactly like an interaction-driven change, so trials with
// mid-run bursts cannot report a pre-fault stabilization step.
func TestSetStatesRecordsLeaderChange(t *testing.T) {
	isLeader := func(s counterState) bool { return s.leader }
	e := NewEngine(DirectedRing(4), func(l, r counterState) (counterState, counterState) {
		return l, r // no-op protocol: only installs can change leaders
	}, xrand.New(9))
	e.TrackLeaders(isLeader)
	e.Run(10)
	if e.LeaderChanges() != 0 {
		t.Fatalf("no-op protocol changed leaders %d times", e.LeaderChanges())
	}

	// Same leader set: nothing recorded.
	e.SetStates(make([]counterState, 4))
	if e.LeaderChanges() != 0 || e.LastLeaderChange() != 0 {
		t.Fatalf("no-change install recorded: changes=%d last=%d", e.LeaderChanges(), e.LastLeaderChange())
	}

	// Leader set changes at step 10: recorded at the install step.
	cfg := make([]counterState, 4)
	cfg[2].leader = true
	e.SetStates(cfg)
	if e.LeaderChanges() != 1 || e.LastLeaderChange() != 10 {
		t.Fatalf("install not recorded: changes=%d last=%d", e.LeaderChanges(), e.LastLeaderChange())
	}
	if e.LeaderCount() != 1 {
		t.Fatalf("leader count %d after install", e.LeaderCount())
	}

	// Per-agent install: same contract.
	e.Run(5)
	e.SetState(2, counterState{})
	if e.LeaderChanges() != 2 || e.LastLeaderChange() != 15 {
		t.Fatalf("SetState not recorded: changes=%d last=%d", e.LeaderChanges(), e.LastLeaderChange())
	}
	e.SetState(2, counterState{count: 7}) // leader bit unchanged
	if e.LeaderChanges() != 2 {
		t.Fatal("no-change SetState recorded")
	}
}

// TestPendingDrawsKeepStreamSerial pins the no-desync contract: a tracked
// run that converges mid-batch buffers its unexecuted draws, so an engine
// that keeps running afterwards executes exactly the arc sequence a pure
// step-at-a-time engine with the same seed does.
func TestPendingDrawsKeepStreamSerial(t *testing.T) {
	tracked := NewEngine(DirectedRing(7), countTransition, xrand.New(13))
	tracked.SetTracker(NewRingTracker(touchSpec()))
	step, ok := tracked.RunUntilConverged(1 << 20)
	if !ok {
		t.Fatal("no convergence")
	}
	tracked.Run(500) // continue through Run: drains the buffer first
	tracked.SetTracker(nil)
	for i := 0; i < 300; i++ { // and through Step
		tracked.Step()
	}

	serial := NewEngine(DirectedRing(7), countTransition, xrand.New(13))
	for i := uint64(0); i < step+800; i++ {
		serial.Step()
	}
	if tracked.Steps() != serial.Steps() {
		t.Fatalf("step counters diverged: %d vs %d", tracked.Steps(), serial.Steps())
	}
	a, b := tracked.Snapshot(), serial.Snapshot()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("agent %d diverged after continued use: %+v vs %+v", i, a[i], b[i])
		}
	}
}
