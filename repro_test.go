package repro

import (
	"strings"
	"testing"
)

func TestRingElectionQuickConvergence(t *testing.T) {
	e := NewRingElection(16, WithSeed(1))
	e.InitRandom(2)
	steps, ok := e.RunToSafe(0)
	if !ok {
		t.Fatal("did not reach a safe configuration")
	}
	if steps != e.Steps() {
		t.Fatalf("step accounting: %d vs %d", steps, e.Steps())
	}
	if !e.Safe() {
		t.Fatal("Safe() false after RunToSafe")
	}
	leader, unique := e.Leader()
	if !unique {
		t.Fatalf("no unique leader (count=%d)", e.LeaderCount())
	}
	if leader < 0 || leader >= e.N() {
		t.Fatalf("leader index %d out of range", leader)
	}
}

func TestRingElectionFaultRecovery(t *testing.T) {
	e := NewRingElection(16, WithSeed(3))
	e.InitPerfect(5)
	if !e.Safe() {
		t.Fatal("perfect init not safe")
	}
	e.InjectFaults(8)
	if _, ok := e.RunToSafe(0); !ok {
		t.Fatal("did not recover from injected faults")
	}
}

func TestRingElectionNoLeaderStart(t *testing.T) {
	e := NewRingElection(16, WithSeed(4))
	e.InitNoLeader()
	if e.LeaderCount() != 0 {
		t.Fatal("InitNoLeader produced a leader")
	}
	if _, ok := e.RunToSafe(0); !ok {
		t.Fatal("did not elect from a leaderless start")
	}
}

func TestRingElectionOptions(t *testing.T) {
	e := NewRingElection(16, WithSeed(1), WithSlack(2), WithC1(16))
	if e.Psi() != 6 {
		t.Fatalf("slack ignored: ψ=%d", e.Psi())
	}
	base := NewRingElection(16).StatesPerAgent()
	if e.StatesPerAgent() <= base {
		t.Fatal("slack must increase the state count")
	}
}

func TestRingElectionDeterminism(t *testing.T) {
	run := func() uint64 {
		e := NewRingElection(12, WithSeed(9))
		e.InitRandom(10)
		steps, ok := e.RunToSafe(0)
		if !ok {
			t.Fatal("no convergence")
		}
		return steps
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}

func TestRingElectionDescribe(t *testing.T) {
	e := NewRingElection(16, WithSeed(1))
	e.InitPerfect(0)
	out := e.Describe()
	if !strings.Contains(out, "ψ=4") || !strings.Contains(out, "segment") {
		t.Fatalf("Describe output:\n%s", out)
	}
}

func TestRingOrientation(t *testing.T) {
	o := NewRingOrientation(24, WithSeed(5))
	steps, ok := o.RunToOriented(0)
	if !ok {
		t.Fatal("did not orient")
	}
	if !o.Oriented() {
		t.Fatal("Oriented() false after success")
	}
	_ = steps
	// Direction is one of the two; just exercise the accessor.
	_ = o.Clockwise()
}

func TestRingOrientationScramble(t *testing.T) {
	o := NewRingOrientation(16, WithSeed(6))
	if _, ok := o.RunToOriented(0); !ok {
		t.Fatal("initial orientation failed")
	}
	o.Scramble()
	if _, ok := o.RunToOriented(0); !ok {
		t.Fatal("did not re-orient after scramble")
	}
}
