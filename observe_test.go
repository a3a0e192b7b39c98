package repro

import (
	"reflect"
	"testing"

	"repro/internal/angluin"
	"repro/internal/chenchen"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/orient"
)

// checkObservedTrial runs one case through ObserveTrial and checks it
// against the trial the library reports: the same TrialResult as Trial,
// the same record as ProbeTrial, an observer call for both agents of
// every step, a final configuration holding the live agent count, and —
// when the trial converged — one that satisfies the protocol's predicate.
func checkObservedTrial[S comparable](t *testing.T, name string, p Protocol, sc Scenario, n int, seed uint64, holds func([]S) bool) {
	t.Helper()
	want, err := p.Trial(sc, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	plain := &RecordingProbe{}
	if _, err := ProbeTrial(p, sc, n, seed, plain); err != nil {
		t.Fatal(err)
	}
	var calls uint64
	probe := &RecordingProbe{}
	got, final, err := ObserveTrial(p, sc, n, seed, probe, func(int, S, S) { calls++ })
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got != want {
		t.Fatalf("%s: observed trial %+v, Trial reports %+v", name, got, want)
	}
	if !reflect.DeepEqual(probe.Record(), plain.Record()) {
		t.Fatalf("%s: observed record diverged\nobserved: %+v\nprobed:   %+v", name, probe.Record(), plain.Record())
	}
	if calls != 2*got.Steps {
		t.Fatalf("%s: observer fired %d times over %d steps", name, calls, got.Steps)
	}
	obs := probe.Record().Observables
	if live := n + int(obs["churn_inserted"]) - int(obs["churn_removed"]); len(final) != live {
		t.Fatalf("%s: final configuration holds %d agents, %d are live", name, len(final), live)
	}
	if got.Converged && !holds(final) {
		t.Fatalf("%s: converged at step %d but the final configuration fails the predicate", name, got.Steps)
	}
}

// TestObserveTrialSeesTheReportedTrial pins ObserveTrial to the reported
// trial under every scenario dimension a replay would lose: adversarial
// schedulers, churn, fault bursts and stuck agents, plus orient.
func TestObserveTrialSeesTheReportedTrial(t *testing.T) {
	ppl := PPL(0, 0)
	for _, tc := range []struct {
		name string
		sc   Scenario
		n    int
		seed uint64
	}{
		{"hotspot", Scenario{Sched: &SchedulerSpec{Kind: "biased", Family: "hotspot", HotArcs: 4, Weight: 64}}, 24, 3},
		{"eclipse", Scenario{Sched: &SchedulerSpec{Kind: "eclipse", Start: 200, Period: 100000, Duration: 5000, Arcs: 12}}, 24, 2},
		{"churn", Scenario{Sched: &SchedulerSpec{Churn: []ChurnEvent{{AtStep: 4000, Remove: 2}, {AtStep: 30000, Insert: 2}}}}, 48, 1},
		{"faults", Scenario{Faults: []Fault{{AtStep: 2000, Agents: 10}}}, 32, 5},
		// A frozen agent usually blocks S_PL, so a stuck trial runs its
		// whole budget (2.3M steps at n=24); n=6 keeps that budget short.
		{"stuck", Scenario{Sched: &SchedulerSpec{Stuck: 1}}, 6, 1},
	} {
		par := core.NewParamsSlack(tc.n, 0, core.DefaultC1)
		checkObservedTrial(t, "ppl "+tc.name, ppl, tc.sc, tc.n, tc.seed, par.IsSafe)
	}
	or, err := NewProtocol("orient")
	if err != nil {
		t.Fatal(err)
	}
	checkObservedTrial(t, "orient", or, Scenario{}, 16, 1, orient.Oriented)
	checkObservedTrial(t, "orient faults", or, Scenario{Faults: []Fault{{AtStep: 20, Agents: 8}}}, 16, 2, orient.Oriented)
}

// TestObserveTrialRefusals: the oracle-census baselines keep their census
// in the engine observer and refuse another one (a nil observer is a
// plain probed trial), and a state type that is not the protocol's is an
// error, not a panic.
func TestObserveTrialRefusals(t *testing.T) {
	fjP, _ := NewProtocol("fj")
	ccP, _ := NewProtocol("chenchen")
	if _, _, err := ObserveTrial(fjP, Scenario{}, 8, 1, nil, func(int, fj.State, fj.State) {}); err == nil {
		t.Fatal("fj accepted an observer")
	}
	if _, _, err := ObserveTrial(ccP, Scenario{}, 8, 1, nil, func(int, chenchen.State, chenchen.State) {}); err == nil {
		t.Fatal("chenchen accepted an observer")
	}
	want, err := fjP.Trial(Scenario{}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, final, err := ObserveTrial[fj.State](fjP, Scenario{}, 8, 1, nil, nil)
	if err != nil || got != want || len(final) != 8 {
		t.Fatalf("fj without an observer: %+v %d agents %v, want %+v", got, len(final), err, want)
	}
	if _, _, err := ObserveTrial[orient.State](PPL(0, 0), Scenario{}, 8, 1, nil, nil); err == nil {
		t.Fatal("P_PL observed as orient states")
	}
	if _, _, err := ObserveTrial[core.State](PPL(0, 0), Scenario{Faults: []Fault{{AtStep: 1, Agents: -1}}}, 8, 1, nil, nil); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

// TestTrialRejectsUnfixedRingSize pins the public trial entry points to
// errors, not panics, at a ring size FixSize would change: angluin's
// assumption rules out every multiple of k=2, and orient's two-hop
// coloring needs three agents.
func TestTrialRejectsUnfixedRingSize(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
	}{{"angluin", 8}, {"orient", 2}} {
		p, err := NewProtocol(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if p.FixSize(c.n) == c.n {
			t.Fatalf("%s: FixSize keeps n=%d; pick a size it changes", c.name, c.n)
		}
		calls := map[string]func() error{
			"Trial": func() error { _, err := p.Trial(Scenario{}, c.n, 1); return err },
			"ProbeTrial": func() error {
				_, err := ProbeTrial(p, Scenario{}, c.n, 1, &RecordingProbe{})
				return err
			},
		}
		if c.name == "angluin" {
			calls["ObserveTrial"] = func() error {
				_, _, err := ObserveTrial[angluin.State](p, Scenario{}, c.n, 1, nil, nil)
				return err
			}
		} else {
			calls["ObserveTrial"] = func() error {
				_, _, err := ObserveTrial[orient.State](p, Scenario{}, c.n, 1, nil, nil)
				return err
			}
		}
		for call, run := range calls {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s n=%d %s: panic %v", c.name, c.n, call, r)
					}
				}()
				if err := run(); err == nil {
					t.Fatalf("%s n=%d %s: ran a ring FixSize would change", c.name, c.n, call)
				}
			}()
		}
	}
}
