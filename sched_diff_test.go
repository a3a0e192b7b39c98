package repro

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// uniformSpec is the explicit-uniform scenario of the differential tests:
// the same arc distribution as the default path, named through the
// scheduler spec.
func uniformSpec() Scenario {
	return Scenario{Sched: &SchedulerSpec{Kind: "uniform"}}
}

// assertUniformEqual pins a default-scheduler run and an explicit-uniform
// run of the same cell to bit-identical results — TrialResult and the
// full typed event stream — on one engine (generic or interned). An
// explicit "uniform" spec must select the engine's default draws, so any
// divergence is a bug in the scheduler plumbing, not noise.
func assertUniformEqual(t *testing.T, name string, n int, seed uint64, generic bool) {
	t.Helper()
	defRes, defProbe := runDiffTrial(t, name, Scenario{}, n, seed, generic)
	uniRes, uniProbe := runDiffTrial(t, name, uniformSpec(), n, seed, generic)
	if defRes != uniRes {
		t.Fatalf("%s n=%d seed=%d generic=%v: TrialResult diverged\ndefault: %+v\nuniform: %+v",
			name, n, seed, generic, defRes, uniRes)
	}
	if len(defProbe.events) != len(uniProbe.events) {
		t.Fatalf("%s n=%d seed=%d generic=%v: event stream lengths diverged (%d vs %d)",
			name, n, seed, generic, len(defProbe.events), len(uniProbe.events))
	}
	for i := range defProbe.events {
		if !reflect.DeepEqual(defProbe.events[i], uniProbe.events[i]) {
			t.Fatalf("%s n=%d seed=%d generic=%v: event %d diverged\ndefault: %+v\nuniform: %+v",
				name, n, seed, generic, i, defProbe.events[i], uniProbe.events[i])
		}
	}
}

// TestExplicitUniformMatchesDefault is the scheduler-subsystem
// differential test: for every built-in protocol, ring sizes across both
// tiers of the pair table and a fan of seeds, a trial under the explicit
// "uniform" scheduler must reproduce the default fast path bit-for-bit —
// steps, exact hitting times, stabilization, leader accounting and the
// whole probe stream — on the generic AND the interned engine.
func TestExplicitUniformMatchesDefault(t *testing.T) {
	for name, sizes := range diffCells() {
		for _, n := range sizes {
			for seed := uint64(1); seed <= 3; seed++ {
				assertUniformEqual(t, name, n, seed, true)
				assertUniformEqual(t, name, n, seed, false)
			}
		}
	}
}

// TestInternedMatchesGenericUnderAdversaries extends the engine
// differential to the adversarial schedulers and ring dynamics: biased
// arcs, eclipses, churn and stuck agents must leave the interned
// table-lookup engine bit-identical to the generic engine (stuck trials
// fall back to the generic path on both sides by construction — a frozen
// site breaks the tables' site-independence).
func TestInternedMatchesGenericUnderAdversaries(t *testing.T) {
	scenarios := []Scenario{
		{Sched: &SchedulerSpec{Kind: "biased", Family: "hotspot", HotArcs: 4, Weight: 8}},
		{Sched: &SchedulerSpec{Kind: "biased", Family: "ramp", Weight: 8}},
		{Sched: &SchedulerSpec{Kind: "eclipse", Start: 1, Period: 1 << 30, Duration: 2000, Arcs: 6}},
		{Sched: &SchedulerSpec{Stuck: 2}, Budget: Budget{Scale: 0.02}},
		{Sched: &SchedulerSpec{Churn: []ChurnEvent{{AtStep: 800, Remove: 2}, {AtStep: 2500, Insert: 2}}}},
	}
	cells := map[string][]int{
		"ppl": {16, 33}, "orient": {16, 33}, "yokota": {16, 33},
		"angluin": {17, 33}, "fj": {16, 32}, "chenchen": {6, 8},
	}
	for name, sizes := range cells {
		for _, sc := range scenarios {
			p, err := NewProtocol(name)
			if err != nil {
				t.Fatal(err)
			}
			if p.Validate(sc) != nil {
				continue // churn rejected by the fixed-size protocols
			}
			for _, n := range sizes {
				assertDiffEqual(t, name, sc, n, 1)
			}
		}
	}
}

// benchFile mirrors the envelope of BENCH_baseline.json for the
// hitting-time reproduction test.
type benchFile struct {
	Results []BenchResult `json:"results"`
}

// TestUniformReproducesBenchBaselineHittingTimes replays every tracked
// row of the committed perf baseline through the explicit "uniform"
// scheduler spec: the exact convergence step counts recorded in
// BENCH_baseline.json (deterministic in the seed, machine-independent)
// must come back unchanged, on both engines. This ties the scheduler
// plumbing to a committed artifact produced before the subsystem
// existed.
func TestUniformReproducesBenchBaselineHittingTimes(t *testing.T) {
	data, err := os.ReadFile("BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, generic := range []bool{false, true} {
		internedOff.Store(generic)
		for _, row := range file.Results {
			if row.Mode != BenchTracked || !row.Converged {
				continue
			}
			rows++
			p, err := NewProtocol(row.Protocol)
			if err != nil {
				internedOff.Store(false)
				t.Fatal(err)
			}
			res, err := p.Trial(uniformSpec(), row.N, row.Seed)
			if err != nil {
				internedOff.Store(false)
				t.Fatal(err)
			}
			if res.Steps != row.Steps || !res.Converged {
				internedOff.Store(false)
				t.Fatalf("%s n=%d seed=%d generic=%v: explicit-uniform trial hit at step %d (converged=%v), baseline recorded %d",
					row.Protocol, row.N, row.Seed, generic, res.Steps, res.Converged, row.Steps)
			}
		}
	}
	internedOff.Store(false)
	if rows == 0 {
		t.Fatal("BENCH_baseline.json has no converged tracked rows to replay")
	}
}
