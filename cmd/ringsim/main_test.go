package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/trace"
)

func TestProtocolForKnownProtocols(t *testing.T) {
	for _, proto := range []string{"ppl", "yokota", "angluin", "fj", "chenchen", "orient"} {
		p, err := protocolFor(proto, 0, 8)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if p.Info().Name == "" || p.MaxSteps(16) == 0 || p.States(16) == 0 {
			t.Fatalf("%s: incomplete protocol %+v", proto, p.Info())
		}
	}
}

func TestProtocolForUnknownProtocol(t *testing.T) {
	if _, err := protocolFor("paxos", 0, 8); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestScenarioForClasses(t *testing.T) {
	for _, init := range []string{"random", "noleader", "allleaders", "corrupted", "noleadercold"} {
		sc, err := scenarioFor(init, "", "", "", 0)
		if err != nil {
			t.Fatalf("%s: %v", init, err)
		}
		if sc.Init.String() != init {
			t.Fatalf("round trip: %q -> %v", init, sc.Init)
		}
	}
	if _, err := scenarioFor("bogus", "", "", "", 0); err == nil {
		t.Fatal("unknown init class accepted")
	}
}

func TestScenarioForFaults(t *testing.T) {
	sc, err := scenarioFor("random", "8@100, 4@50", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []repro.Fault{{AtStep: 100, Agents: 8}, {AtStep: 50, Agents: 4}}
	if len(sc.Faults) != len(want) {
		t.Fatalf("faults = %+v", sc.Faults)
	}
	for i := range want {
		if sc.Faults[i] != want[i] {
			t.Fatalf("faults = %+v, want %+v", sc.Faults, want)
		}
	}
	for _, bad := range []string{"8", "x@100", "8@y", "0@100", "@"} {
		if _, err := scenarioFor("random", bad, "", "", 0); err == nil {
			t.Fatalf("bad schedule %q accepted", bad)
		}
		if err != nil && !strings.Contains(err.Error(), "fault burst") {
			t.Fatalf("unexpected error for %q: %v", bad, err)
		}
	}
}

func TestScenarioForSchedulerFlags(t *testing.T) {
	sc, err := scenarioFor("random", "", "eclipse:period=5000,duration=800,arcs=4", "del2@100,add2@900", 3)
	if err != nil {
		t.Fatal(err)
	}
	spec := sc.Sched
	if spec == nil || spec.Kind != "eclipse" || spec.Period != 5000 || spec.Duration != 800 || spec.Arcs != 4 {
		t.Fatalf("scheduler spec = %+v", spec)
	}
	if len(spec.Churn) != 2 || spec.Churn[0].Remove != 2 || spec.Churn[1].Insert != 2 || spec.Stuck != 3 {
		t.Fatalf("dynamics = churn %+v stuck %d", spec.Churn, spec.Stuck)
	}
	// Churn or stuck alone still produce a spec (with the default
	// uniform distribution); no flags at all leave it nil.
	sc, err = scenarioFor("random", "", "", "del1@50", 0)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Sched == nil || sc.Sched.Kind != "" || len(sc.Sched.Churn) != 1 {
		t.Fatalf("churn-only spec = %+v", sc.Sched)
	}
	sc, err = scenarioFor("random", "", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Sched != nil {
		t.Fatalf("flagless scenario grew a scheduler spec: %+v", sc.Sched)
	}
	// A negative -stuck reaches the spec, whose Validate rejects it.
	sc, err = scenarioFor("random", "", "", "", -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err == nil {
		t.Fatalf("negative -stuck accepted: %+v", sc.Sched)
	}
	for _, bad := range [][3]string{
		{"volcano", "", ""},
		{"eclipse:period=100", "", ""},
		{"", "mul2@50", ""},
	} {
		if _, err := scenarioFor("random", "", bad[0], bad[1], 0); err == nil {
			t.Fatalf("bad scheduler flags %v accepted", bad)
		}
	}
}

// TestStatsObserveTheReportedTrial drives the single-trial path under an
// adversarial scheduler and under churn: the -stats block must be the
// trace of the very trial whose hitting time the report prints, collected
// through repro.ObserveTrial, not a uniform fault-free replay.
func TestStatsObserveTheReportedTrial(t *testing.T) {
	for _, tc := range []struct {
		sched, churn string
		n            int
		seed         uint64
	}{
		{sched: "hotspot:arcs=4,weight=64", n: 24, seed: 3},
		{churn: "del2@4000,add2@30000", n: 48, seed: 1},
	} {
		var out bytes.Buffer
		args := []string{"-proto", "ppl", "-n", strconv.Itoa(tc.n), "-seed", strconv.FormatUint(tc.seed, 10),
			"-sched", tc.sched, "-churn", tc.churn, "-stats"}
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		sc, err := scenarioFor("random", "", tc.sched, tc.churn, 0)
		if err != nil {
			t.Fatal(err)
		}
		p := repro.PPL(0, core.DefaultC1)
		res, err := p.Trial(sc, tc.n, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		par := core.NewParamsSlack(tc.n, 0, core.DefaultC1)
		col := trace.NewCollector(par)
		_, final, err := repro.ObserveTrial(p, sc, tc.n, tc.seed, nil, col.Observe)
		if err != nil {
			t.Fatal(err)
		}
		if col.Events() == (trace.Events{}) {
			t.Fatalf("%+v: the collector saw no events", tc)
		}
		got := out.String()
		if want := fmt.Sprintf("safe after  : %d steps\n", res.Steps); !strings.Contains(got, want) {
			t.Fatalf("%+v: report lacks %q:\n%s", tc, want, got)
		}
		if want := "\n" + trace.Format(col.Events(), trace.Snapshot(par, final)); !strings.HasSuffix(got, want) {
			t.Fatalf("%+v: -stats block is not the trial's own trace; want suffix\n%s\ngot\n%s", tc, want, got)
		}
	}
}

// TestRunOrientTiny runs orient through the same probed path as every
// protocol: the printed hitting time is the registered protocol's Trial,
// the direction line replaces the leader line, and n=2 is FixSize-adjusted
// to 3.
func TestRunOrientTiny(t *testing.T) {
	p, err := repro.NewProtocol("orient")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 8} {
		var out bytes.Buffer
		if err := run([]string{"-proto", "orient", "-n", strconv.Itoa(n), "-seed", "1"}, &out); err != nil {
			t.Fatal(err)
		}
		size := p.FixSize(n)
		res, err := p.Trial(repro.Scenario{}, size, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := out.String()
		for _, want := range []string{
			fmt.Sprintf("ring size   : %d\n", size),
			fmt.Sprintf("safe after  : %d steps\n", res.Steps),
			"direction   : ",
		} {
			if !strings.Contains(got, want) {
				t.Fatalf("n=%d: report lacks %q:\n%s", n, want, got)
			}
		}
		if strings.Contains(got, "output fixed") {
			t.Fatalf("n=%d: orient has no leader output to fix:\n%s", n, got)
		}
		if (n != size) != strings.Contains(got, "note: ring size adjusted to 3") {
			t.Fatalf("n=%d: FixSize note wrong:\n%s", n, got)
		}
	}
}
