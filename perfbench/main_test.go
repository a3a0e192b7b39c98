package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json this test checks the
// printed metrics against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloadsReportEveryMetric runs each workload briefly, untraced and
// traced, and checks that the oracle passed and that exactly the metrics
// BENCHMARK.json names are printed, each with its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg benchmarkFile
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark drives %d", len(cfg.Workloads), len(workloads))
	}
	for _, w := range cfg.Workloads {
		for _, traced := range []bool{false, true} {
			want := cfg.EndToEnd
			if traced {
				want = cfg.PerLayer
			}
			res, prov, err := runWorkload(w.Name, 7, 100*time.Millisecond, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: oracle failed %d of %d checks", w.Name, traced, res.Failed, res.Attempted)
			}
			if prov.NProc < 1 || prov.GOMAXPROCS < 1 || prov.GoVersion == "" || prov.Seed != 7 {
				t.Errorf("%s: incomplete provenance %+v", w.Name, prov)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s printed in %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

func TestSelfMillisSubtractsMergedChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("round", 0, at(0), at(100))
	tr.add("trial", root, at(10), at(50))
	tr.add("trial", root, at(30), at(70)) // overlaps the first: 10–70 covered
	tr.add("sink", root, at(90), at(120)) // clipped to the round: 90–100
	self := tr.selfMillis()
	if got := self["round"]; got < 29.99 || got > 30.01 {
		t.Errorf("round self time %v ms, want 30", got)
	}
	if got := self["trial"]; got < 79.99 || got > 80.01 {
		t.Errorf("trial self time %v ms, want 80", got)
	}
}
