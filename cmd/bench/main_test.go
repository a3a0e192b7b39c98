package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func testConfig(out string) config {
	return config{
		protocols: "ppl,yokota",
		sizes:     "8",
		scenarios: "random",
		modes:     "runbatch,tracked,interned",
		trials:    1,
		bestOf:    1,
		seed:      1,
		rawSteps:  5000,
		ccmax:     8,
		out:       out,
	}
}

// TestBenchEmitsStableSchema runs a tiny full pipeline and pins the
// BENCH_ringsim.json schema CI consumes: envelope fields, schema tag, and
// per-result fields present and sane — now including the interned mode and
// the bestof envelope field.
func TestBenchEmitsStableSchema(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_ringsim.json")
	var stdout bytes.Buffer
	cfg := testConfig(out)
	cfg.bestOf = 2
	if err := run(&stdout, cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("artifact does not parse: %v\n%s", err, data)
	}
	if f.Schema != Schema {
		t.Fatalf("schema tag %q, want %q", f.Schema, Schema)
	}
	if f.Go == "" || f.OS == "" || f.Arch == "" || f.CPUs < 1 || f.Created == "" {
		t.Fatalf("incomplete provenance: %+v", f)
	}
	if f.BestOf != 2 {
		t.Fatalf("bestof %d not recorded in envelope", f.BestOf)
	}
	// 2 protocols × 1 size × 3 modes × 1 trial.
	if len(f.Results) != 6 {
		t.Fatalf("got %d results, want 6:\n%s", len(f.Results), data)
	}
	interned := 0
	for _, r := range f.Results {
		if r.Protocol == "" || r.N != 8 || r.Steps == 0 || r.Seconds < 0 || !r.Converged {
			t.Fatalf("degenerate result %+v", r)
		}
		switch r.Mode {
		case "runbatch", "tracked":
		case "interned":
			interned++
			if r.Fallback {
				t.Fatalf("n=8 interned run fell back: %+v", r)
			}
		default:
			t.Fatalf("unknown mode in artifact: %+v", r)
		}
	}
	if interned != 2 {
		t.Fatalf("want 2 interned rows, got %d", interned)
	}
}

// TestBenchRecoveryMode pins the recovery rows: a mid-run burst at 4n²,
// recovery measured as exact steps from burst to re-convergence, and —
// because trials are deterministic in the seed — identical step counts on
// repeated runs (the property the CI drift gate relies on).
func TestBenchRecoveryMode(t *testing.T) {
	emit := func(path string) File {
		var stdout bytes.Buffer
		cfg := testConfig(path)
		cfg.protocols = "ppl"
		cfg.modes = "recovery"
		cfg.trials = 2
		if err := run(&stdout, cfg); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var f File
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatal(err)
		}
		return f
	}
	dir := t.TempDir()
	a := emit(filepath.Join(dir, "a.json"))
	b := emit(filepath.Join(dir, "b.json"))
	if len(a.Results) != 2 || len(b.Results) != 2 {
		t.Fatalf("want 2 recovery rows per file, got %d and %d", len(a.Results), len(b.Results))
	}
	for i, r := range a.Results {
		if r.Mode != "recovery" || !r.Converged {
			t.Fatalf("bad recovery row %+v", r)
		}
		if r.Steps == 0 {
			t.Fatalf("zero recovery steps: %+v", r)
		}
		if b.Results[i].Steps != r.Steps {
			t.Fatalf("recovery steps not deterministic: %d vs %d", r.Steps, b.Results[i].Steps)
		}
	}
}

// compareFixture writes a synthetic baseline with one tracked, one
// runbatch and one recovery row for the same cell.
func compareFixture(t *testing.T, dir, name string, trackedSPS, rawSPS float64, recoverySteps uint64) string {
	t.Helper()
	row := func(mode string, sps float64, steps uint64) map[string]interface{} {
		return map[string]interface{}{
			"protocol": "ppl", "n": 8, "scenario": "random", "mode": mode,
			"seed": 1, "steps": steps, "seconds": 1.0, "steps_per_sec": sps, "converged": true,
		}
	}
	shape := map[string]interface{}{
		"schema": Schema, "created": "t", "go": "g", "os": "o", "arch": "a", "cpus": 1, "bestof": 1,
		"results": []interface{}{
			row("tracked", trackedSPS, 1000),
			row("runbatch", rawSPS, 5000),
			row("recovery", 100, recoverySteps),
		},
	}
	data, err := json.MarshalIndent(shape, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBenchCompareGate pins the -compare subcommand: ratio table, the
// normalized tracked-throughput gate (machine-independent: tracked
// steps/sec divided by the same file's runbatch steps/sec) and the
// recovery-drift gate.
func TestBenchCompareGate(t *testing.T) {
	dir := t.TempDir()
	oldPath := compareFixture(t, dir, "old.json", 1000, 10000, 4000)

	// Same efficiency on a machine 2× faster, same recovery: gate passes.
	var buf bytes.Buffer
	ok, err := runCompare(&buf, oldPath, compareFixture(t, dir, "same.json", 2000, 20000, 4000), true, 0.20, 0.05)
	if err != nil || !ok {
		t.Fatalf("clean compare failed: ok=%v err=%v\n%s", ok, err, buf.String())
	}
	if !bytes.Contains(buf.Bytes(), []byte("GATE PASS")) {
		t.Fatalf("no GATE PASS:\n%s", buf.String())
	}
	// Tracked efficiency halved: gate fails even though raw tracked
	// steps/sec rose (the new machine is just 3× faster).
	buf.Reset()
	ok, err = runCompare(&buf, oldPath, compareFixture(t, dir, "slow.json", 1500, 30000, 4000), true, 0.20, 0.05)
	if err != nil || ok {
		t.Fatalf("tracked regression not gated: ok=%v err=%v\n%s", ok, err, buf.String())
	}
	// Recovery steps drifted 10%: gate fails.
	buf.Reset()
	ok, err = runCompare(&buf, oldPath, compareFixture(t, dir, "drift.json", 1000, 10000, 4400), true, 0.20, 0.05)
	if err != nil || ok {
		t.Fatalf("recovery drift not gated: ok=%v err=%v\n%s", ok, err, buf.String())
	}
	// Recovery regression from a zero baseline: gate fails, not skips.
	zeroPath := compareFixture(t, dir, "zero.json", 1000, 10000, 0)
	buf.Reset()
	ok, err = runCompare(&buf, zeroPath, compareFixture(t, dir, "fromzero.json", 1000, 10000, 500), true, 0.20, 0.05)
	if err != nil || ok {
		t.Fatalf("zero-baseline recovery regression not gated: ok=%v err=%v\n%s", ok, err, buf.String())
	}
	// A gated-mode cell disappearing from the new measurement fails the
	// gate instead of silently shrinking coverage. An n=9 fixture shares no
	// cell with the n=8 baseline, so every gated cell of old.json is lost.
	lost := compareFixture(t, dir, "lost.json", 1000, 10000, 4000)
	relabel, err := os.ReadFile(lost)
	if err != nil {
		t.Fatal(err)
	}
	relabel = bytes.ReplaceAll(relabel, []byte(`"n": 8`), []byte(`"n": 9`))
	if err := os.WriteFile(lost, relabel, 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err = runCompare(&buf, oldPath, lost, true, 0.20, 0.05); err == nil {
		t.Fatal("disjoint cells must error (no common cells)")
	}
	// With partial overlap (tracked cell kept, recovery cell lost) the gate
	// must fail on the lost coverage.
	partial := compareFixture(t, dir, "partial.json", 1000, 10000, 4000)
	pdata, err := os.ReadFile(partial)
	if err != nil {
		t.Fatal(err)
	}
	pdata = bytes.ReplaceAll(pdata, []byte(`"mode": "recovery"`), []byte(`"mode": "recovery-renamed"`))
	if err := os.WriteFile(partial, pdata, 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	ok, err = runCompare(&buf, oldPath, partial, true, 0.20, 0.05)
	if err != nil || ok {
		t.Fatalf("lost gated coverage not gated: ok=%v err=%v\n%s", ok, err, buf.String())
	}
	// A deterministic field moved: one more step on the tracked row fails
	// the gate, although every throughput is unchanged.
	doctored := compareFixture(t, dir, "doctored.json", 1000, 10000, 4000)
	ddata, err := os.ReadFile(doctored)
	if err != nil {
		t.Fatal(err)
	}
	ddata = bytes.Replace(ddata, []byte(`"steps": 1000,`), []byte(`"steps": 1001,`), 1)
	if err := os.WriteFile(doctored, ddata, 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	ok, err = runCompare(&buf, oldPath, doctored, true, 0.20, 0.05)
	if err != nil || ok || !bytes.Contains(buf.Bytes(), []byte("steps 1000 → 1001")) {
		t.Fatalf("changed steps not gated: ok=%v err=%v\n%s", ok, err, buf.String())
	}
	// Without -gate the same comparison only reports.
	buf.Reset()
	ok, err = runCompare(&buf, oldPath, compareFixture(t, dir, "drift2.json", 1000, 10000, 4400), false, 0.20, 0.05)
	if err != nil || !ok {
		t.Fatalf("ungated compare failed: ok=%v err=%v", ok, err)
	}
}

// TestBenchSkipsUnsupportedScenario pins the skip-not-fail contract for
// scenario × protocol combinations the protocol rejects.
func TestBenchSkipsUnsupportedScenario(t *testing.T) {
	var stdout bytes.Buffer
	cfg := testConfig(filepath.Join(t.TempDir(), "b.json"))
	cfg.protocols = "yokota"
	cfg.scenarios = "noleader"
	cfg.modes = "tracked"
	if err := run(&stdout, cfg); err != nil {
		t.Fatalf("unsupported scenario must skip, not fail: %v", err)
	}
	if !bytes.Contains(stdout.Bytes(), []byte("skipping")) {
		t.Fatalf("no skip notice:\n%s", stdout.String())
	}
}

func TestBenchRejectsBadInput(t *testing.T) {
	var stdout bytes.Buffer
	bad := func(mutate func(*config)) config {
		cfg := testConfig("")
		cfg.protocols = "ppl"
		cfg.modes = "tracked"
		cfg.rawSteps = 10
		mutate(&cfg)
		return cfg
	}
	if err := run(&stdout, bad(func(c *config) { c.sizes = "1" })); err == nil {
		t.Fatal("size 1 accepted")
	}
	if err := run(&stdout, bad(func(c *config) { c.protocols = "paxos" })); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if err := run(&stdout, bad(func(c *config) { c.modes = "warp" })); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if err := run(&stdout, bad(func(c *config) { c.scenarios = "bogus" })); err == nil {
		t.Fatal("unknown init class accepted")
	}
	if err := run(&stdout, bad(func(c *config) { c.bestOf = 0 })); err == nil {
		t.Fatal("bestof 0 accepted")
	}
}
