package main

// The -compare subcommand: per-cell throughput ratios between two baseline
// files, plus the metric gates CI enforces against the committed
// BENCH_baseline.json.
//
// Gating raw steps/sec across machines would be meaningless — a laptop
// baseline vs a CI runner measures the hardware, not the code — so the
// tracked-mode gate normalizes each file's tracked throughput by the same
// file's runbatch throughput for the same (protocol, n, scenario) cell:
// the resulting "tracking efficiency" is a dimensionless property of the
// engine that transfers across machines. Recovery steps need no
// normalization at all: they are deterministic counts, identical on every
// machine, so any drift is a semantic change in the engine or protocols.
// The same holds row by row for the steps, converged and fallback fields
// of the raw and convergence modes: a row that moves between the two files
// is a changed result.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro"
)

// cellKey identifies a comparable measurement cell.
type cellKey struct {
	Protocol string
	N        int
	Scenario string
	Mode     string
}

// cellStats aggregates one file's rows for a cell.
type cellStats struct {
	meanSPS   float64 // mean steps/sec across trials
	meanSteps float64 // mean steps across trials
	rows      int
}

// loadBaseline reads a baseline file's rows and aggregates them per cell.
func loadBaseline(path string) (map[cellKey]cellStats, []repro.BenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, nil, fmt.Errorf("%s: %v", path, err)
	}
	if f.Schema != Schema {
		return nil, nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, Schema)
	}
	cells := make(map[cellKey]cellStats)
	for _, r := range f.Results {
		k := keyOf(r)
		s := cells[k]
		s.meanSPS += r.StepsPerSec
		s.meanSteps += float64(r.Steps)
		s.rows++
		cells[k] = s
	}
	for k, s := range cells {
		s.meanSPS /= float64(s.rows)
		s.meanSteps /= float64(s.rows)
		cells[k] = s
	}
	return cells, f.Results, nil
}

func keyOf(r repro.BenchResult) cellKey {
	return cellKey{r.Protocol, r.N, r.Scenario, string(r.Mode)}
}

// deterministicModes are the modes whose rows' steps, converged and
// fallback are pure functions of the cell and the seed.
var deterministicModes = map[repro.BenchMode]bool{
	repro.BenchRaw: true, repro.BenchTracked: true, repro.BenchInterned: true,
	repro.BenchLanes: true, repro.BenchCold: true,
}

// changedRows describes each deterministic-mode row present in both files
// (same cell and seed) whose steps, converged or fallback differ.
func changedRows(oldRows, newRows []repro.BenchResult) []string {
	type rowKey struct {
		cellKey
		seed uint64
	}
	old := make(map[rowKey]repro.BenchResult)
	for _, r := range oldRows {
		if deterministicModes[r.Mode] {
			old[rowKey{keyOf(r), r.Seed}] = r
		}
	}
	var out []string
	for _, r := range newRows {
		o, ok := old[rowKey{keyOf(r), r.Seed}]
		if ok && (o.Steps != r.Steps || o.Converged != r.Converged || o.Fallback != r.Fallback) {
			out = append(out, fmt.Sprintf("%s n=%d %s %s seed=%d: steps %d → %d, converged %v → %v, fallback %v → %v",
				r.Protocol, r.N, r.Scenario, r.Mode, r.Seed, o.Steps, r.Steps, o.Converged, r.Converged, o.Fallback, r.Fallback))
		}
	}
	return out
}

// runCompare prints the per-cell ratio table and, when gate is set,
// evaluates the regression thresholds. It returns ok=false when a gate
// fails.
func runCompare(stdout io.Writer, oldPath, newPath string, gate bool, maxTrackedRegress, maxRecoveryDrift float64) (bool, error) {
	oldCells, oldRows, err := loadBaseline(oldPath)
	if err != nil {
		return false, err
	}
	newCells, newRows, err := loadBaseline(newPath)
	if err != nil {
		return false, err
	}

	var keys []cellKey
	for k := range newCells {
		if _, ok := oldCells[k]; ok {
			keys = append(keys, k)
		}
	}
	// Baseline cells the new measurement no longer covers would otherwise
	// vanish from both gate loops — a renamed mode or a FixSize change
	// could silently un-gate a whole protocol. Report them, and under
	// -gate treat missing gated-mode coverage as a failure.
	var missing []cellKey
	for k := range oldCells {
		if _, ok := newCells[k]; !ok {
			missing = append(missing, k)
		}
	}
	sort.Slice(missing, func(i, j int) bool {
		return fmt.Sprint(missing[i]) < fmt.Sprint(missing[j])
	})
	lostGated := false
	for _, k := range missing {
		fmt.Fprintf(stdout, "## baseline cell missing from %s: %s n=%d %s %s\n",
			newPath, k.Protocol, k.N, k.Scenario, k.Mode)
		switch k.Mode {
		case string(repro.BenchTracked), string(repro.BenchInterned), string(repro.BenchLanes), "recovery":
			lostGated = true
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Protocol != b.Protocol {
			return a.Protocol < b.Protocol
		}
		if a.N != b.N {
			return a.N < b.N
		}
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		return a.Mode < b.Mode
	})
	if len(keys) == 0 {
		return false, fmt.Errorf("no common cells between %s and %s", oldPath, newPath)
	}

	fmt.Fprintf(stdout, "%-9s %-5s %-12s %-9s %14s %14s %7s\n",
		"protocol", "n", "scenario", "mode", "old steps/sec", "new steps/sec", "ratio")
	for _, k := range keys {
		o, n := oldCells[k], newCells[k]
		ratio := math.NaN()
		if o.meanSPS > 0 {
			ratio = n.meanSPS / o.meanSPS
		}
		fmt.Fprintf(stdout, "%-9s %-5d %-12s %-9s %14.0f %14.0f %7.2f\n",
			k.Protocol, k.N, k.Scenario, k.Mode, o.meanSPS, n.meanSPS, ratio)
	}

	ok := true
	if gate && lostGated {
		fmt.Fprintln(stdout, "GATE FAIL: gated baseline cells (tracked/interned/lanes/recovery) missing from the new measurement")
		ok = false
	}
	// Gate 1: normalized engine throughput, once per convergence-engine
	// mode — tracked, interned and lanes each carry their own envelope, so
	// a regression in the table-lookup layer cannot hide behind the
	// tracked engine (or vice versa). Geometric mean across every cell
	// with both the mode's row and a runbatch row in both files, so a
	// single noisy cell cannot fail the build on its own while a broad
	// regression cannot hide behind one improved cell either.
	fmt.Fprintln(stdout)
	for _, mode := range []string{string(repro.BenchTracked), string(repro.BenchInterned), string(repro.BenchLanes)} {
		logSum, cells := 0.0, 0
		for _, k := range keys {
			if k.Mode != mode {
				continue
			}
			rawKey := cellKey{k.Protocol, k.N, k.Scenario, string(repro.BenchRaw)}
			oRaw, okO := oldCells[rawKey]
			nRaw, okN := newCells[rawKey]
			if !okO || !okN || oRaw.meanSPS <= 0 || nRaw.meanSPS <= 0 || oldCells[k].meanSPS <= 0 || newCells[k].meanSPS <= 0 {
				continue
			}
			oldNorm := oldCells[k].meanSPS / oRaw.meanSPS
			newNorm := newCells[k].meanSPS / nRaw.meanSPS
			logSum += math.Log(newNorm / oldNorm)
			cells++
		}
		if cells == 0 {
			// Only the tracked mode is mandatory: the seed baseline predates
			// the interned and lanes modes, and -compare must keep working
			// against it.
			if gate && mode == string(repro.BenchTracked) {
				fmt.Fprintf(stdout, "GATE WARN: no common %s+runbatch cells; %s gate not evaluated\n", mode, mode)
			}
			continue
		}
		geo := math.Exp(logSum / float64(cells))
		fmt.Fprintf(stdout, "%s-mode efficiency (%s/runbatch, geomean over %d cells): %.3f× the old baseline\n", mode, mode, cells, geo)
		if gate && geo < 1-maxTrackedRegress {
			fmt.Fprintf(stdout, "GATE FAIL: %s-mode throughput regressed %.1f%% (> %.0f%% allowed)\n",
				mode, (1-geo)*100, maxTrackedRegress*100)
			ok = false
		}
	}

	// Gate 2: mean recovery steps, a deterministic machine-independent
	// count — per-cell, since a drift in any protocol's recovery semantics
	// is a bug regardless of the others.
	recovCells := 0
	for _, k := range keys {
		if k.Mode != "recovery" {
			continue
		}
		recovCells++
		o, n := oldCells[k], newCells[k]
		if o.meanSteps <= 0 {
			// A zero baseline admits no ratio; any nonzero regression from
			// it is an unbounded drift, not a cell to skip silently.
			if n.meanSteps > 0 {
				fmt.Fprintf(stdout, "recovery drift %s n=%d %s: 0 → %.0f steps\n",
					k.Protocol, k.N, k.Scenario, n.meanSteps)
				if gate {
					fmt.Fprintln(stdout, "GATE FAIL: recovery steps regressed from a zero baseline")
					ok = false
				}
			}
			continue
		}
		drift := n.meanSteps/o.meanSteps - 1
		if math.Abs(drift) > maxRecoveryDrift {
			fmt.Fprintf(stdout, "recovery drift %s n=%d %s: %.0f → %.0f steps (%+.1f%%)\n",
				k.Protocol, k.N, k.Scenario, o.meanSteps, n.meanSteps, drift*100)
			if gate {
				fmt.Fprintf(stdout, "GATE FAIL: mean recovery steps drifted %.1f%% (> %.0f%% allowed)\n",
					math.Abs(drift)*100, maxRecoveryDrift*100)
				ok = false
			}
		}
	}
	if gate && recovCells == 0 {
		fmt.Fprintln(stdout, "GATE WARN: no common recovery cells; recovery gate not evaluated")
	}

	// Gate 3: the deterministic fields, row by row — machine-independent
	// like recovery steps, so any change is a changed result.
	changed := changedRows(oldRows, newRows)
	for _, line := range changed {
		fmt.Fprintf(stdout, "result changed %s\n", line)
	}
	if gate && len(changed) > 0 {
		fmt.Fprintf(stdout, "GATE FAIL: %d rows changed steps, converged or fallback\n", len(changed))
		ok = false
	}
	if gate && ok {
		fmt.Fprintln(stdout, "GATE PASS")
	}
	return ok, nil
}
