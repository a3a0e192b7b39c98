// Command bench emits the repository's performance baseline,
// BENCH_ringsim.json: steps per second for every requested protocol ×
// ring size × scenario cell, in five engine modes — the raw generic
// Engine.Run transition loop (no convergence judgement; the mode keeps its
// historical name "runbatch"), the incremental-tracker run to
// convergence, the interned table-lookup run over warm tables, the
// "lanes" mode — a batch of eight same-cell trials sharing one
// transition-table set, run back to back, whose steps/sec aggregates the
// batch — and the "cold" mode, one whole Protocol.Trial from empty
// tables, the path every user trial takes — plus a "recovery" mode that
// injects a mid-run fault burst through the public Trial API and records
// the exact number of steps the protocol needed to re-converge, and an
// "eclipse" mode that partitions the ring (an eclipse scheduler kills
// n/4 arcs for 2n² steps) and records the steps from the window closing
// to re-convergence. CI uploads
// the file as an artifact on every push and gates regressions against the
// committed BENCH_baseline.json, so the perf trajectory of the engine is
// recorded and enforced from this change on.
//
// Usage:
//
//	bench [-protocols ppl,yokota,...] [-sizes 16,32,64] [-scenarios random]
//	      [-modes runbatch,tracked,interned,lanes,cold,recovery,eclipse]
//	      [-trials 3] [-bestof 3] [-seed 1] [-rawsteps 2000000] [-ccmax 8]
//	      [-maxstates 0] [-quick]
//	      [-o BENCH_ringsim.json] [-records FILE]
//	bench -compare [-gate] [-max-tracked-regress 0.20] [-max-recovery-drift 0.05]
//	      old.json new.json
//
// -bestof times every (cell, seed) measurement k times and keeps the
// fastest, so gate thresholds are not dominated by scheduler noise; the
// value is recorded in the JSON envelope. -records additionally streams
// every measurement as a TrialRecord JSONL line — the same record schema
// sweep/ringsim emit — with the mode and scenario as tags and
// seconds/steps_per_sec as observables, so perf and convergence artifacts
// share one consumer pipeline.
//
// -compare reads two baseline files and prints per-cell steps/sec ratios
// (new/old). With -gate it exits non-zero when the tracked-, interned- or
// lanes-mode throughput — each normalized by the same file's runbatch
// throughput, so baselines recorded on different machines stay comparable,
// and each gated by its own geomean so the table-lookup layer cannot hide
// behind the tracked engine — regresses by more than -max-tracked-regress,
// or when mean recovery steps (a machine-independent, deterministic count)
// drift by more than -max-recovery-drift.
//
// The schema of the emitted file is stable ("repro.bench/v1"): an
// envelope with the Go/OS/arch/CPU provenance and a flat results array,
// one record per (protocol, n, scenario, mode, seed) measurement.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro"
)

// Schema identifies the BENCH_ringsim.json layout; bump it only with the
// consumers (CI trend tooling) in hand.
const Schema = "repro.bench/v1"

// File is the envelope of BENCH_ringsim.json.
type File struct {
	Schema  string              `json:"schema"`
	Created string              `json:"created"`
	Go      string              `json:"go"`
	OS      string              `json:"os"`
	Arch    string              `json:"arch"`
	CPUs    int                 `json:"cpus"`
	BestOf  int                 `json:"bestof"`
	Results []repro.BenchResult `json:"results"`
}

// config carries one emit run's settings.
type config struct {
	protocols string
	sizes     string
	scenarios string
	modes     string
	trials    int
	bestOf    int
	seed      uint64
	rawSteps  uint64
	ccmax     int
	maxStates int
	out       string
	records   string
}

func main() {
	var (
		cfg        config
		compare    = flag.Bool("compare", false, "compare two baseline files (positional args: old.json new.json) instead of emitting one")
		gate       = flag.Bool("gate", false, "with -compare: exit non-zero on threshold violations")
		maxTrack   = flag.Float64("max-tracked-regress", 0.20, "with -gate: max allowed regression of normalized tracked-mode steps/sec")
		maxRecov   = flag.Float64("max-recovery-drift", 0.05, "with -gate: max allowed drift of mean recovery steps")
		quick      = flag.Bool("quick", false, "CI smoke preset: sizes 8,16, one trial, bestof 2, 200k raw steps")
		protocols  = flag.String("protocols", "ppl,yokota,angluin,fj,orient,chenchen", "comma-separated registered protocol names")
		sizes      = flag.String("sizes", "16,32,64", "comma-separated ring sizes")
		scenarios  = flag.String("scenarios", "random", "comma-separated init classes (non-ppl protocols skip all but random)")
		modes      = flag.String("modes", "runbatch,tracked,interned,lanes,cold,recovery,eclipse", "comma-separated modes: runbatch, tracked, interned, lanes, cold, recovery, eclipse")
		trials     = flag.Int("trials", 3, "measurements per cell (seeds seed..seed+trials-1)")
		bestOf     = flag.Int("bestof", 3, "timings per measurement; the fastest is kept")
		seed       = flag.Uint64("seed", 1, "first scheduler seed")
		rawSteps   = flag.Uint64("rawsteps", 2_000_000, "step budget of the runbatch mode")
		ccmax      = flag.Int("ccmax", 8, "largest size for the [11]-style baseline (exponential class)")
		maxStates  = flag.Int("maxstates", 0, "interner capacity cap for every cell (0: engine default)")
		out        = flag.String("o", "", "output path (default: stdout)")
		records    = flag.String("records", "", "also stream each measurement as a TrialRecord JSONL line to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the measurement loop to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile (taken after all measurements) to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
		}()
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		ok, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *gate, *maxTrack, *maxRecov)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *quick {
		*sizes = "8,16"
		*trials = 1
		*bestOf = 2
		*rawSteps = 200_000
	}
	cfg = config{
		protocols: *protocols, sizes: *sizes, scenarios: *scenarios, modes: *modes,
		trials: *trials, bestOf: *bestOf, seed: *seed, rawSteps: *rawSteps,
		ccmax: *ccmax, maxStates: *maxStates, out: *out, records: *records,
	}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// measure runs one (protocol, n, scenario, mode, seed) measurement bestOf
// times and returns the fastest row (the row whose timing is least
// polluted by scheduler noise; steps are identical across repeats because
// the seed pins the trajectory).
func measure(name string, n int, seed uint64, sc repro.Scenario, mode string, rawSteps uint64, bestOf int) (repro.BenchResult, error) {
	var best repro.BenchResult
	for i := 0; i < bestOf; i++ {
		var res repro.BenchResult
		var err error
		switch mode {
		case "recovery":
			res, err = measureRecovery(name, n, seed, sc)
		case "eclipse":
			res, err = measureEclipse(name, n, seed, sc)
		default:
			res, err = repro.RunBenchmark(name, n, seed, sc, repro.BenchMode(mode), rawSteps)
		}
		if err != nil {
			return repro.BenchResult{}, err
		}
		if i == 0 || res.Seconds < best.Seconds {
			best = res
		}
	}
	return best, nil
}

// measureRecovery times a full trial with a single mid-run fault burst at
// step 4n² corrupting n/8 agents (at least one), and reports the exact
// number of steps from the burst to re-convergence — a machine-independent
// count (the trial is deterministic in the seed), which is what makes it
// gateable across baseline machines.
func measureRecovery(name string, n int, seed uint64, sc repro.Scenario) (repro.BenchResult, error) {
	p, err := repro.NewProtocol(name)
	if err != nil {
		return repro.BenchResult{}, err
	}
	n = p.FixSize(n)
	at := 4 * uint64(n) * uint64(n)
	agents := n / 8
	if agents < 1 {
		agents = 1
	}
	sc.Faults = []repro.Fault{{AtStep: at, Agents: agents}}
	if err := p.Validate(sc); err != nil {
		return repro.BenchResult{}, err
	}
	start := time.Now()
	res, err := p.Trial(sc, n, seed)
	if err != nil {
		return repro.BenchResult{}, err
	}
	seconds := time.Since(start).Seconds()
	recovery := uint64(0)
	if res.Steps > at {
		recovery = res.Steps - at
	}
	out := repro.BenchResult{
		Protocol: name, N: n, Scenario: sc.Init.String(), Mode: "recovery", Seed: seed,
		Steps: recovery, Seconds: seconds, Converged: res.Converged,
	}
	if seconds > 0 {
		out.StepsPerSec = float64(recovery) / seconds
	}
	return out, nil
}

// measureEclipse times a full trial under an eclipse scheduler — a dead
// interval of n/4 arcs (at least one) opening at step 1 and lasting 2n²
// steps, with a period beyond any budget so exactly one window fires —
// and reports the eclipse_recovery_steps observable: the exact number of
// steps from the window closing to convergence. Like recovery, the count
// is deterministic in the seed and therefore machine-independent. Trials
// that converge inside the window (possible at tiny sizes: the partition
// only slows interactions on the surviving arcs) report zero steps.
func measureEclipse(name string, n int, seed uint64, sc repro.Scenario) (repro.BenchResult, error) {
	p, err := repro.NewProtocol(name)
	if err != nil {
		return repro.BenchResult{}, err
	}
	n = p.FixSize(n)
	arcs := n / 4
	if arcs < 1 {
		arcs = 1
	}
	sc.Sched = &repro.SchedulerSpec{
		Kind:     "eclipse",
		Start:    1,
		Period:   1 << 40,
		Duration: 2 * uint64(n) * uint64(n),
		Arcs:     arcs,
	}
	if err := p.Validate(sc); err != nil {
		return repro.BenchResult{}, err
	}
	probe := &repro.RecordingProbe{}
	start := time.Now()
	res, err := repro.ProbeTrial(p, sc, n, seed, probe)
	if err != nil {
		return repro.BenchResult{}, err
	}
	seconds := time.Since(start).Seconds()
	recovery := uint64(probe.Record().Observables["eclipse_recovery_steps"])
	out := repro.BenchResult{
		Protocol: name, N: n, Scenario: sc.Init.String(), Mode: "eclipse", Seed: seed,
		Steps: recovery, Seconds: seconds, Converged: res.Converged,
	}
	if seconds > 0 {
		out.StepsPerSec = float64(recovery) / seconds
	}
	return out, nil
}

func run(stdout io.Writer, cfg config) error {
	ns, err := parseSizes(cfg.sizes)
	if err != nil {
		return err
	}
	if cfg.trials < 1 {
		return fmt.Errorf("need at least one trial, got %d", cfg.trials)
	}
	if cfg.bestOf < 1 {
		return fmt.Errorf("need bestof >= 1, got %d", cfg.bestOf)
	}
	var sink *repro.JSONLSink
	if cfg.records != "" {
		sink, err = repro.CreateJSONL(cfg.records)
		if err != nil {
			return err
		}
		defer sink.Close()
	}
	file := File{
		Schema:  Schema,
		Created: time.Now().UTC().Format(time.RFC3339),
		Go:      runtime.Version(),
		OS:      runtime.GOOS,
		Arch:    runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		BestOf:  cfg.bestOf,
	}
	for _, name := range split(cfg.protocols) {
		p, err := repro.NewProtocol(name)
		if err != nil {
			return err
		}
		for _, class := range split(cfg.scenarios) {
			init, err := repro.ParseInitClass(class)
			if err != nil {
				return err
			}
			sc := repro.Scenario{Init: init, MaxStates: cfg.maxStates}
			if err := p.Validate(sc); err != nil {
				// Scenario unsupported by this protocol (e.g. noleader on
				// a baseline): skip the cell, not the run.
				fmt.Fprintf(stdout, "## skipping %s × %s: %v\n", name, class, err)
				continue
			}
			for _, n := range ns {
				if name == "chenchen" && n > cfg.ccmax {
					fmt.Fprintf(stdout, "## skipping chenchen n=%d (> -ccmax %d, exponential class)\n", n, cfg.ccmax)
					continue
				}
				for _, mode := range split(cfg.modes) {
					for t := 0; t < cfg.trials; t++ {
						res, err := measure(name, n, cfg.seed+uint64(t), sc, mode, cfg.rawSteps, cfg.bestOf)
						if err != nil {
							return err
						}
						file.Results = append(file.Results, res)
						if sink != nil {
							if err := sink.Record(res.Record()); err != nil {
								return err
							}
						}
						note := ""
						if res.Fallback {
							note = " (fallback)"
						}
						fmt.Fprintf(stdout, "%-9s n=%-4d %-12s %-9s steps=%-9d %10.0f steps/sec%s\n",
							name, res.N, class, mode, res.Steps, res.StepsPerSec, note)
					}
				}
			}
		}
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d records)\n", cfg.records, sink.Count())
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if cfg.out == "" {
		_, err = stdout.Write(data)
		return err
	}
	if err := os.WriteFile(cfg.out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d results)\n", cfg.out, len(file.Results))
	return nil
}

func split(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range split(s) {
		n, err := strconv.Atoi(part)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}
