// Command sweep runs the full experiment suite (E1–E14) and prints a
// markdown report; protocol rows run through the public repro.Experiment
// API.
//
// Every trial-driving section fans its independent trials out across the
// internal/runner worker pool; per-trial seeds are derived deterministically
// from the trial index, so the report is identical whatever the worker
// count — parallelism only changes wall-clock time.
//
// Usage:
//
//	sweep                 full profile (minutes)
//	sweep -quick          reduced sizes/trials (tens of seconds)
//	sweep -only E8        run a single experiment section (E1..E14)
//	sweep -workers 4      cap the trial worker pool (default: all cores)
//	sweep -json FILE      also write the E1 Table 1 report as JSON
//	sweep -csv FILE       also write the E1 Table 1 report as CSV
//	sweep -record FILE    also stream the E1 per-trial records as JSONL
//	sweep -maxstates K    cap the interned engine's state interner at K
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/lottery"
	"repro/internal/orient"
	"repro/internal/population"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/twohop"
	"repro/internal/xrand"
)

type profile struct {
	table1Sizes  []int
	table1Trials int
	deepSizes    []int
	deepTrials   int
	orientSizes  []int
	trials       int
}

// pool is the worker-pool configuration shared by every section; set from
// the -workers flag in main.
var pool runner.Options

// table1Report holds the E1 report for the -json/-csv artifact writers.
var table1Report *repro.Report

// recordPath is the -record destination; E1 streams its TrialRecords
// there as trials finish.
var recordPath string

// maxInternStates is the -maxstates interner-capacity override applied to
// every section's scenarios (0 = engine default).
var maxInternStates int

// recordCount is the number of records E1 streamed to -record, -1 until
// the section runs.
var recordCount int64 = -1

func main() {
	quick := flag.Bool("quick", false, "reduced sizes and trial counts")
	only := flag.String("only", "", "run a single section (E1..E14)")
	workers := flag.Int("workers", 0, "trial worker-pool size (0 = all cores)")
	jsonPath := flag.String("json", "", "write the E1 Table 1 report as JSON to this file")
	csvPath := flag.String("csv", "", "write the E1 Table 1 report as CSV to this file")
	record := flag.String("record", "", "stream the E1 per-trial records as JSONL to this file")
	maxStates := flag.Int("maxstates", 0, "interner capacity cap per trial (0 = engine default; interned runs fall back to the generic engine past it)")
	flag.Parse()
	pool = runner.Options{Workers: *workers}
	recordPath = *record
	maxInternStates = *maxStates

	prof := profile{
		table1Sizes:  []int{16, 32, 64, 128},
		table1Trials: 5,
		deepSizes:    []int{64, 128, 256, 512, 1024},
		deepTrials:   5,
		orientSizes:  []int{32, 64, 128, 256, 512},
		trials:       10,
	}
	if *quick {
		prof = profile{
			table1Sizes:  []int{16, 32, 64},
			table1Trials: 3,
			deepSizes:    []int{32, 64, 128},
			deepTrials:   3,
			orientSizes:  []int{16, 32, 64},
			trials:       5,
		}
	}

	sections := []struct {
		id  string
		run func(profile)
	}{
		{"E1", e1Table1}, {"E3", e3Figure1}, {"E4", e4Figure2},
		{"E5", e5Lemma23}, {"E6", e6Lottery}, {"E7", e7Modes},
		{"E8", e8Theorem31}, {"E9", e9Orientation}, {"E10", e10Kappa},
		{"E11", e11Psi}, {"E12", e12Elimination}, {"E13", e13Closure},
		{"E14", e14Adversary},
	}
	start := time.Now()
	for _, s := range sections {
		if *only != "" && !strings.EqualFold(*only, s.id) {
			continue
		}
		s.run(prof)
	}
	writeReport(*jsonPath, *csvPath)
	fmt.Printf("\n_sweep completed in %v_\n", time.Since(start).Round(time.Second))
}

// writeReport writes the E1 report artifacts requested by -json/-csv.
func writeReport(jsonPath, csvPath string) {
	if recordPath != "" && recordCount < 0 {
		fmt.Fprintln(os.Stderr, "sweep: -record needs the E1 section (remove -only or use -only E1)")
		os.Exit(1)
	}
	if jsonPath == "" && csvPath == "" {
		return
	}
	if table1Report == nil {
		fmt.Fprintln(os.Stderr, "sweep: -json/-csv need the E1 section (remove -only or use -only E1)")
		os.Exit(1)
	}
	if jsonPath != "" {
		data, err := table1Report.JSON()
		check(err)
		check(os.WriteFile(jsonPath, data, 0o644))
	}
	if csvPath != "" {
		data, err := table1Report.CSV()
		check(err)
		check(os.WriteFile(csvPath, data, 0o644))
	}
}

func header(id, title string) {
	fmt.Printf("\n## %s — %s\n\n", id, title)
}

// check aborts the sweep on a trial-execution error (a cancelled context or
// a panicking trial surfaced by the runner pool).
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// sweepRow runs one protocol through the public Experiment API and returns
// its report row (cells in size order plus the fitted exponent).
func sweepRow(p repro.Protocol, sc repro.Scenario, sizes []int, trials int) repro.ReportRow {
	sc.MaxStates = maxInternStates
	rep, err := repro.NewExperiment().
		Protocols(p).
		Sizes(sizes...).
		Trials(trials).
		Scenario(sc).
		Workers(pool.Workers).
		Run(context.Background())
	check(err)
	return rep.Rows[0]
}

// normalizedBy divides each cell's mean steps by f(n) — flatness against a
// conjectured growth law.
func normalizedBy(cells []repro.ReportCell, f func(n int) float64) []float64 {
	var out []float64
	for _, c := range cells {
		if c.Steps.Count == 0 {
			continue
		}
		out = append(out, c.Steps.Mean/f(c.N))
	}
	return out
}

// cellMean returns the mean convergence steps of a cell, or 0 without data.
func cellMean(c repro.ReportCell) float64 {
	if c.Steps.Count == 0 {
		return 0
	}
	return c.Steps.Mean
}

// trialMeans runs trials of fn in parallel and returns the mean of the
// successful samples. fn must be a pure function of the trial index.
func trialMeans(trials int, fn func(trial int) (float64, bool)) float64 {
	type sample struct {
		v  float64
		ok bool
	}
	results, err := runner.Map(context.Background(), trials, func(t int) sample {
		v, ok := fn(t)
		return sample{v, ok}
	}, pool)
	check(err)
	var xs []float64
	for _, s := range results {
		if s.ok {
			xs = append(xs, s.v)
		}
	}
	return stats.Mean(xs)
}

// e1Table1 regenerates Table 1 (E1 time column, E2 states column) through
// the Experiment builder and keeps the structured report for -json/-csv.
func e1Table1(p profile) {
	header("E1/E2", "Table 1: convergence time and state count per protocol")
	exp := repro.NewExperiment().
		ProtocolNames("angluin", "fj", "chenchen", "yokota", "ppl").
		Sizes(p.table1Sizes...).
		Trials(p.table1Trials).
		MaxSizeFor("[11] Chen–Chen", 16).
		Workers(pool.Workers)
	var sink *repro.JSONLSink
	if recordPath != "" {
		var err error
		sink, err = repro.CreateJSONL(recordPath)
		check(err)
		exp.Sinks(sink) // Run closes (and flushes) the sink
	}
	rep, err := exp.Run(context.Background())
	check(err)
	if sink != nil {
		recordCount = sink.Count()
		fmt.Fprintf(os.Stderr, "sweep: streamed %d trial records to %s\n", recordCount, recordPath)
	}
	table1Report = rep
	fmt.Print(rep.Markdown())
	fmt.Println("\nBits per agent (E2, P_PL vs [28]):")
	fmt.Println("\n| n | P_PL bits | [28] bits |")
	fmt.Println("|---|---|---|")
	for _, n := range []int{1 << 6, 1 << 10, 1 << 14, 1 << 18} {
		ppl := core.NewParams(n).BitsPerAgent()
		yok := math.Log2(float64(2 * uint64(2*n+1) * 12))
		fmt.Printf("| %d | %.1f | %.1f |\n", n, ppl, yok)
	}
}

// e3Figure1 prints the Figure 1 embedding and the Lemma 3.2 search.
func e3Figure1(profile) {
	header("E3", "Figure 1: segment-ID embedding and Lemma 3.2")
	p := core.NewParams(16)
	fmt.Println("```")
	fmt.Print(p.FormatRing(p.PerfectConfig(0, 8)))
	fmt.Println("```")
	fmt.Printf("\nperfect configuration is in S_PL: %v\n", p.IsSafe(p.PerfectConfig(0, 8)))
	// Monte Carlo Lemma 3.2: random leaderless aligned configurations, one
	// independent seed per trial so the trials parallelize.
	var violations atomic.Int64
	const trials = 10000
	err := runner.ForEach(context.Background(), trials, func(i int) {
		rng := xrand.New(runner.DeriveSeed(1, i))
		cfg := make([]core.State, p.N)
		for j := range cfg {
			cfg[j] = core.State{Dist: uint16(j % p.TwoPsi()), B: uint8(rng.Intn(2))}
		}
		if !p.IsPerfect(cfg) {
			violations.Add(1)
		}
	}, pool)
	check(err)
	fmt.Printf("Lemma 3.2 Monte Carlo: %d/%d leaderless configurations imperfect (must be all)\n",
		violations.Load(), trials)
}

// e4Figure2 prints trajectory lengths.
func e4Figure2(profile) {
	header("E4", "Figure 2: token trajectory length = 2ψ²−2ψ+1")
	fmt.Println("| ψ | observed moves | 2ψ²−2ψ+1 | path matches Figure 2 zigzag |")
	fmt.Println("|---|---|---|---|")
	for _, psi := range []int{4, 5, 6, 7, 8} {
		positions, _, par := core.TrajectoryTrace(psi, 3)
		want := core.CanonicalZigzag(psi)
		match := len(positions) == len(want)
		for i := range want {
			if !match || positions[i] != want[i] {
				match = false
				break
			}
		}
		fmt.Printf("| %d | %d | %d | %v |\n", psi, len(positions)+1, par.TrajectoryLength(), match)
	}
}

// e5Lemma23 measures interaction-sequence occurrence times.
func e5Lemma23(p profile) {
	header("E5", "Lemma 2.3: seq_R(0, ℓ) occurs in ~nℓ steps")
	fmt.Println("| n | ℓ | mean steps | n·ℓ | ratio |")
	fmt.Println("|---|---|---|---|---|")
	for _, n := range []int{32, 128, 512} {
		for _, ell := range []int{n / 2, n, 2 * n} {
			schedule := population.ScheduleSeqR(n, 0, ell)
			base := uint64(n)*1_000_003 + uint64(ell)
			mean := trialMeans(p.trials, func(t int) (float64, bool) {
				rng := xrand.New(runner.DeriveSeed(base, t))
				return float64(population.OccurrenceTime(n, schedule, rng)), true
			})
			fmt.Printf("| %d | %d | %.0f | %d | %.3f |\n", n, ell, mean, n*ell, mean/float64(n*ell))
		}
	}
}

// e6Lottery estimates the Lemma 3.9/3.10 tail probabilities; the (k, c)
// grid cells are independent and run in parallel.
func e6Lottery(profile) {
	header("E6", "Lemmas 3.9/3.10: lottery game tail bounds")
	const trials = 4000
	type cell struct{ k, c int }
	var grid []cell
	for _, k := range []int{3, 4, 5, 6} {
		for _, c := range []int{1, 2} {
			grid = append(grid, cell{k, c})
		}
	}
	rows, err := runner.Map(context.Background(), len(grid), func(i int) string {
		k, c := grid[i].k, grid[i].c
		rng := xrand.New(runner.DeriveSeed(6, i))
		f39, b39 := lottery.Lemma39Params(k, c)
		f310, b310 := lottery.Lemma310Params(k, c)
		p39 := lottery.TailAtMost(k, f39, b39, trials, rng)
		p310 := lottery.TailAtLeast(k, f310, b310, trials, rng)
		bound := 1 - math.Pow(2, -float64(c*k))
		return fmt.Sprintf("| %d | %d | %.4f | %.4f | %.4f | %.4f |", k, c, p39, bound, p310, bound)
	}, pool)
	check(err)
	fmt.Println("| k | c | Pr(W ≤ 8ck in 4ck·2^k) | bound 1−2^−ck | Pr(W ≥ 16ck in 64ck·2^k) | bound |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, row := range rows {
		fmt.Println(row)
	}
}

// e7Modes measures Lemma 3.7: time for a leaderless ring to go all-Detect.
// Ring sizes with 2ψ | n keep the distance labels seam-free, so no leader
// can be created before the modes settle.
func e7Modes(p profile) {
	header("E7", "Lemmas 3.6/3.7: mode determination timing")
	fmt.Println("| n | mean steps to all-Detect (no leader) | steps/(n² log n) |")
	fmt.Println("|---|---|---|")
	sizes := []int{16, 48, 112}
	if len(p.deepSizes) < 4 {
		sizes = []int{16, 48} // quick profile
	}
	for _, n := range sizes {
		par := core.NewParams(n)
		pr := core.New(par)
		mean := trialMeans(p.deepTrials, func(t int) (float64, bool) {
			eng := population.NewEngine(population.DirectedRing(n), pr.Step, xrand.New(uint64(t)))
			cfg := par.NoLeaderAligned()
			for j := range cfg {
				cfg[j].Clock = 0
			}
			eng.SetStates(cfg)
			steps, ok := eng.RunUntil(func(c []core.State) bool {
				allDetect := true
				for _, s := range c {
					if s.Leader {
						return true
					}
					if par.Mode(s) != core.Detect {
						allDetect = false
					}
				}
				return allDetect
			}, n, 4000*uint64(n)*uint64(n)*uint64(par.Psi))
			return float64(steps), ok
		})
		fmt.Printf("| %d | %.0f | %.3f |\n", n, mean, mean/(float64(n)*float64(n)*math.Log2(float64(n))))
	}
}

// e8Theorem31 is the headline sweep: P_PL convergence and normalization.
func e8Theorem31(p profile) {
	header("E8", "Theorem 3.1: P_PL reaches S_PL in O(n² log n) steps")
	classes := []struct {
		name string
		init repro.InitClass
	}{
		{"random", repro.InitRandom},
		{"allleaders", repro.InitAllLeaders},
		{"corrupted", repro.InitCorrupted},
	}
	fmt.Println("| init class | " + sizesHeader(p.deepSizes) + " fitted exponent |")
	fmt.Println("|---|" + strings.Repeat("---|", len(p.deepSizes)+1))
	for _, cl := range classes {
		row := sweepRow(repro.PPL(0, 0), repro.Scenario{Init: cl.init}, p.deepSizes, p.deepTrials)
		fmt.Printf("| %s |", cl.name)
		for _, c := range row.Cells {
			fmt.Printf(" %.3g |", c.Steps.Mean)
		}
		fmt.Printf(" n^%.2f |\n", row.Exponent)
	}
	// The leaderless class behaves qualitatively differently depending on
	// whether 2ψ divides n: with a seam, the first distance wrap is an
	// instant witness; without one, only the token machinery can detect.
	// Report it on seam-free sizes where detection is genuinely hard.
	fmt.Println("\nLeaderless starts (all-Detect, aligned distances), seam-free sizes (2ψ | n):")
	fmt.Println("\n| n | mean steps | notes |")
	fmt.Println("|---|---|---|")
	for _, n := range []int{16, 48, 112, 256} {
		row := sweepRow(repro.PPL(0, 0), repro.Scenario{Init: repro.InitNoLeader}, []int{n}, p.deepTrials)
		fmt.Printf("| %d | %.3g | token-comparison detection + full reconstruction |\n",
			n, row.Cells[0].Steps.Mean)
	}
	// Normalized flatness for the random class.
	row := sweepRow(repro.PPL(0, 0), repro.Scenario{}, p.deepSizes, p.deepTrials)
	norm := normalizedBy(row.Cells, func(n int) float64 {
		return float64(n) * float64(n) * math.Log2(float64(n))
	})
	fmt.Printf("\nsteps/(n² log n), random class: %s — flat ⇒ the bound is tight up to constants.\n",
		floats(norm))
	// Contrast: [28] at the same sizes for the ×log n separation.
	yok := sweepRow(mustProtocol("yokota"), repro.Scenario{}, p.deepSizes, p.deepTrials)
	normY := normalizedBy(yok.Cells, func(n int) float64 { return float64(n) * float64(n) })
	fmt.Printf("steps/n², [28] baseline:        %s — flat ⇒ Θ(n²), the paper's separation.\n", floats(normY))
}

// e9Orientation measures Theorem 5.2.
func e9Orientation(p profile) {
	header("E9", "Theorem 5.2: ring orientation in O(n² log n) steps, O(1) states")
	fmt.Println("| n | mean steps | steps/(n² log n) |")
	fmt.Println("|---|---|---|")
	var xs, ys []float64
	for _, n := range p.orientSizes {
		colors := twohop.Coloring(n)
		pr := orient.New()
		mean := trialMeans(p.deepTrials, func(t int) (float64, bool) {
			eng := population.NewEngine(population.UndirectedRing(n), pr.Step, xrand.New(uint64(t)))
			eng.SetStates(orient.InitialConfig(colors, xrand.New(uint64(t)+500)))
			eng.SetTracker(population.NewRingTracker(orient.OrientedSpec()))
			steps, ok := eng.RunUntilConverged(6000 * uint64(n) * uint64(n))
			return float64(steps), ok
		})
		xs = append(xs, float64(n))
		ys = append(ys, mean)
		fmt.Printf("| %d | %.0f | %.3f |\n", n, mean, mean/(float64(n)*float64(n)*math.Log2(float64(n))))
	}
	fmt.Printf("\nfitted exponent: n^%.2f (paper: O(n² log n)); states/agent: %d (constant).\n",
		stats.PowerLawExponent(xs, ys), orient.StateCount(3))
}

// e10Kappa sweeps the κ_max multiplier. Random dense starts converge
// through elimination and construction only, so they are κ_max-blind; the
// detection-dominated cold leaderless start (clocks at zero, seam-free
// n = 48) exposes the linear κ_max cost of climbing to detection mode.
func e10Kappa(p profile) {
	header("E10", "Ablation: κ_max = c₁ψ (footnote 2)")
	n := 48 // ψ=6, 2ψ | n: distance labels are seam-free
	fmt.Println("| c₁ | steps to S_PL (random start) | steps to S_PL (cold leaderless) | failures |")
	fmt.Println("|---|---|---|---|")
	for _, c1 := range []int{2, 4, 8, 16, 32} {
		random := sweepRow(repro.PPL(0, c1), repro.Scenario{}, []int{n}, p.trials)
		cold := sweepRow(repro.PPL(0, c1), repro.Scenario{Init: repro.InitNoLeaderCold}, []int{n}, p.trials)
		fmt.Printf("| %d | %.3g | %.3g | %d |\n", c1,
			cellMean(random.Cells[0]), cellMean(cold.Cells[0]),
			random.Cells[0].Failures+cold.Cells[0].Failures)
	}
	fmt.Println("\nRandom starts are κ_max-insensitive (identical trajectories: the clock")
	fmt.Println("value only matters through detection mode, which dense starts never use);")
	fmt.Println("the cold leaderless start pays ~linearly for larger κ_max before it can detect.")
}

// e11Psi sweeps the knowledge slack.
func e11Psi(p profile) {
	header("E11", "Ablation: slack in ψ = ⌈log n⌉ + O(1)")
	n := 64
	fmt.Println("| slack | ψ | bits/agent | mean steps to S_PL |")
	fmt.Println("|---|---|---|---|")
	for _, slack := range []int{0, 1, 2, 4} {
		par := core.NewParamsSlack(n, slack, core.DefaultC1)
		row := sweepRow(repro.PPL(slack, 0), repro.Scenario{}, []int{n}, p.trials)
		fmt.Printf("| %d | %d | %.1f | %.3g |\n", slack, par.Psi, par.BitsPerAgent(), row.Cells[0].Steps.Mean)
	}
}

// e12Elimination measures the war from an all-leaders start.
func e12Elimination(p profile) {
	header("E12", "Lemma 4.11: EliminateLeaders reaches one leader in Θ(n²)-class time")
	fmt.Println("| n | mean steps to 1 leader | steps/n² |")
	fmt.Println("|---|---|---|")
	var xs, ys []float64
	for _, n := range p.deepSizes[:min(4, len(p.deepSizes))] {
		par := core.NewParams(n)
		pr := core.New(par)
		mean := trialMeans(p.deepTrials, func(t int) (float64, bool) {
			eng := population.NewEngine(population.DirectedRing(n), pr.Step, xrand.New(uint64(t)))
			eng.SetStates(par.AllLeaders())
			eng.TrackLeaders(core.IsLeader)
			// Exact hitting time of "one leader left": a one-channel
			// incremental count instead of a periodic O(n) re-scan.
			eng.SetTracker(population.NewRingTracker(population.RingSpec[core.State]{
				AgentMask: func(s core.State) uint8 {
					if s.Leader {
						return 1
					}
					return 0
				},
				Converged: func(c *population.LocalCounts, _ []core.State) bool {
					return c.Agent[0] == 1
				},
			}))
			steps, ok := eng.RunUntilConverged(4000 * uint64(n) * uint64(n))
			return float64(steps), ok
		})
		xs = append(xs, float64(n))
		ys = append(ys, mean)
		fmt.Printf("| %d | %.0f | %.3f |\n", n, mean, mean/(float64(n)*float64(n)))
	}
	fmt.Printf("\nfitted exponent: n^%.2f (paper: O(n²) expected).\n", stats.PowerLawExponent(xs, ys))
}

// e13Closure holds a safe configuration for a long run; the per-size holds
// are independent and run in parallel.
func e13Closure(p profile) {
	header("E13", "Lemma 4.7: closure of S_PL")
	fmt.Println("| n | steps held | leader changes | still in S_PL |")
	fmt.Println("|---|---|---|---|")
	sizes := []int{16, 64, 256}
	rows, err := runner.Map(context.Background(), len(sizes), func(i int) string {
		n := sizes[i]
		par := core.NewParams(n)
		pr := core.New(par)
		eng := population.NewEngine(population.DirectedRing(n), pr.Step, xrand.New(uint64(n)))
		eng.SetStates(par.PerfectConfig(0, 1))
		eng.TrackLeaders(core.IsLeader)
		hold := uint64(2_000_000)
		eng.Run(hold)
		return fmt.Sprintf("| %d | %d | %d | %v |", n, hold, eng.LeaderChanges(), par.IsSafe(eng.Config()))
	}, pool)
	check(err)
	for _, row := range rows {
		fmt.Println(row)
	}
}

// e14Adversary measures P_PL against the scheduler-and-dynamics
// adversaries: biased arc distributions, periodic eclipses of an arc
// interval, churn (agents leaving and joining with ring re-splicing) and
// stuck agents. The first two rows are the built-in differential check —
// the explicit uniform scheduler must reproduce the fast path's numbers
// exactly, because it draws the byte-identical RNG stream through the
// scheduler plumbing.
func e14Adversary(p profile) {
	header("E14", "Scheduler adversaries: biased arcs, eclipses, churn, stuck agents")
	n := 64
	nn := uint64(n) * uint64(n)
	adversaries := []struct {
		name  string
		sched *repro.SchedulerSpec
	}{
		{"uniform (fast path)", nil},
		{"uniform (scheduler plumbing)", &repro.SchedulerSpec{Kind: "uniform"}},
		{"hotspot: 8 arcs ×16", &repro.SchedulerSpec{Kind: "biased", Family: "hotspot", HotArcs: 8, Weight: 16}},
		{"ramp: ×16 around the ring", &repro.SchedulerSpec{Kind: "biased", Family: "ramp", Weight: 16}},
		{"eclipse: n/4 arcs for 2n² steps", &repro.SchedulerSpec{Kind: "eclipse", Start: 1, Period: 1 << 40, Duration: 2 * nn, Arcs: n / 4}},
		{"churn: −4 @2n², +4 @4n²", &repro.SchedulerSpec{Churn: []repro.ChurnEvent{{AtStep: 2 * nn, Remove: 4}, {AtStep: 4 * nn, Insert: 4}}}},
		{"stuck: 2 frozen agents", &repro.SchedulerSpec{Stuck: 2}},
	}
	proto := repro.PPL(0, 0)
	fmt.Printf("P_PL, n = %d, %d trials per adversary:\n\n", n, p.table1Trials)
	fmt.Println("| adversary | mean steps | converged | dynamics |")
	fmt.Println("|---|---|---|---|")
	for _, adv := range adversaries {
		sc := repro.Scenario{Sched: adv.sched}
		check(proto.Validate(sc))
		data, err := repro.RunCell(context.Background(), proto, sc, n, 0, p.table1Trials, pool.Workers)
		check(err)
		recs, err := repro.ReadTrialRecords(bytes.NewReader(data))
		check(err)
		var steps []float64
		var recovery []float64
		converged := 0
		dynamics := "—"
		for _, rec := range recs {
			if rec.Converged {
				converged++
				steps = append(steps, float64(rec.Steps))
			}
			obs := rec.Observables
			if rc, ok := obs["eclipse_recovery_steps"]; ok {
				recovery = append(recovery, rc)
			}
			if ce, ok := obs["churn_events"]; ok {
				dynamics = fmt.Sprintf("%.0f churn events, live min %.0f", ce, obs["live_agents_min"])
			}
		}
		if len(recovery) > 0 {
			dynamics = fmt.Sprintf("mean recovery %.0f steps after the window", stats.Mean(recovery))
		}
		meanSteps := "no trial converged"
		if len(steps) > 0 {
			meanSteps = fmt.Sprintf("%.3g", stats.Mean(steps))
		}
		fmt.Printf("| %s | %s | %d/%d | %s |\n",
			adv.name, meanSteps, converged, p.table1Trials, dynamics)
	}
	fmt.Println("\nThe two uniform rows must agree exactly (same RNG stream through the")
	fmt.Println("scheduler plumbing); the adversaries stress self-stabilization beyond")
	fmt.Println("the paper's uniform-scheduler model.")
}

// mustProtocol resolves a registered protocol or aborts the sweep.
func mustProtocol(name string) repro.Protocol {
	p, err := repro.NewProtocol(name)
	check(err)
	return p
}

func sizesHeader(sizes []int) string {
	var b strings.Builder
	for _, n := range sizes {
		fmt.Fprintf(&b, "n=%d | ", n)
	}
	return b.String()
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, ", ")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
