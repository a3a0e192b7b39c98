// Command ringsim runs one protocol instance on a ring and reports its
// convergence behavior, through the public repro.Protocol registry.
//
// Usage:
//
//	ringsim -proto ppl -n 64 -seed 1 -init random [-v]
//	ringsim -proto ppl -n 64 -trials 32            # parallel repetitions
//	ringsim -proto ppl -n 64 -faults 200@1000,100@5000
//	ringsim -proto ppl -n 64 -faults 200@1000 -record trial.jsonl
//	ringsim -proto ppl -n 64 -sched eclipse:period=100000,duration=20000,arcs=48
//	ringsim -proto ppl -n 64 -sched hotspot:arcs=8,weight=16 -stuck 2
//	ringsim -proto ppl -n 64 -churn del4@5000,add4@9000
//
// Protocols: any registered name — ppl (the paper's P_PL), yokota [28],
// angluin [5], fj [15], chenchen [11], orient (Section 5 ring
// orientation; it also prints the agreed direction). Initial
// configurations (ppl only): random, noleader, allleaders, corrupted,
// noleadercold. -faults injects mid-run bursts of the form agents@step.
//
// -stats (per-phase event counters and a final snapshot) and -v (the
// final configuration as a segment diagram) apply to ppl. Both observe
// the reported trial itself, under every scheduler, churn, stuck-agent
// and fault flag.
//
// -sched selects the arc scheduler (uniform | hotspot:arcs=K,weight=W |
// ramp:weight=W | eclipse:period=P,duration=D,arcs=K[,offset=O][,start=S]);
// -churn schedules mid-run ring re-splicing (del<K>@<step>, add<K>@<step>);
// -stuck freezes K randomly chosen agents for the whole trial. Eclipse
// trials report the post-partition recovery time (eclipse_recovery_steps).
//
// With -trials k > 1, the k repetitions use seeds seed, seed+1, ...,
// seed+k-1 and fan out across all cores through internal/runner; the
// summary is identical to running them one at a time.
//
// -record FILE streams each trial's TrialRecord — the legacy scalars plus
// leader-trajectory, fault and recovery observables sampled by the probe
// API — as JSONL, one object per trial in trial order.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/orient"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ringsim:", err)
		os.Exit(1)
	}
}

// run parses the command line in args and writes the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ringsim", flag.ExitOnError)
	var (
		proto   = fs.String("proto", "ppl", "protocol: "+strings.Join(repro.Protocols(), ", "))
		n       = fs.Int("n", 64, "ring size")
		seed    = fs.Uint64("seed", 1, "scheduler seed")
		init    = fs.String("init", "random", "ppl initial configuration: random, noleader, allleaders, corrupted, noleadercold")
		c1      = fs.Int("c1", core.DefaultC1, "κ_max multiplier (ppl)")
		slack   = fs.Int("slack", 0, "ψ slack (ppl)")
		faults  = fs.String("faults", "", "fault schedule, comma-separated agents@step bursts")
		sched   = fs.String("sched", "", "arc scheduler: uniform, hotspot:arcs=K,weight=W, ramp:weight=W, eclipse:period=P,duration=D,arcs=K[,offset=O][,start=S]")
		churn   = fs.String("churn", "", "churn schedule, comma-separated del<K>@<step> / add<K>@<step> events")
		stuck   = fs.Int("stuck", 0, "freeze this many randomly chosen agents for the whole trial")
		verbose = fs.Bool("v", false, "print the reported trial's final configuration (ppl)")
		stat    = fs.Bool("stats", false, "print the reported trial's event counters and final snapshot (ppl)")
		trials  = fs.Int("trials", 1, "number of repetitions (seeds seed..seed+trials-1, run in parallel)")
		workers = fs.Int("workers", 0, "trial worker-pool size (0 = all cores)")
		record  = fs.String("record", "", "stream per-trial records as JSONL to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sc, err := scenarioFor(*init, *faults, *sched, *churn, *stuck)
	if err != nil {
		return err
	}
	p, err := protocolFor(*proto, *slack, *c1)
	if err != nil {
		return err
	}
	info := p.Info()
	size := p.FixSize(*n)
	if size != *n {
		fmt.Fprintf(w, "note: ring size adjusted to %d for %s\n", size, info.Name)
	}
	if *trials > 1 {
		if *verbose || *stat {
			fmt.Fprintln(w, "note: -v and -stats apply to single trials only; ignored with -trials > 1")
		}
		return runRepeated(w, p, sc, size, *seed, *trials, *workers, *record)
	}
	// The single-trial path always runs probed: the record costs nothing
	// measurable here and the recovery observable improves the output.
	probe := &repro.RecordingProbe{}
	var (
		res       repro.TrialResult
		direction string // orient: the agreed direction
		detail    string // ppl: the -stats and -v blocks
	)
	switch {
	case *proto == "ppl" && (*stat || *verbose):
		res, detail, err = trialPPL(p, sc, size, *seed, probe, core.NewParamsSlack(size, *slack, *c1), *stat, *verbose)
	case *proto == "orient":
		var final []orient.State
		res, final, err = repro.ObserveTrial[orient.State](p, sc, size, *seed, probe, nil)
		direction = "counter-clockwise"
		if err == nil && orient.Clockwise(final) {
			direction = "clockwise"
		}
	default:
		res, err = repro.ProbeTrial(p, sc, size, *seed, probe)
	}
	if err != nil {
		return err
	}
	rec := probe.Record()
	if *record != "" {
		if err := writeRecords(w, *record, []repro.TrialRecord{rec}); err != nil {
			return err
		}
	}
	maxSteps := sc.MaxSteps(p, size)
	fmt.Fprintf(w, "protocol    : %s\n", info.Name)
	fmt.Fprintf(w, "assumption  : %s\n", info.Assumption)
	fmt.Fprintf(w, "ring size   : %d\n", size)
	fmt.Fprintf(w, "|Q|         : %d states/agent\n", p.States(size))
	if !res.Converged {
		return fmt.Errorf("did not converge within %d steps", maxSteps)
	}
	fmt.Fprintf(w, "safe after  : %d steps\n", res.Steps)
	if _, leaders := rec.Observables["leaders_final"]; leaders {
		fmt.Fprintf(w, "output fixed: step %d (last leader change)\n", res.Stabilized)
	}
	if direction != "" {
		fmt.Fprintf(w, "direction   : %s\n", direction)
	}
	// Gate on a burst having actually fired (fault_bursts), not on the
	// schedule: a burst past the step budget never installs, and recovery
	// would then just be the whole run.
	if _, fired := rec.Observables["fault_bursts"]; fired {
		if rc, ok := rec.Observables["recovery_steps"]; ok {
			fmt.Fprintf(w, "recovery    : %.0f steps after the last fault burst\n", rc)
		}
	}
	if ws, saw := rec.Observables["eclipse_windows"]; saw {
		if rc, ok := rec.Observables["eclipse_recovery_steps"]; ok {
			fmt.Fprintf(w, "eclipse     : %.0f steps to re-converge after the last of %.0f window(s) closed\n", rc, ws)
		} else {
			fmt.Fprintf(w, "eclipse     : converged inside a window (%.0f window(s) entered)\n", ws)
		}
	}
	if ce, saw := rec.Observables["churn_events"]; saw {
		fmt.Fprintf(w, "churn       : %.0f splice(s), -%.0f/+%.0f agents, live minimum %.0f\n",
			ce, rec.Observables["churn_removed"], rec.Observables["churn_inserted"], rec.Observables["live_agents_min"])
	}
	fmt.Fprint(w, detail)
	return nil
}

// trialPPL runs the single ppl trial through repro.ObserveTrial. With
// -stats a trace collector observes every interaction of the trial; -v
// draws the trial's own final configuration. It returns the trial result
// and the -stats and -v blocks, empty when the trial did not converge.
func trialPPL(p repro.Protocol, sc repro.Scenario, n int, seed uint64, probe repro.Probe, par core.Params, stat, verbose bool) (repro.TrialResult, string, error) {
	col := trace.NewCollector(par)
	var observe func(int, core.State, core.State)
	if stat {
		observe = col.Observe
	}
	res, final, err := repro.ObserveTrial(p, sc, n, seed, probe, observe)
	if err != nil || !res.Converged {
		return res, "", err
	}
	var b strings.Builder
	if stat {
		fmt.Fprintf(&b, "\n%s", trace.Format(col.Events(), trace.Snapshot(par, final)))
	}
	if verbose {
		fmt.Fprintf(&b, "\nring n=%d ψ=%d κ_max=%d |Q|=%d\n%s",
			len(final), par.Psi, par.KappaMax, par.StateCount(), par.FormatRing(final))
	}
	return res, b.String(), nil
}

// runRepeated fans trials repetitions of one protocol out across the
// worker pool and prints aggregate convergence statistics. Every
// repetition runs probed, as the single trial does; with a record path
// the per-trial records are written as JSONL in trial order.
func runRepeated(w io.Writer, p repro.Protocol, sc repro.Scenario, n int, seed uint64, trials, workers int, record string) error {
	type trial struct {
		res repro.TrialResult
		rec repro.TrialRecord
		err error
	}
	results, err := runner.Map(context.Background(), trials, func(i int) trial {
		probe := &repro.RecordingProbe{}
		res, err := repro.ProbeTrial(p, sc, n, seed+uint64(i), probe)
		rec := probe.Record()
		rec.Trial = i
		return trial{res: res, rec: rec, err: err}
	}, runner.Options{Workers: workers})
	if err != nil {
		return err
	}
	maxSteps := sc.MaxSteps(p, n)
	var steps []float64
	failures := 0
	recs := make([]repro.TrialRecord, 0, len(results))
	for _, tr := range results {
		if tr.err != nil {
			return tr.err
		}
		recs = append(recs, tr.rec)
		if !tr.res.Converged {
			failures++
			continue
		}
		steps = append(steps, float64(tr.res.Steps))
	}
	if record != "" {
		if err := writeRecords(w, record, recs); err != nil {
			return err
		}
	}
	info := p.Info()
	fmt.Fprintf(w, "protocol    : %s\n", info.Name)
	fmt.Fprintf(w, "assumption  : %s\n", info.Assumption)
	fmt.Fprintf(w, "ring size   : %d\n", n)
	fmt.Fprintf(w, "|Q|         : %d states/agent\n", p.States(n))
	fmt.Fprintf(w, "trials      : %d (seeds %d..%d)\n", trials, seed, seed+uint64(trials)-1)
	if failures > 0 {
		fmt.Fprintf(w, "failures    : %d (budget %d steps)\n", failures, maxSteps)
	}
	if len(steps) == 0 {
		return fmt.Errorf("no trial converged within %d steps", maxSteps)
	}
	s := stats.Summarize(steps)
	fmt.Fprintf(w, "safe after  : mean %.0f | median %.0f | min %.0f | max %.0f steps\n",
		s.Mean, s.Median, s.Min, s.Max)
	return nil
}

// writeRecords writes the records as a JSONL artifact, in slice order,
// and reports the count to w.
func writeRecords(w io.Writer, path string, recs []repro.TrialRecord) error {
	sink, err := repro.CreateJSONL(path)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := sink.Record(rec); err != nil {
			sink.Close()
			return err
		}
	}
	if err := sink.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "records     : %d written to %s\n", len(recs), path)
	return nil
}

// protocolFor resolves a protocol name through the public registry; the
// ppl parameters come from the -slack and -c1 flags.
func protocolFor(proto string, slack, c1 int) (repro.Protocol, error) {
	if proto == "ppl" {
		return repro.PPL(slack, c1), nil
	}
	return repro.NewProtocol(proto)
}

// scenarioFor builds the trial scenario from the -init, -faults, -sched,
// -churn and -stuck flags.
func scenarioFor(init, faults, sched, churn string, stuck int) (repro.Scenario, error) {
	class, err := repro.ParseInitClass(init)
	if err != nil {
		return repro.Scenario{}, err
	}
	sc := repro.Scenario{Init: class}
	spec, err := repro.ParseSchedulerSpec(sched)
	if err != nil {
		return repro.Scenario{}, err
	}
	churnEvents, err := repro.ParseChurnSpec(churn)
	if err != nil {
		return repro.Scenario{}, err
	}
	if spec == nil && (len(churnEvents) > 0 || stuck != 0) {
		spec = &repro.SchedulerSpec{}
	}
	if spec != nil {
		spec.Churn = churnEvents
		spec.Stuck = stuck
		sc.Sched = spec
	}
	if faults == "" {
		return sc, nil
	}
	for _, part := range strings.Split(faults, ",") {
		agents, step, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return repro.Scenario{}, fmt.Errorf("bad fault burst %q (want agents@step)", part)
		}
		k, err1 := strconv.Atoi(agents)
		at, err2 := strconv.ParseUint(step, 10, 64)
		if err1 != nil || err2 != nil || k < 1 {
			return repro.Scenario{}, fmt.Errorf("bad fault burst %q (want agents@step)", part)
		}
		sc.Faults = append(sc.Faults, repro.Fault{AtStep: at, Agents: k})
	}
	return sc, nil
}
