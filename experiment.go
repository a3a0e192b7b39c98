package repro

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/runner"
	"repro/internal/stats"
)

// Progress is one Experiment progress event: Done of Trials trials of the
// (Protocol, N) cell have completed.
type Progress struct {
	Protocol string
	N        int
	Done     int
	Trials   int
}

// Experiment is a builder for a multi-protocol, multi-size trial matrix —
// the generalization of the paper's Table 1 regeneration to any registered
// protocol and any Scenario. Configure it with the chained setters and
// execute with Run:
//
//	rep, err := repro.NewExperiment().
//	        ProtocolNames("ppl", "yokota").
//	        Sizes(16, 32, 64).
//	        Trials(5).
//	        Run(ctx)
//
// Trials fan out across a worker pool; seeds derive from TrialSeed, so the
// resulting Report is byte-identical whatever the worker count.
//
// Beyond the in-memory Report, trials can stream: Sinks attaches
// TrialRecord consumers fed as workers finish (Run keeps the Report AND
// streams; Stream drops the Report entirely, so memory stays bounded by
// the worker count, not the trial count), Metrics adds composable
// aggregations over any record observable to the Report, and ProbeWith
// attaches a custom per-trial Probe to the event stream.
type Experiment struct {
	protocols []Protocol
	sizes     []int
	trials    int
	scenario  Scenario
	workers   int
	observer  func(Progress)
	sinks     []Sink
	metrics   []Metric
	probe     func() Probe
	caps      map[string]int
	err       error
}

// NewExperiment returns an experiment with no protocols or sizes, one
// trial per cell, the zero Scenario and one worker per core.
func NewExperiment() *Experiment {
	return &Experiment{trials: 1, caps: make(map[string]int)}
}

// Protocols appends protocol instances to the experiment, in row order.
func (e *Experiment) Protocols(ps ...Protocol) *Experiment {
	for _, p := range ps {
		if p == nil {
			e.fail(fmt.Errorf("repro: nil Protocol"))
			return e
		}
		e.protocols = append(e.protocols, p)
	}
	return e
}

// ProtocolNames appends registered protocols by name, in row order.
func (e *Experiment) ProtocolNames(names ...string) *Experiment {
	for _, name := range names {
		p, err := NewProtocol(name)
		if err != nil {
			e.fail(err)
			return e
		}
		e.protocols = append(e.protocols, p)
	}
	return e
}

// Sizes sets the requested ring sizes (protocols adjust them through
// FixSize).
func (e *Experiment) Sizes(ns ...int) *Experiment {
	e.sizes = append(e.sizes, ns...)
	return e
}

// Trials sets the number of trials per (protocol, size) cell.
func (e *Experiment) Trials(k int) *Experiment {
	e.trials = k
	return e
}

// Scenario sets the trial scenario (init class, fault schedule, budget,
// topology) shared by every cell.
func (e *Experiment) Scenario(sc Scenario) *Experiment {
	e.scenario = sc
	return e
}

// Workers caps the trial worker pool; 0 selects one worker per core.
func (e *Experiment) Workers(k int) *Experiment {
	e.workers = k
	return e
}

// Observer installs a progress callback, invoked after every completed
// trial.
//
// Concurrency contract: calls are serialized by the runner — the callback
// never runs concurrently with itself, and successive calls observe
// strictly increasing Done values — but they are issued from arbitrary
// worker goroutines, not the goroutine that called Run. A callback that
// only touches its own captured state therefore needs no mutex; one that
// shares state with code outside the callback must synchronize that
// sharing itself (the serialization guarantees exclusion between
// callbacks, not against the caller's other goroutines).
func (e *Experiment) Observer(fn func(Progress)) *Experiment {
	e.observer = fn
	return e
}

// Sinks attaches TrialRecord consumers. Records stream to every sink as
// workers finish — completion order, not trial order — and every sink is
// closed exactly once before Run or Stream returns (see Sink for the full
// contract). Every trial runs under a RecordingProbe whether or not a
// sink is attached, so sinks see exactly the records Run aggregates.
func (e *Experiment) Sinks(sinks ...Sink) *Experiment {
	for _, s := range sinks {
		if s == nil {
			e.fail(fmt.Errorf("repro: nil Sink"))
			return e
		}
		e.sinks = append(e.sinks, s)
	}
	return e
}

// Metrics adds composable aggregations over per-trial record observables
// to the Report: each cell gains the metric's value over the trials
// carrying the observable, and Markdown/JSON render them (see Metric).
func (e *Experiment) Metrics(ms ...Metric) *Experiment {
	e.metrics = append(e.metrics, ms...)
	return e
}

// ProbeWith installs a per-trial Probe factory: fn is called once per
// trial and the returned probe receives that trial's full event stream
// alongside the built-in recording probe. The factory may be called from
// any worker goroutine; the probes it returns are used single-threaded
// (see Probe).
func (e *Experiment) ProbeWith(fn func() Probe) *Experiment {
	e.probe = fn
	return e
}

// MaxSizeFor caps the ring sizes run for the named protocol (matched
// against ProtocolInfo.Name): requested sizes above the cap are skipped
// and render as missing cells. Used to keep the exponential-time [11]
// baseline out of large-n sweeps.
func (e *Experiment) MaxSizeFor(name string, max int) *Experiment {
	e.caps[name] = max
	return e
}

// fail records the first builder error; Run reports it.
func (e *Experiment) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Validate surfaces builder misuse — no protocols or sizes, a size a
// protocol cannot run even after FixSize (rings need 2 agents), a bad
// trial count, malformed metrics, a scenario a protocol rejects — without
// running anything. Run, Stream and ReportFromRecords all call it first;
// it is exported for callers (the experiment service, say) that must
// reject a bad configuration before queueing it.
func (e *Experiment) Validate() error { return e.validate() }

// validate surfaces builder misuse before any trial runs.
func (e *Experiment) validate() error {
	if e.err != nil {
		return e.err
	}
	if len(e.protocols) == 0 {
		return fmt.Errorf("repro: experiment has no protocols")
	}
	if len(e.sizes) == 0 {
		return fmt.Errorf("repro: experiment has no sizes")
	}
	if e.trials < 1 {
		return fmt.Errorf("repro: experiment needs at least one trial per cell, got %d", e.trials)
	}
	for _, m := range e.metrics {
		if err := m.validate(); err != nil {
			return err
		}
	}
	for _, p := range e.protocols {
		if err := p.Validate(e.scenario); err != nil {
			return err
		}
		for _, rawN := range e.sizes {
			if n := p.FixSize(rawN); n < 2 {
				return fmt.Errorf("repro: %s needs a ring of at least 2 agents, got size %d", p.Info().Name, rawN)
			}
		}
	}
	return nil
}

// Run executes the experiment: every (protocol, size) cell runs Trials
// independent trials with seeds TrialSeed(n, 0..Trials-1), fanned out
// across the worker pool. The returned Report aggregates per-trial
// results, per-cell summaries, metric values and fitted scaling
// exponents; attached Sinks additionally receive every TrialRecord as it
// completes. Run returns an error — never panics — on builder misuse,
// unsupported scenarios, cancellation, a failing sink, or a panicking
// trial (surfaced as a *runner.PanicError).
func (e *Experiment) Run(ctx context.Context) (*Report, error) {
	rs := newReportSink(e)
	if err := e.execute(ctx, rs); err != nil {
		return nil, err
	}
	return rs.rep, nil
}

// ReportFromRecords rebuilds the Report of this experiment from
// already-produced TrialRecords instead of running any trial — the replay
// path for record artifacts (a JSONL file, a service cache) produced by an
// identically-configured experiment. Records are matched to cells by
// (protocol name, FixSize-adjusted n, trial index); every non-skipped cell
// must be fully covered or an error is returned, so a partial artifact
// cannot silently render as an all-failures report. Records outside the
// matrix are ignored. Because Run aggregates through exactly this sink,
// the rebuilt Report — and its rendered bytes — is byte-identical to the
// one the original Run returned, including Metric tables (metrics reduce
// record observables, which the records carry).
func (e *Experiment) ReportFromRecords(recs []TrialRecord) (*Report, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	byKey := make(map[trialKey]TrialRecord, len(recs))
	for _, rec := range recs {
		byKey[trialKey{rec.Protocol, rec.N, rec.Trial}] = rec
	}
	rs := newReportSink(e)
	err := e.walk(rs, func(_ Protocol, info ProtocolInfo, n int) error {
		for t := 0; t < e.trials; t++ {
			rec, ok := byKey[trialKey{info.Name, n, t}]
			if !ok {
				return fmt.Errorf("repro: records missing trial %d of cell (%s, n=%d)", t, info.Name, n)
			}
			if err := rs.Record(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rs.rep, nil
}

// Stream executes the experiment without building a Report: every
// TrialRecord goes to the attached Sinks as its trial finishes and is then
// dropped, so memory stays bounded by the worker count however many
// trials the sweep has. At least one sink must be attached.
func (e *Experiment) Stream(ctx context.Context) error {
	if len(e.sinks) == 0 {
		return fmt.Errorf("repro: Stream needs at least one Sink (use Run for an in-memory Report)")
	}
	if len(e.metrics) > 0 {
		// Metric aggregation lives in the in-memory Report; silently
		// dropping configured metrics after a million-trial sweep would be
		// far worse than refusing up front.
		return fmt.Errorf("repro: Metrics need the in-memory Report — use Run, or aggregate records in a Sink")
	}
	return e.execute(ctx, nil)
}

// execute runs the trial matrix, streaming records into the report sink
// (nil in Stream mode) and the user sinks. All sinks — the Report
// included — consume the same record stream; the report sink is just the
// one that aggregates in memory.
func (e *Experiment) execute(ctx context.Context, rs *reportSink) (err error) {
	if verr := e.validate(); verr != nil {
		return verr
	}
	ss := &sinkSet{}
	if rs != nil {
		ss.sinks = append(ss.sinks, rs)
	}
	ss.sinks = append(ss.sinks, e.sinks...)
	defer func() {
		if cerr := ss.close(); err == nil {
			err = cerr
		}
	}()
	return e.walk(rs, func(p Protocol, info ProtocolInfo, n int) error {
		opts := runner.Options{Workers: e.workers}
		if e.observer != nil {
			obs := e.observer
			opts.Progress = func(done, total int) {
				obs(Progress{Protocol: info.Name, N: n, Done: done, Trials: total})
			}
		}
		return runTrials(ctx, p, e.scenario, n, 0, e.trials, opts, e.probe, ss)
	})
}

// trialKey addresses one trial of the matrix as its record does.
type trialKey struct {
	proto string
	n     int
	trial int
}

// walk visits the matrix in canonical order — protocol rows, then sizes,
// FixSize applied — calling cell for every runnable cell. Cells above a
// MaxSizeFor cap are skipped. A non-nil rs gets the row and cell
// boundaries; a skipped cell becomes an empty placeholder there, which
// keeps cells positionally aligned with Sizes so renderers never
// attribute a cell to the wrong size row. Two sizes that FixSize to the
// same n are two cells, visited twice.
func (e *Experiment) walk(rs *reportSink, cell func(p Protocol, info ProtocolInfo, n int) error) error {
	for _, p := range e.protocols {
		info := p.Info()
		if rs != nil {
			rs.beginRow(p, info)
		}
		for _, rawN := range e.sizes {
			n := p.FixSize(rawN)
			if cap, capped := e.caps[info.Name]; capped && rawN > cap {
				if rs != nil {
					rs.skipCell(n)
				}
				continue
			}
			if rs != nil {
				rs.beginCell(n)
			}
			if err := cell(p, info, n); err != nil {
				return err
			}
			if rs != nil {
				rs.endCell()
			}
		}
		if rs != nil {
			rs.endRow()
		}
	}
	return nil
}

// runTrials is the only copy of the per-trial body: it fans trials
// [lo, hi) of the (p, n) cell out through the worker pool, runs each
// under a RecordingProbe (plus a probe from the factory, when one is
// installed) with seed TrialSeed(n, t), and streams the record to ss as
// the trial completes.
func runTrials(ctx context.Context, p Protocol, sc Scenario, n, lo, hi int, opts runner.Options, probe func() Probe, ss *sinkSet) error {
	err := runner.ForEach(ctx, hi-lo, func(i int) {
		t := lo + i
		rp := &RecordingProbe{}
		var pr Probe = rp
		if probe != nil {
			if extra := probe(); extra != nil {
				pr = Probes(rp, extra)
			}
		}
		if _, err := ProbeTrial(p, sc, n, TrialSeed(n, t), pr); err != nil {
			ss.fail(err)
			return
		}
		rec := rp.Record()
		rec.Trial = t
		ss.record(rec)
	}, opts)
	if err != nil {
		return err
	}
	return ss.firstErr()
}

// RunCell runs trials [lo, hi) of the (p, n) cell under sc on up to
// workers goroutines (0 selects one per core) and returns the
// WriteTrialRecords bytes of their records in trial order: the records
// Run and Stream deliver for those trials, as a pure function of
// (p, sc, n, lo, hi) whatever the worker count. n is used as given
// (apply FixSize first).
func RunCell(ctx context.Context, p Protocol, sc Scenario, n, lo, hi, workers int) ([]byte, error) {
	if lo < 0 || hi <= lo {
		return nil, fmt.Errorf("repro: RunCell needs a non-empty trial range, got [%d,%d)", lo, hi)
	}
	recs := make([]TrialRecord, hi-lo)
	slots := sinkFunc(func(rec TrialRecord) error {
		recs[rec.Trial-lo] = rec
		return nil
	})
	if err := runTrials(ctx, p, sc, n, lo, hi, runner.Options{Workers: workers}, nil, &sinkSet{sinks: []Sink{slots}}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := WriteTrialRecords(&buf, recs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// reportSink is the in-memory aggregation as a Sink: it routes each record
// into its cell slot by Trial index and, at cell/row boundaries driven by
// walk, reduces them to the summaries, metric values and exponent fits
// of the Report — exactly the aggregation the pre-streaming Experiment
// did, so reports stay byte-identical.
type reportSink struct {
	e    *Experiment
	rep  *Report
	row  ReportRow
	cell ReportCell
	obs  []map[string]float64
}

func newReportSink(e *Experiment) *reportSink {
	rep := &Report{
		Sizes:    append([]int(nil), e.sizes...),
		Trials:   e.trials,
		Scenario: e.scenario,
	}
	for _, m := range e.metrics {
		rep.Metrics = append(rep.Metrics, m.label())
	}
	return &reportSink{e: e, rep: rep}
}

func (rs *reportSink) beginRow(p Protocol, info ProtocolInfo) {
	refSize := rs.e.sizes[len(rs.e.sizes)-1]
	rs.row = ReportRow{
		Protocol: info,
		States:   p.States(p.FixSize(refSize)),
	}
}

func (rs *reportSink) endRow() {
	rs.row.Exponent, rs.row.ExponentOK = fitExponent(rs.row.Cells)
	rs.rep.Rows = append(rs.rep.Rows, rs.row)
}

func (rs *reportSink) skipCell(n int) {
	rs.row.Cells = append(rs.row.Cells, ReportCell{N: n})
}

func (rs *reportSink) beginCell(n int) {
	rs.cell = ReportCell{N: n, Trials: make([]TrialResult, rs.e.trials)}
	rs.obs = make([]map[string]float64, rs.e.trials)
}

// Record implements Sink. The experiment serializes calls; rec.Trial
// routes the record into its pre-allocated slot, which is what keeps the
// aggregation independent of completion order.
func (rs *reportSink) Record(rec TrialRecord) error {
	rs.cell.Trials[rec.Trial] = rec.Result()
	rs.obs[rec.Trial] = rec.Observables
	return nil
}

// Close implements Sink; the report needs no flushing.
func (rs *reportSink) Close() error { return nil }

// endCell reduces the completed cell, in trial order.
func (rs *reportSink) endCell() {
	var steps, stab []float64
	for _, res := range rs.cell.Trials {
		if !res.Converged {
			rs.cell.Failures++
			continue
		}
		steps = append(steps, float64(res.Steps))
		stab = append(stab, float64(res.Stabilized))
	}
	if len(steps) > 0 {
		rs.cell.Steps = summaryFrom(stats.Summarize(steps))
		rs.cell.Stabilized = summaryFrom(stats.Summarize(stab))
	}
	for _, m := range rs.e.metrics {
		var xs []float64
		for _, o := range rs.obs {
			if v, ok := o[m.Observable]; ok {
				xs = append(xs, v)
			}
		}
		if v, ok := m.apply(xs); ok {
			if rs.cell.Metrics == nil {
				rs.cell.Metrics = make(map[string]float64, len(rs.e.metrics))
			}
			rs.cell.Metrics[m.label()] = v
		}
	}
	rs.row.Cells = append(rs.row.Cells, rs.cell)
	rs.cell = ReportCell{}
	rs.obs = nil
}

// summaryFrom converts the internal summary to the public mirror.
func summaryFrom(s stats.Summary) Summary {
	return Summary{
		Count: s.Count, Mean: s.Mean, Std: s.Std,
		Min: s.Min, Median: s.Median, P90: s.P90, Max: s.Max,
	}
}
