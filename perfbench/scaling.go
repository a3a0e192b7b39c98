package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"repro"
)

// scalingRows are the paper's scaling cells: P_PL against the Θ(n²),
// O(n)-state protocol of arXiv:2009.10926 at the sizes of the E8/E9
// sweeps. At these sizes the engine does almost all the work, so engine
// and runner changes show here and cache, HTTP or lease changes do not.
var scalingRows = []row{
	{"ppl", []int{64, 128, 256}},
	{"yokota", []int{256, 1024}},
}

// scalingTrials is the trial count of every scaling cell.
const scalingTrials = 8

// replayRepeats is how many warm jobs follow each round.
const replayRepeats = 4

// runScaling drives the library path: Experiment.Stream with two
// workers over the scaling cells, in a protocol order drawn from the
// seed. A cold job is one cell (its trials run in the engine); a warm job
// is the library's replay of the stored sweep into its Reports.
func runScaling(b *bench) error {
	rows := shuffled(scalingRows, b.seed)
	cells, err := planCells(rows)
	if err != nil {
		return err
	}

	b.setup = func() (time.Duration, error) { return librarySetup(scalingRows[0]) }
	if err := b.sampleSetup(setupSamples); err != nil {
		return err
	}

	start := time.Now()
	serial, _, err := librarySweep(rows, cells, scalingTrials, 1, nil, 0, nil)
	if err != nil {
		return fmt.Errorf("serial run: %w", err)
	}
	serialS := time.Since(start).Seconds()
	want := sha256.Sum256(bytes.Join(serial, nil))

	// One untimed round first: the first parallel sweep of a process runs
	// slowest.
	got, _, err := librarySweep(rows, cells, scalingTrials, 2, nil, 0, nil)
	if err != nil {
		return err
	}
	b.verify("warm-up sweep", bytes.Join(got, nil), want)

	log := newTrialLog()
	var walls, tracedWalls, cold, warm []float64
	deadline := time.Now().Add(b.seconds)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		tr := b.roundTracer(i)
		b.roundStart()
		root := tr.open("round", 0)
		start := time.Now()
		got, sink, err := librarySweep(rows, cells, scalingTrials, 2, tr, root, log)
		if err != nil {
			b.fail("sweep", err)
			continue
		}
		vstart := time.Now()
		b.verify("sweep", bytes.Join(got, nil), want)
		tr.add("verify", root, vstart, time.Now())
		wall := time.Since(start)
		tr.close(root)
		if tr != nil {
			b.tracedRounds++
			tracedWalls = append(tracedWalls, wall.Seconds())
			continue
		}
		walls = append(walls, wall.Seconds())
		prev := start
		for _, end := range sink.done {
			cold = append(cold, ms(end.Sub(prev)))
			prev = end
		}
		all := bytes.Join(got, nil)
		for k := 0; k < replayRepeats; k++ {
			d, again, err := replaySweep(rows, all)
			if err != nil {
				b.fail("sweep replay", err)
				continue
			}
			b.verify("sweep replay", again, want)
			warm = append(warm, ms(d))
		}
		if err := b.roundEnd(); err != nil {
			return err
		}
	}

	b.set("sweep_s", median(walls))
	b.set("trials_per_s", float64(len(walls)*len(cells)*scalingTrials)/sum(walls))
	b.set("cold_job_p50_ms", quantile(cold, 0.5))
	b.set("cold_job_p90_ms", quantile(cold, 0.9))
	b.set("warm_job_p50_ms", quantile(warm, 0.5))
	b.set("warm_job_p90_ms", quantile(warm, 0.9))
	if !b.traced {
		return nil
	}

	trialMS := sum(log.durs)
	b.set("population.steps_per_s", float64(log.steps)/(trialMS/1e3))
	b.set("population.trial_ms", median(log.durs))
	b.set("repro.sink_wait_ms", median(log.waits))
	b.set("runner.idle_share", 1-trialMS/(2*1e3*sum(tracedWalls)))
	b.set("runner.parallel_efficiency", serialS/(2*median(walls)))
	b.set("trace.overhead_share", 1-median(walls)/median(tracedWalls))
	if _, _, err := b.sampleEngine(cells, 1); err != nil {
		return err
	}
	return b.encodeReplay(serial, hashes(serial))
}

// librarySweep streams the rows through the library with the given
// trial and worker counts and returns each cell's canonical bytes, plus
// the sink whose done times give the cell latencies. A non-nil tracer
// adds a timing probe to every trial.
func librarySweep(rows []row, cells []cell, trials, workers int, tr *tracer, parent int, log *trialLog) ([][]byte, *cellSink, error) {
	sink := newCellSink(cells, trials, tr, parent, log)
	for _, r := range rows {
		e := repro.NewExperiment().ProtocolNames(r.proto).Sizes(r.sizes...).
			Trials(trials).Workers(workers).Sinks(sink)
		if tr != nil {
			e = e.ProbeWith(func() repro.Probe { return &timingProbe{tr: tr, parent: parent, log: log} })
		}
		if err := e.Stream(context.Background()); err != nil {
			return nil, nil, err
		}
	}
	got, err := sink.encode()
	return got, sink, err
}

// replaySweep is the library's warm path: a stored sweep's JSONL read
// back, rebuilt into each row's Report without running a trial, and
// written out again.
func replaySweep(rows []row, data []byte) (time.Duration, []byte, error) {
	start := time.Now()
	recs, err := repro.ReadTrialRecords(bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	for _, r := range rows {
		rep, err := repro.NewExperiment().ProtocolNames(r.proto).Sizes(r.sizes...).Trials(scalingTrials).ReportFromRecords(recs)
		if err != nil {
			return 0, nil, err
		}
		if _, err := rep.JSON(); err != nil {
			return 0, nil, err
		}
	}
	var buf bytes.Buffer
	if err := repro.WriteTrialRecords(&buf, recs); err != nil {
		return 0, nil, err
	}
	return time.Since(start), buf.Bytes(), nil
}

// librarySetup times the library path from building an Experiment to
// the engine beginning its first trial.
func librarySetup(r row) (time.Duration, error) {
	var began time.Time
	start := time.Now()
	err := repro.NewExperiment().ProtocolNames(r.proto).Sizes(r.sizes[0]).Trials(1).Workers(2).
		ProbeWith(func() repro.Probe { return beginProbe{&began} }).
		Sinks(discard{}).Stream(context.Background())
	if err != nil {
		return 0, err
	}
	return began.Sub(start), nil
}

// beginProbe notes when its trial began.
type beginProbe struct{ at *time.Time }

func (p beginProbe) Begin(string, int, uint64) { *p.at = time.Now() }
func (p beginProbe) Observe(repro.TrialEvent)  {}
func (p beginProbe) End(repro.TrialResult)     {}

// discard is a sink that drops every record.
type discard struct{}

func (discard) Record(repro.TrialRecord) error { return nil }
func (discard) Close() error                   { return nil }
