package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/plan"
)

// fabricSpec is a sweep of medium cells cut into narrow shards, so lease
// round trips, gzip uploads, checkpoint fsyncs and the merge all do real
// work next to the engine.
var fabricSpec = plan.Spec{
	Protocols: []string{"ppl", "yokota", "angluin", "chenchen"},
	Sizes:     []int{32, 48},
	Trials:    64,
}

const (
	fabricShardTrials = 8
	fabricWorkers     = 2
	// fabricResumes warm jobs per round: a coordinator restarted over the
	// finished checkpoint, merging without running a shard.
	fabricResumes = 3
	// fabricDeadline bounds one sweep, so a wedged fabric fails the run
	// instead of hanging it.
	fabricDeadline = 150 * time.Second
)

// runFabric drives the sweep fabric: a coordinator with its checkpoint in
// a scratch directory, behind a loopback listener, and two workers with
// one trial worker each. The seed draws the protocol order, and with it
// the shard and lease order. A cold job is one shard (lease sent →
// upload answered); a warm job is a coordinator resumed over the finished
// checkpoint, merged and written out again.
func runFabric(b *bench) error {
	spec := fabricSpec
	spec.Protocols = shuffled(fabricSpec.Protocols, b.seed)
	rows := make([]row, len(spec.Protocols))
	for i, p := range spec.Protocols {
		rows[i] = row{p, spec.Sizes}
	}
	cells, err := planCells(rows)
	if err != nil {
		return err
	}
	start := time.Now()
	serial, _, err := librarySweep(rows, cells, spec.Trials, 1, nil, 0, nil)
	if err != nil {
		return fmt.Errorf("serial run: %w", err)
	}
	serialS := time.Since(start).Seconds()
	want := sha256.Sum256(bytes.Join(serial, nil))

	b.setup = func() (time.Duration, error) { return b.fabricSetup(spec) }
	if err := b.sampleSetup(setupSamples); err != nil {
		return err
	}

	// One untimed round first: the first sweep of a process runs slowest.
	if _, err := b.fabricRound(spec, 0, nil, want, &fabricObs{}); err != nil {
		return err
	}

	var walls, tracedWalls, cold, warm []float64
	obs := &fabricObs{}
	deadline := time.Now().Add(b.seconds)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		tr := b.roundTracer(i)
		round := &fabricObs{}
		if tr != nil {
			round = obs
		}
		b.roundStart()
		fr, err := b.fabricRound(spec, i+1, tr, want, round)
		if err != nil {
			return err
		}
		if tr != nil {
			b.tracedRounds++
			tracedWalls = append(tracedWalls, fr.wall.Seconds())
			continue
		}
		walls = append(walls, fr.wall.Seconds())
		cold = append(cold, round.shards...)
		warm = append(warm, fr.resumes...)
		if err := b.roundEnd(); err != nil {
			return err
		}
	}

	b.set("sweep_s", median(walls))
	b.set("trials_per_s", float64(len(walls)*len(cells)*spec.Trials)/sum(walls))
	b.set("cold_job_p50_ms", quantile(cold, 0.5))
	b.set("cold_job_p90_ms", quantile(cold, 0.9))
	b.set("warm_job_p50_ms", quantile(warm, 0.5))
	b.set("warm_job_p90_ms", quantile(warm, 0.9))
	if !b.traced {
		return nil
	}

	rounds := float64(b.tracedRounds)
	b.set("fabric.lease_rtt_ms", median(obs.leaseRTT))
	b.set("fabric.complete_rtt_ms", median(obs.completeRTT))
	b.set("fabric.shard_run_ms", median(obs.run))
	b.set("fabric.wait_polls", float64(obs.waits)/rounds)
	b.set("fabric.idle_share", 1-sum(obs.run)/(fabricWorkers*1e3*sum(tracedWalls)))
	b.set("fabric.http_errors", float64(obs.httpErrors))
	b.set("checkpoint.write_ms", median(obs.writes))
	b.set("checkpoint.journal_ms", median(obs.journal))
	b.set("checkpoint.bytes", float64(obs.bytes)/rounds)
	b.set("merge.ms", median(obs.merges))
	b.set("runner.parallel_efficiency", serialS/(fabricWorkers*median(walls)))
	b.set("trace.overhead_share", 1-median(walls)/median(tracedWalls))
	stepsPerS, trialMS, err := b.sampleEngine(cells, 1)
	if err != nil {
		return err
	}
	b.set("population.steps_per_s", stepsPerS)
	b.set("population.trial_ms", trialMS)
	return b.encodeReplay(serial, hashes(serial))
}

// fabricRound is one timed sweep.
type fabricRound struct {
	wall    time.Duration // spec → verified merged bytes
	resumes []float64     // ms per warm resume
}

// fabricRound runs the spec once through a fresh coordinator and two
// workers, then resumes the finished checkpoint fabricResumes times.
func (b *bench) fabricRound(spec plan.Spec, r int, tr *tracer, want [32]byte, obs *fabricObs) (fabricRound, error) {
	var fr fabricRound
	dir := filepath.Join(b.workdir, "tmp", fmt.Sprintf("fabric-%d-round%d", os.Getpid(), r))
	if err := os.RemoveAll(dir); err != nil {
		return fr, err
	}
	defer os.RemoveAll(dir)
	cfg := fabric.CoordinatorConfig{Spec: spec, ShardTrials: fabricShardTrials, Dir: dir}
	wall, err := b.fabricSweep(cfg, r, want, tr, obs)
	if err != nil {
		return fr, fmt.Errorf("fabric round %d: %w", r, err)
	}
	fr.wall = wall

	for k := 0; k < fabricResumes; k++ {
		start := time.Now()
		c, err := fabric.NewCoordinator(cfg)
		if err != nil {
			b.fail("resume", err)
			continue
		}
		merged, err := mergeBytes(c, nil, 0, &fabricObs{})
		c.Close()
		if err != nil {
			b.fail("resume", err)
			continue
		}
		fr.resumes = append(fr.resumes, ms(time.Since(start)))
		b.verify(fmt.Sprintf("fabric round %d resume %d", r, k), merged, want)
	}
	return fr, nil
}

// fabricSweep plans cfg.Spec into a fresh coordinator, lets fabricWorkers
// workers run it, and merges and verifies the result. It returns the time
// from planning to verified bytes, once the workers have stopped.
func (b *bench) fabricSweep(cfg fabric.CoordinatorConfig, r int, want [32]byte, tr *tracer, obs *fabricObs) (time.Duration, error) {
	root := tr.open("round", 0)
	start := time.Now()
	cfg.FS = &timingFS{FS: chaos.OS(), tr: tr, parent: root, obs: obs}
	c, err := fabric.NewCoordinator(cfg)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), fabricDeadline)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, fabricWorkers)
	for w := 0; w < fabricWorkers; w++ {
		rt := &leaseTransport{base: &http.Transport{}, tr: tr, parent: root, obs: obs}
		defer rt.base.CloseIdleConnections()
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = fabric.Work(ctx, fabric.WorkerConfig{
				Coordinator: ts.URL, Name: fmt.Sprintf("w%d", w), TrialWorkers: 1,
				Client: &http.Client{Transport: rt},
			})
		}()
	}
	err = c.Wait(ctx)
	var merged []byte
	if err == nil {
		merged, err = mergeBytes(c, tr, root, obs)
	}
	if err == nil {
		vstart := time.Now()
		b.verify(fmt.Sprintf("fabric round %d", r), merged, want)
		tr.add("verify", root, vstart, time.Now())
	}
	wall := time.Since(start)
	tr.close(root)
	if err != nil {
		cancel()
	}
	wg.Wait() // the workers leave on their next lease poll
	for w, werr := range errs {
		if werr != nil && err == nil {
			b.fail(fmt.Sprintf("worker %d", w), werr)
		}
	}
	return wall, err
}

// fabricSetup times the fabric from planning a sweep to handing out its
// first shard: NewCoordinator over an empty checkpoint directory, a
// loopback listener, and one lease request answered with a shard.
func (b *bench) fabricSetup(spec plan.Spec) (time.Duration, error) {
	dir := filepath.Join(b.workdir, "tmp", fmt.Sprintf("fabric-%d-setup", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	c, err := fabric.NewCoordinator(fabric.CoordinatorConfig{Spec: spec, ShardTrials: fabricShardTrials, Dir: dir})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	tp := &http.Transport{}
	defer tp.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tp}).Post(ts.URL+"/v1/lease", "application/json", strings.NewReader(`{"worker":"setup"}`))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var lease fabric.LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		return 0, err
	}
	if lease.Status != fabric.StatusShard {
		return 0, fmt.Errorf("first lease answered %q", lease.Status)
	}
	return time.Since(start), nil
}

// mergeBytes folds a finished coordinator's shards into the canonical
// JSONL: Merged, then WriteTrialRecords.
func mergeBytes(c *fabric.Coordinator, tr *tracer, parent int, obs *fabricObs) ([]byte, error) {
	start := time.Now()
	recs, err := c.Merged()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := repro.WriteTrialRecords(&buf, recs); err != nil {
		return nil, err
	}
	end := time.Now()
	tr.add("merge", parent, start, end)
	obs.mu.Lock()
	obs.merges = append(obs.merges, ms(end.Sub(start)))
	obs.mu.Unlock()
	return buf.Bytes(), nil
}

// fabricObs accumulates what the worker transports and the checkpoint
// filesystem saw. Both workers and the coordinator write to it.
type fabricObs struct {
	mu                sync.Mutex
	leaseRTT          []float64 // ms
	completeRTT       []float64 // ms
	run               []float64 // ms a worker held a shard before uploading
	shards            []float64 // ms from lease sent to upload answered
	waits, httpErrors int
	writes, journal   []float64 // ms per checkpoint file write, per journal append + fsync
	merges            []float64 // ms
	bytes             int64
}

// leaseTransport times one worker's calls to the coordinator; it is the
// worker's http.Client transport, the seam WorkerConfig.Client opens.
// Lease and complete calls come from the worker loop one at a time; only
// the lease heartbeat runs beside them, and it touches no field here but
// the shared, locked obs.
type leaseTransport struct {
	base     *http.Transport
	tr       *tracer
	parent   int
	obs      *fabricObs
	leased   time.Time // when the last lease request was sent
	answered time.Time // when its reply arrived
}

func (t *leaseTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	path := req.URL.Path
	if path == "/v1/complete" {
		t.tr.add("run", t.parent, t.answered, start)
	}
	resp, err := t.base.RoundTrip(req)
	if err == nil && path == "/v1/lease" && t.tr != nil {
		err = t.countWait(resp)
	}
	end := time.Now()
	o := t.obs
	o.mu.Lock()
	defer o.mu.Unlock()
	if err != nil || resp.StatusCode != http.StatusOK {
		o.httpErrors++
	}
	switch path {
	case "/v1/lease":
		t.tr.add("lease", t.parent, start, end)
		o.leaseRTT = append(o.leaseRTT, ms(end.Sub(start)))
		t.leased, t.answered = start, end
	case "/v1/complete":
		t.tr.add("complete", t.parent, start, end)
		o.completeRTT = append(o.completeRTT, ms(end.Sub(start)))
		o.run = append(o.run, ms(start.Sub(t.answered)))
		o.shards = append(o.shards, ms(end.Sub(t.leased)))
	}
	return resp, err
}

// countWait reads a lease reply, counts a "wait" answer, and puts the
// body back for the worker.
func (t *leaseTransport) countWait(resp *http.Response) error {
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	var lease fabric.LeaseResponse
	if json.Unmarshal(data, &lease) == nil && lease.Status == fabric.StatusWait {
		t.obs.mu.Lock()
		t.obs.waits++
		t.obs.mu.Unlock()
	}
	return nil
}

// timingFS times the checkpoint's writes: whole shard and identity files
// through WriteFileAtomic, and journal lines as Write + Sync.
type timingFS struct {
	chaos.FS
	tr     *tracer
	parent int
	obs    *fabricObs
}

func (f *timingFS) WriteFileAtomic(path string, data []byte) error {
	start := time.Now()
	err := f.FS.WriteFileAtomic(path, data)
	end := time.Now()
	f.tr.add("checkpoint", f.parent, start, end)
	f.obs.mu.Lock()
	f.obs.writes = append(f.obs.writes, ms(end.Sub(start)))
	f.obs.bytes += int64(len(data))
	f.obs.mu.Unlock()
	return err
}

func (f *timingFS) AppendFile(path string) (chaos.AppendWriter, error) {
	w, err := f.FS.AppendFile(path)
	if err != nil {
		return nil, err
	}
	return &timingAppend{AppendWriter: w, fs: f}, nil
}

// timingAppend times each journal append from its Write to its Sync.
type timingAppend struct {
	chaos.AppendWriter
	fs    *timingFS
	start time.Time
}

func (a *timingAppend) Write(p []byte) (int, error) {
	a.start = time.Now()
	n, err := a.AppendWriter.Write(p)
	a.fs.obs.mu.Lock()
	a.fs.obs.bytes += int64(n)
	a.fs.obs.mu.Unlock()
	return n, err
}

func (a *timingAppend) Sync() error {
	err := a.AppendWriter.Sync()
	end := time.Now()
	a.fs.tr.add("checkpoint", a.fs.parent, a.start, end)
	a.fs.obs.mu.Lock()
	a.fs.obs.journal = append(a.fs.obs.journal, ms(end.Sub(a.start)))
	a.fs.obs.mu.Unlock()
	return err
}
