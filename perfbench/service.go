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
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/xrand"
)

// Service jobs use small cells of every built-in protocol: at n ≤ 32 the
// plumbing (encoding, cache, HTTP) and the per-trial table fill do most
// of the work, not the steady-state engine.
var (
	serviceProtocols = []string{"ppl", "orient", "yokota", "angluin", "fj", "chenchen"}
	serviceSizes     = []int{8, 12, 16, 20, 24, 28, 32}
)

const (
	// Every round submits one cold job per (size, trial count) pair, the
	// trial counts coldTrialStep, 2*coldTrialStep, …, coldTrialCounts*
	// coldTrialStep, so no two cold jobs of a round share a cell.
	coldTrialStep   = 2
	coldTrialCounts = 6
	// warmTrials is the trial count of the first warm spec; the others
	// add one trial each. A warm job streams about 0.7 MB, so its latency
	// is real plumbing rather than sub-millisecond noise.
	warmTrials = 16
	warmSpecs  = 2
	// roundsPerServer bounds a service instance's life: it keeps every
	// job's records in memory, so a long run restarts it.
	roundsPerServer = 2
	// serviceClients closed-loop clients each wait for the last byte of
	// their job before submitting the next one.
	serviceClients = 2
)

// serviceConfig is the service under test: two job workers, one trial
// worker per cell, the default queue and cache.
var serviceConfig = service.Config{Workers: 2, TrialWorkers: 1}

// svcJob is one job of a round and the hash its stream must have.
type svcJob struct {
	spec plan.Spec
	warm bool
	want [32]byte
}

// jobRun is what one client saw of one job.
type jobRun struct {
	err       error
	sum       [32]byte
	records   int
	size      int
	submitted time.Time     // when the POST was answered
	latency   time.Duration // submit → last record byte
	submit    time.Duration // POST round trip
	ttfb      time.Duration // GET sent → first record byte
	stream    time.Duration // GET sent → last record byte
	queueWait time.Duration // job status Started − Created (traced rounds)
	exec      time.Duration // job status Finished − Started (traced rounds)
}

// runServiceMix drives the experiment service over loopback HTTP. Half
// of every round's jobs are cold: a spec the service has never seen, so
// trials run and cells are cached. Half are warm: a resubmitted spec
// served from the cache. The seed draws each round's job order and which
// warm spec each warm job resubmits. Cold specs of later rounds differ
// from earlier ones only in a budget scale no trial reaches, so every
// round does the same work while its cells stay uncached.
func runServiceMix(b *bench) error {
	b.setup = serviceSetup
	if err := b.sampleSetup(setupSamples); err != nil {
		return err
	}

	u, err := newUniverse(max(warmTrials+warmSpecs-1, coldTrialCounts*coldTrialStep))
	if err != nil {
		return err
	}

	rng := xrand.New(b.seed)
	round := func(env *svcEnv, r int, tr *tracer) (time.Duration, []svcJob, []jobRun) {
		jobs := u.roundJobs(r, env.warm, rng)
		root := tr.open("round", 0)
		start := time.Now()
		runs := runJobs(env.cl, env.ts.URL, jobs, tr, root)
		wall := time.Since(start)
		tr.close(root)
		for k, run := range runs {
			if run.err != nil {
				b.fail("job", run.err)
				continue
			}
			b.verifySum(fmt.Sprintf("round %d job %d", r, k), run.sum, jobs[k].want)
		}
		return wall, jobs, runs
	}

	var walls, tracedWalls, cold, warmLat []float64
	var tracedJobs []svcJob
	var tracedRuns []jobRun
	var hits, misses int64
	coldRecords := 0
	var deadline time.Time
	for i := 0; i < 2 || time.Now().Before(deadline); {
		env, err := newSvcEnv(b, u)
		if err != nil {
			return err
		}
		if deadline.IsZero() {
			round(env, 0, nil) // untimed: a process's first round runs slowest
			deadline = time.Now().Add(b.seconds)
		}
		for k := 0; k < roundsPerServer && (i < 2 || time.Now().Before(deadline)); k, i = k+1, i+1 {
			// Each service's first round runs slower than its second, so the
			// traced half of a run takes first and second rounds alike.
			tr := b.roundTracer(i + i/roundsPerServer)
			b.roundStart()
			wall, jobs, runs := round(env, i+1, tr)
			if tr != nil {
				b.tracedRounds++
				tracedWalls = append(tracedWalls, wall.Seconds())
				tracedJobs = append(tracedJobs, jobs...)
				tracedRuns = append(tracedRuns, runs...)
				continue
			}
			walls = append(walls, wall.Seconds())
			for j, run := range runs {
				if jobs[j].warm {
					warmLat = append(warmLat, ms(run.latency))
				} else {
					cold = append(cold, ms(run.latency))
					coldRecords += run.records
				}
			}
			if err := b.roundEnd(); err != nil {
				return err
			}
		}
		var st service.Stats
		err = getJSON(env.cl, env.ts.URL+"/v1/stats", &st)
		env.close()
		runtime.GC() // start the next service on a heap without this one's jobs
		if err != nil {
			return err
		}
		hits, misses = hits+st.Cache.Hits, misses+st.Cache.Misses
	}

	b.set("sweep_s", median(walls))
	b.set("trials_per_s", float64(coldRecords)/sum(walls))
	b.set("cold_job_p50_ms", quantile(cold, 0.5))
	b.set("cold_job_p90_ms", quantile(cold, 0.9))
	b.set("warm_job_p50_ms", quantile(warmLat, 0.5))
	b.set("warm_job_p90_ms", quantile(warmLat, 0.9))
	if !b.traced {
		return nil
	}

	// Submission and queueing over every job; execution, first byte and
	// streaming rate over warm jobs, where the service's own plumbing is
	// all there is (cold execution is engine time, sampled below).
	var submit, queueWait, exec, ttfb []float64
	var warmBytes, warmStream float64
	for k, run := range tracedRuns {
		submit = append(submit, ms(run.submit))
		queueWait = append(queueWait, ms(run.queueWait))
		if tracedJobs[k].warm {
			exec = append(exec, ms(run.exec))
			ttfb = append(ttfb, ms(run.ttfb))
			warmBytes += float64(run.size)
			warmStream += run.stream.Seconds()
		}
	}
	b.set("service.submit_ms", median(submit))
	b.set("service.queue_wait_ms", median(queueWait))
	b.set("service.exec_ms", median(exec))
	b.set("service.ttfb_ms", median(ttfb))
	b.set("service.stream_mb_per_s", warmBytes/1e6/warmStream)
	b.set("trace.overhead_share", 1-median(walls)/median(tracedWalls))

	b.set("cache.hit_ratio", float64(hits)/float64(hits+misses))
	warm := warmJobs(u)
	if err := b.cacheReplay(u, append(u.roundJobs(1, warm, xrand.New(b.seed)), warm...)); err != nil {
		return err
	}

	stepsPerS, trialMS, err := b.sampleEngine(u.cells, 1)
	if err != nil {
		return err
	}
	b.set("population.steps_per_s", stepsPerS)
	b.set("population.trial_ms", trialMS)
	cells := make([][]byte, len(u.cells))
	for i, c := range u.cells {
		cells[i] = u.cellBytes(c.proto, c.rawN, warmTrials)
	}
	return b.encodeReplay(cells, hashes(cells))
}

// svcEnv is one service instance under test: the server behind a
// loopback listener, the clients' HTTP client, and the warm specs it has
// already completed.
type svcEnv struct {
	srv  *service.Server
	ts   *httptest.Server
	tp   *http.Transport
	cl   *http.Client
	warm []svcJob
}

// newSvcEnv starts a service and runs each warm spec through it cold
// once, checked against the serial run; every later warm stream must
// then equal that cold stream. The service keeps every job's records for
// its lifetime, so a run replaces it every roundsPerServer rounds.
func newSvcEnv(b *bench, u *universe) (*svcEnv, error) {
	srv := service.New(serviceConfig)
	tp := &http.Transport{MaxIdleConnsPerHost: serviceClients}
	env := &svcEnv{srv: srv, ts: httptest.NewServer(srv.Handler()), tp: tp, cl: &http.Client{Transport: tp}, warm: warmJobs(u)}
	for w, r := range runJobs(env.cl, env.ts.URL, env.warm, nil, 0) {
		if r.err != nil {
			env.close()
			return nil, fmt.Errorf("warm spec %d: %w", w, r.err)
		}
		b.verifySum(fmt.Sprintf("warm spec %d cold run", w), r.sum, env.warm[w].want)
		env.warm[w].want = r.sum
	}
	return env, nil
}

func (env *svcEnv) close() {
	env.tp.CloseIdleConnections()
	env.ts.Close()
	env.srv.Shutdown(context.Background())
}

// warmJobs returns the warm specs, each with the hash of its serial run.
func warmJobs(u *universe) []svcJob {
	warm := make([]svcJob, warmSpecs)
	for w := range warm {
		spec := plan.Spec{Protocols: serviceProtocols, Sizes: serviceSizes, Trials: warmTrials + w}
		warm[w] = svcJob{spec: spec, warm: true, want: u.want(spec)}
	}
	return warm
}

// universe is the serial Workers(1) run every service job is checked
// against: each service protocol at each service size, with as many
// trials as any job asks for. A trial's record depends only on
// (protocol, scenario, n, trial), so any job's canonical bytes are the
// first Trials lines of each of its cells, in the job's cell order. Every
// trial converges inside the default budget (newUniverse checks), so the
// larger budget scales of later cold rounds leave the records unchanged.
type universe struct {
	cells []cell
	lines map[cellID][][]byte
}

type cellID struct {
	proto string
	rawN  int
}

func newUniverse(trials int) (*universe, error) {
	rows := make([]row, len(serviceProtocols))
	for i, p := range serviceProtocols {
		rows[i] = row{p, serviceSizes}
	}
	cells, err := planCells(rows)
	if err != nil {
		return nil, err
	}
	data, _, err := librarySweep(rows, cells, trials, 1, nil, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("serial run: %w", err)
	}
	u := &universe{cells: cells, lines: make(map[cellID][][]byte, len(cells))}
	for i, c := range cells {
		recs, err := repro.ReadTrialRecords(bytes.NewReader(data[i]))
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			if !rec.Converged {
				return nil, fmt.Errorf("trial %d of (%s, n=%d) needs more than the default budget", rec.Trial, rec.Protocol, rec.N)
			}
		}
		lines := bytes.SplitAfter(data[i], []byte{'\n'})
		u.lines[cellID{c.proto, c.rawN}] = lines[:len(lines)-1]
	}
	return u, nil
}

// cellBytes returns the canonical bytes of one cell at the given trial
// count.
func (u *universe) cellBytes(proto string, rawN, trials int) []byte {
	return bytes.Join(u.lines[cellID{proto, rawN}][:trials], nil)
}

// want returns the hash of the canonical bytes a job for spec streams.
func (u *universe) want(spec plan.Spec) [32]byte {
	h := sha256.New()
	for _, p := range spec.Protocols {
		for _, n := range spec.Sizes {
			h.Write(u.cellBytes(p, n, spec.Trials))
		}
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// roundJobs builds round r: one cold job per (size, trial count) pair,
// each paired with a warm resubmission drawn from rng, in an order drawn
// from rng. The budget scale r+1 keeps round r's cold cells distinct from
// every earlier round's.
func (u *universe) roundJobs(r int, warm []svcJob, rng *xrand.RNG) []svcJob {
	sc := repro.Scenario{Budget: repro.Budget{Scale: float64(r + 1)}}
	var jobs []svcJob
	for _, n := range serviceSizes {
		for k := 1; k <= coldTrialCounts; k++ {
			spec := plan.Spec{Protocols: serviceProtocols, Sizes: []int{n}, Trials: k * coldTrialStep, Scenario: sc}
			jobs = append(jobs, svcJob{spec: spec, want: u.want(spec)}, warm[rng.Intn(len(warm))])
		}
	}
	return shuffled(jobs, rng.Uint64())
}

// runJobs runs the jobs through serviceClients closed-loop clients, in
// order, and returns what each client saw.
func runJobs(cl *http.Client, base string, jobs []svcJob, tr *tracer, parent int) []jobRun {
	runs := make([]jobRun, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				runs[i] = runJob(cl, base, jobs[i].spec, tr, parent)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return runs
}

// runJob submits one job, streams its records to the last byte and
// hashes them. A traced run also reads the job's status for its queue and
// execution times.
func runJob(cl *http.Client, base string, spec plan.Spec, tr *tracer, parent int) (r jobRun) {
	body, err := json.Marshal(spec)
	if err != nil {
		r.err = err
		return r
	}
	start := time.Now()
	resp, err := cl.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	var sub struct {
		ID         string `json:"id"`
		RecordsURL string `json:"records_url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	r.submitted = time.Now()
	r.submit = r.submitted.Sub(start)
	tr.add("submit", parent, start, r.submitted)
	if resp.StatusCode != http.StatusAccepted {
		r.err = fmt.Errorf("submit answered %s", resp.Status)
		return r
	}
	if err != nil {
		r.err = fmt.Errorf("submit reply: %w", err)
		return r
	}

	get := time.Now()
	resp, err = cl.Get(base + sub.RecordsURL)
	if err != nil {
		r.err = err
		return r
	}
	data, first, err := readAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	tr.add("stream", parent, get, end)
	if err != nil {
		r.err = fmt.Errorf("stream records: %w", err)
		return r
	}
	r.latency, r.ttfb, r.stream = end.Sub(start), first.Sub(get), end.Sub(get)
	r.size, r.records = len(data), plan.CountLines(data)
	r.sum = sha256.Sum256(data)
	tr.add("verify", parent, end, time.Now())

	if tr != nil {
		var st service.JobStatus
		if err := getJSON(cl, base+"/v1/jobs/"+sub.ID, &st); err != nil {
			r.err = err
			return r
		}
		if st.State != service.StateDone || st.Started == nil || st.Finished == nil {
			r.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
			return r
		}
		r.queueWait, r.exec = st.Started.Sub(st.Created), st.Finished.Sub(*st.Started)
	}
	return r
}

// readAll reads r to the end and notes when the first byte arrived.
func readAll(r io.Reader) ([]byte, time.Time, error) {
	var buf bytes.Buffer
	var first time.Time
	chunk := make([]byte, 64<<10)
	for {
		n, err := r.Read(chunk)
		if n > 0 {
			if first.IsZero() {
				first = time.Now()
			}
			buf.Write(chunk[:n])
		}
		if err == io.EOF {
			return buf.Bytes(), first, nil
		}
		if err != nil {
			return nil, first, err
		}
	}
}

// getJSON decodes the 200 reply of a GET into out.
func getJSON(cl *http.Client, url string, out any) error {
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s answered %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// serviceSetup times the service from construction to accepting its
// first job: service.New, a loopback listener, and a POST answered 202.
// The job is then streamed to its end so the server shuts down idle.
func serviceSetup() (time.Duration, error) {
	start := time.Now()
	srv := service.New(serviceConfig)
	ts := httptest.NewServer(srv.Handler())
	tp := &http.Transport{}
	defer func() {
		tp.CloseIdleConnections()
		ts.Close()
		srv.Shutdown(context.Background())
	}()
	r := runJob(&http.Client{Transport: tp}, ts.URL, plan.Spec{Protocols: []string{"fj"}, Sizes: []int{8}, Trials: 1}, nil, 0)
	if r.err != nil {
		return 0, fmt.Errorf("setup job: %w", r.err)
	}
	return r.submitted.Sub(start), nil
}

// cacheReplay times CellCache.Put and Get on the cells of the given jobs,
// replayed on a fresh memory-only cache.
func (b *bench) cacheReplay(u *universe, jobs []svcJob) error {
	seen := make(map[string]bool)
	var keys []string
	var data [][]byte
	for _, j := range jobs {
		cells, err := j.spec.Cells()
		if err != nil {
			return err
		}
		for _, c := range cells {
			if !seen[c.Key] {
				seen[c.Key] = true
				keys = append(keys, c.Key)
				data = append(data, u.cellBytes(c.Protocol, c.RawN, j.spec.Trials))
			}
		}
	}
	const gets = 20
	cache := service.NewCellCache(0, "")
	start := time.Now()
	for i, k := range keys {
		cache.Put(k, data[i])
	}
	put := time.Since(start)
	start = time.Now()
	for g := 0; g < gets; g++ {
		for _, k := range keys {
			if _, ok := cache.Get(k); !ok {
				return fmt.Errorf("cache replay lost cell %s", k)
			}
		}
	}
	get := time.Since(start)
	b.set("cache.put_us", float64(put.Nanoseconds())/1e3/float64(len(keys)))
	b.set("cache.get_us", float64(get.Nanoseconds())/1e3/float64(gets*len(keys)))
	return nil
}
