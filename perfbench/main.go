// Command perfbench is the repository's end-to-end benchmark. It drives
// three user paths from outside — a library scaling sweep, the HTTP
// experiment service and the sweep fabric — checks every output byte
// against a serial Workers(1) run of the same spec, and prints the
// metrics BENCHMARK.json names.
//
//	perfbench -workload scaling-sweep -seed 1 -seconds 20 -trace 0
//
// With -trace 0 a run prints the end-to-end metrics. With -trace 1 it
// alternates untraced and traced rounds and prints the per-layer metrics,
// the tracing overhead among them, and writes the spans to
// <workdir>/traces. The last line of standard output is the result
// object; the line before it records where the numbers were measured.
// Any byte mismatch makes the run exit non-zero.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricDef is one printed metric; the set mirrors BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"trials_per_s", "1/s"},
	{"cold_job_p50_ms", "ms"},
	{"cold_job_p90_ms", "ms"},
	{"warm_job_p50_ms", "ms"},
	{"warm_job_p90_ms", "ms"},
	{"success_rate", "ratio"},
	{"peak_rss_mb", "MB"},
}

var perLayer = append([]metricDef{
	{"population.steps_per_s", "1/s"},
	{"population.trial_ms", "ms"},
	{"population.fill_share", "ratio"},
	{"population.fallback_trials", "count"},
	{"repro.probe_share", "ratio"},
	{"repro.encode_us_per_record", "us"},
	{"repro.bytes_per_record", "B"},
	{"repro.sink_wait_ms", "ms"},
	{"runner.idle_share", "ratio"},
	{"runner.parallel_efficiency", "ratio"},
	{"plan.encode_ms_per_cell", "ms"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.exec_ms", "ms"},
	{"service.ttfb_ms", "ms"},
	{"service.stream_mb_per_s", "MB/s"},
	{"cache.hit_ratio", "ratio"},
	{"cache.get_us", "us"},
	{"cache.put_us", "us"},
	{"fabric.lease_rtt_ms", "ms"},
	{"fabric.complete_rtt_ms", "ms"},
	{"fabric.shard_run_ms", "ms"},
	{"fabric.wait_polls", "count"},
	{"fabric.idle_share", "ratio"},
	{"fabric.http_errors", "count"},
	{"checkpoint.write_ms", "ms"},
	{"checkpoint.journal_ms", "ms"},
	{"checkpoint.bytes", "B"},
	{"merge.ms", "ms"},
	{"trace.overhead_share", "ratio"},
}, selfTimeDefs()...)

func selfTimeDefs() []metricDef {
	defs := make([]metricDef, len(spanNames))
	for i, name := range spanNames {
		defs[i] = metricDef{"self_ms." + name, "ms"}
	}
	return defs
}

// workloads maps each -workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"scaling-sweep": runScaling,
	"service-mix":   runServiceMix,
	"fabric-sweep":  runFabric,
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance says where and on what the numbers were measured.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
}

// bench is the state of one run: its inputs, the oracle tally and the
// metric values the workload fills in.
type bench struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	workdir string
	// tr holds the spans of traced rounds; nil in an untraced run.
	tr *tracer

	attempted, failed int
	tracedRounds      int
	values            map[string]float64

	// rss samples the resident set size; peaks holds its highest value in
	// each untraced timed round, in MiB.
	rss   *rssSampler
	peaks []float64
	// setup sets the system under test up once and times it until it
	// accepts its first unit of work; setups holds the times, in seconds.
	setup  func() (time.Duration, error)
	setups []float64
}

// sampleSetup times k set-ups. Workloads take setupSamples before the timed
// rounds and roundEnd takes setupsPerRound after each, so setup_s spans
// the whole run rather than one burst of it.
func (b *bench) sampleSetup(k int) error {
	for i := 0; i < k; i++ {
		d, err := b.setup()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.setups = append(b.setups, d.Seconds())
	}
	return nil
}

const (
	setupSamples   = 9
	setupsPerRound = 2
)

// roundStart and roundEnd bracket one untraced timed round, so the peak
// resident set size is taken per round: a median over rounds is steady
// where the process-wide peak is set by one unlucky garbage-collector
// cycle.
func (b *bench) roundStart() { b.rss.take() }

func (b *bench) roundEnd() error {
	b.peaks = append(b.peaks, b.rss.take())
	return b.sampleSetup(setupsPerRound)
}

// roundTracer returns the tracer for round i: in a traced run odd rounds
// are traced and even rounds are not, so the two halves of the run give
// the tracing overhead under the same conditions.
func (b *bench) roundTracer(i int) *tracer {
	if b.traced && i%2 == 1 {
		return b.tr
	}
	return nil
}

// verify counts one oracle comparison: got must hash to want.
func (b *bench) verify(what string, got []byte, want [32]byte) {
	b.verifySum(what, sha256.Sum256(got), want)
}

// verifySum is verify for bytes already hashed.
func (b *bench) verifySum(what string, got, want [32]byte) {
	b.attempted++
	if got != want {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: bytes differ from the serial run\n", what)
	}
}

// fail counts one attempted operation that failed or was refused.
func (b *bench) fail(what string, err error) {
	b.attempted++
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
}

// set records a metric value.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// runWorkload executes one run and assembles its result; the error is
// reserved for a run that could not be carried out at all.
func runWorkload(name string, seed uint64, seconds time.Duration, traced bool, workdir string) (result, provenance, error) {
	prov := provenance{
		Workload: name, Seed: seed, Seconds: seconds.Seconds(), Trace: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
	run, ok := workloads[name]
	if !ok {
		return result{}, prov, fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return result{}, prov, err
	}
	b := &bench{seed: seed, seconds: seconds, traced: traced, workdir: workdir, values: make(map[string]float64)}
	if traced {
		b.tr = newTracer()
	}
	b.rss = startRSS()
	err := run(b)
	b.rss.close()
	if err != nil {
		return result{}, prov, fmt.Errorf("%s: %w", name, err)
	}
	if b.attempted == 0 {
		return result{}, prov, fmt.Errorf("%s: no operation was attempted", name)
	}
	b.set("success_rate", 1-float64(b.failed)/float64(b.attempted))
	b.set("peak_rss_mb", median(b.peaks))
	b.set("setup_s", median(b.setups))

	defs := endToEnd
	if traced {
		defs = perLayer
		for span, v := range b.tr.selfMillis() {
			b.set("self_ms."+span, v/float64(max(1, b.tracedRounds)))
		}
		path := filepath.Join(workdir, "traces", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := b.tr.write(path, prov); err != nil {
			return result{}, prov, err
		}
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: b.values[d.name], Unit: d.unit}
	}
	return res, prov, nil
}

// rssSampler reads the process's resident set size every few
// milliseconds and keeps the highest value seen since the last take.
type rssSampler struct {
	mu   sync.Mutex
	max  int64
	stop chan struct{}
	done chan struct{}
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	rss := residentBytes()
	s.mu.Lock()
	s.max = max(s.max, rss)
	s.mu.Unlock()
}

// take returns the peak since the previous take, in MiB, and starts anew.
func (s *rssSampler) take() float64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	peak := s.max
	s.max = 0
	return float64(peak) / (1 << 20)
}

func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// residentBytes is the process's resident set size, from the second
// field of /proc/self/statm; 0 where that file is unreadable.
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

func main() {
	workload := flag.String("workload", "", "scaling-sweep, service-mix or fabric-sweep")
	seed := flag.Uint64("seed", 1, "workload seed: drives the cell, job and lease order")
	seconds := flag.Float64("seconds", 20, "how long the timed rounds run")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for checkpoints and traces")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	res, prov, err := runWorkload(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	p, _ := json.Marshal(prov)
	r, _ := json.Marshal(res)
	fmt.Printf("provenance %s\n%s\n", p, r)
	if !res.Correct {
		os.Exit(1)
	}
}
