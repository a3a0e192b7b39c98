package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro"
	"repro/internal/plan"
	"repro/internal/xrand"
)

// row is one protocol of a sweep with the ring sizes it runs at.
type row struct {
	proto string
	sizes []int
}

// cell is one (protocol, size) cell in canonical order.
type cell struct {
	proto   string // registry name
	rawN    int    // requested size
	display string // ProtocolInfo.Name, which records carry
	n       int    // FixSize-adjusted size
}

type cellKey struct {
	display string
	n       int
}

// planCells expands rows into their cells, in the order an Experiment
// visits them.
func planCells(rows []row) ([]cell, error) {
	var cells []cell
	for _, r := range rows {
		p, err := repro.NewProtocol(r.proto)
		if err != nil {
			return nil, err
		}
		for _, n := range r.sizes {
			cells = append(cells, cell{proto: r.proto, rawN: n, display: p.Info().Name, n: p.FixSize(n)})
		}
	}
	return cells, nil
}

// shuffled returns a copy of xs in an order drawn from seed.
func shuffled[T any](xs []T, seed uint64) []T {
	out := append([]T(nil), xs...)
	rng := xrand.New(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// cellSink collects an experiment's records into one plan.Collector per
// cell, so a library run yields the canonical bytes (cell order, then
// trial order) that the service and the fabric ship. The Experiment
// serializes Record calls, so the sink needs no lock of its own.
type cellSink struct {
	index map[cellKey]int
	cols  []*plan.Collector
	left  []int       // records still due, per cell
	done  []time.Time // when each cell's last record arrived

	tr     *tracer
	parent int
	trials *trialLog // nil when untraced
}

func newCellSink(cells []cell, trials int, tr *tracer, parent int, log *trialLog) *cellSink {
	s := &cellSink{
		index: make(map[cellKey]int, len(cells)),
		cols:  make([]*plan.Collector, len(cells)), left: make([]int, len(cells)), done: make([]time.Time, len(cells)),
		tr: tr, parent: parent, trials: log,
	}
	for i, c := range cells {
		s.index[cellKey{c.display, c.n}] = i
		s.cols[i] = plan.NewCollector(0, trials)
		s.left[i] = trials
	}
	return s
}

// Record implements repro.Sink.
func (s *cellSink) Record(rec repro.TrialRecord) error {
	start := time.Now()
	i, ok := s.index[cellKey{rec.Protocol, rec.N}]
	if !ok {
		return fmt.Errorf("record for unplanned cell (%s, n=%d)", rec.Protocol, rec.N)
	}
	if err := s.cols[i].Record(rec); err != nil {
		return err
	}
	if s.left[i]--; s.left[i] == 0 {
		s.done[i] = time.Now()
	}
	if s.tr != nil {
		s.tr.add("sink", s.parent, start, time.Now())
		s.trials.recorded(rec, start)
	}
	return nil
}

// Close implements repro.Sink.
func (s *cellSink) Close() error { return nil }

// encode returns each cell's canonical bytes.
func (s *cellSink) encode() ([][]byte, error) {
	out := make([][]byte, len(s.cols))
	for i, col := range s.cols {
		start := time.Now()
		data, err := col.Encode()
		if err != nil {
			return nil, err
		}
		s.tr.add("encode", s.parent, start, time.Now())
		out[i] = data
	}
	return out, nil
}

// trialLog gathers what the timing probes of traced rounds saw: trial
// spans, the steps they ran, and how long each record then waited for
// the sink.
type trialLog struct {
	mu    sync.Mutex
	ends  map[trialKey]time.Time
	steps uint64
	durs  []float64 // ms per trial
	waits []float64 // ms from Probe End to Sink.Record
}

type trialKey struct {
	display string
	n       int
	seed    uint64
}

func newTrialLog() *trialLog { return &trialLog{ends: make(map[trialKey]time.Time)} }

func (l *trialLog) ended(k trialKey, start, end time.Time, steps uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ends[k] = end
	l.steps += steps
	l.durs = append(l.durs, ms(end.Sub(start)))
}

func (l *trialLog) recorded(rec repro.TrialRecord, at time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := trialKey{rec.Protocol, rec.N, rec.Seed}
	if end, ok := l.ends[k]; ok {
		l.waits = append(l.waits, ms(at.Sub(end)))
		delete(l.ends, k)
	}
}

// timingProbe marks one trial's Begin → End as a "trial" span. The
// Experiment builds one per trial, alongside its recording probe.
type timingProbe struct {
	tr     *tracer
	parent int
	log    *trialLog
	key    trialKey
	start  time.Time
}

func (p *timingProbe) Begin(protocol string, n int, seed uint64) {
	p.key = trialKey{protocol, n, seed}
	p.start = time.Now()
}

func (p *timingProbe) Observe(repro.TrialEvent) {}

func (p *timingProbe) End(res repro.TrialResult) {
	end := time.Now()
	p.tr.add("trial", p.parent, p.start, end)
	p.log.ended(p.key, p.start, end, res.Steps)
}

// sampleEngine replays the first trials of each cell outside the system
// under test and splits a trial's time three ways: the cold
// Protocol.Trial, the warm-table replay RunBenchmark(BenchInterned)
// times after its own untimed fill, and ProbeTrial with the recording
// probe. It returns the plain trials' steps per second and median
// duration for workloads whose trials run where no probe can reach.
func (b *bench) sampleEngine(cells []cell, trials int) (stepsPerS, trialMS float64, err error) {
	var plain, probed, warm float64
	var steps uint64
	var durs []float64
	fallbacks := 0
	for _, c := range cells {
		p, err := repro.NewProtocol(c.proto)
		if err != nil {
			return 0, 0, err
		}
		for t := 0; t < trials; t++ {
			seed := repro.TrialSeed(c.n, t)
			start := time.Now()
			res, err := p.Trial(repro.Scenario{}, c.n, seed)
			if err != nil {
				return 0, 0, err
			}
			d := time.Since(start)
			plain += d.Seconds()
			steps += res.Steps
			durs = append(durs, ms(d))

			start = time.Now()
			if _, err := repro.ProbeTrial(p, repro.Scenario{}, c.n, seed, &repro.RecordingProbe{}); err != nil {
				return 0, 0, err
			}
			probed += time.Since(start).Seconds()

			br, err := repro.RunBenchmark(c.proto, c.n, seed, repro.Scenario{}, repro.BenchInterned, 0)
			if err != nil {
				return 0, 0, err
			}
			warm += br.Seconds
			if br.Fallback {
				fallbacks++
			}
		}
	}
	b.set("population.fill_share", 1-warm/plain)
	b.set("population.fallback_trials", float64(fallbacks))
	b.set("repro.probe_share", (probed-plain)/probed)
	return float64(steps) / plain, median(durs), nil
}

// encodeReplay decodes each cell's canonical bytes and times the two
// encoders on the records: json.Marshal per record, and a plan.Collector
// fed every record and then encoded. The collector must reproduce the
// cell's bytes exactly; that counts as one oracle check per cell.
func (b *bench) encodeReplay(cells [][]byte, want [][32]byte) error {
	var marshal, collect time.Duration
	var records, size int
	for i, data := range cells {
		recs, err := repro.ReadTrialRecords(bytes.NewReader(data))
		if err != nil {
			return err
		}
		for _, rec := range recs {
			start := time.Now()
			out, err := json.Marshal(rec)
			marshal += time.Since(start)
			if err != nil {
				return err
			}
			size += len(out)
		}
		records += len(recs)

		start := time.Now()
		col := plan.NewCollector(0, len(recs))
		for _, rec := range recs {
			if err := col.Record(rec); err != nil {
				return err
			}
		}
		enc, err := col.Encode()
		collect += time.Since(start)
		if err != nil {
			return err
		}
		b.verify(fmt.Sprintf("collector replay of cell %d", i), enc, want[i])
	}
	b.set("repro.encode_us_per_record", float64(marshal.Nanoseconds())/1e3/float64(records))
	b.set("repro.bytes_per_record", float64(size)/float64(records))
	b.set("plan.encode_ms_per_cell", ms(collect)/float64(len(cells)))
	return nil
}

// hashes returns the sha256 of each byte slice.
func hashes(parts [][]byte) [][32]byte {
	out := make([][32]byte, len(parts))
	for i, p := range parts {
		out[i] = sha256.Sum256(p)
	}
	return out
}
