package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanNames are the layer boundaries the benchmark's own wrappers mark.
// Every traced run reports the self time of each, zero where a workload
// never crosses that boundary.
var spanNames = []string{
	"round",      // one spec → verified canonical bytes (the root of a traced round)
	"trial",      // Probe Begin → End: one trial in the engine
	"sink",       // Sink.Record: the record reaching the benchmark's collector
	"encode",     // plan.Collector.Encode of one cell
	"verify",     // sha256 of the canonical bytes against the serial run
	"submit",     // POST /v1/jobs round trip
	"stream",     // GET /v1/jobs/{id}/records until the last byte
	"lease",      // POST /v1/lease round trip
	"run",        // a fabric worker running its leased shard (lease reply → upload)
	"complete",   // POST /v1/complete round trip
	"checkpoint", // a checkpoint file write or journal append + fsync
	"merge",      // Coordinator.Merged + WriteTrialRecords
}

// span is one traced interval. Parent 0 marks a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced rounds skip every wrapper's bookkeeping.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: float64(start.Sub(t.epoch).Nanoseconds()) / 1e3,
		End:   float64(end.Sub(t.epoch).Nanoseconds()) / 1e3,
	})
	return id
}

// open starts a span whose end is not known yet; close finishes it.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	end := float64(time.Since(t.epoch).Nanoseconds()) / 1e3
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// selfMillis sums, per span name, each span's duration minus the part of
// its interval that its children cover. Children run concurrently (two
// workers, two clients), so their intervals are merged before subtracting.
func (t *tracer) selfMillis() map[string]float64 {
	out := make(map[string]float64, len(spanNames))
	for _, name := range spanNames {
		out[name] = 0
	}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		covered := 0.0
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		lo, hi := s.Start, s.Start
		for _, iv := range ivs {
			a, b := max(iv[0], s.Start), min(iv[1], s.End)
			if b <= a {
				continue
			}
			if a > hi {
				covered += hi - lo
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		covered += hi - lo
		out[s.Name] += (s.End - s.Start - covered) / 1e3
	}
	return out
}

// write saves the spans and the run's provenance as one JSON file.
func (t *tracer) write(path string, prov provenance) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}{prov, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
