// Package plan is the shared sweep-planning layer of the serving and
// fabric tiers: the wire Spec of one Experiment (protocols × sizes ×
// scenario × trials × metrics), its expansion into deterministic
// (protocol, size) cells, the content digest that names each cell, and
// the canonical trial-order JSONL encoding of a cell's records.
//
// Both the experiment service (internal/service) and the distributed
// sweep fabric (internal/fabric) consume this package, which is what
// keeps their guarantees aligned: a cell digest computed by the fabric
// coordinator is the same digest the service cache uses, and the
// canonical record bytes a fabric worker uploads are the bytes a service
// cold run would have produced for the same cell.
package plan

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"repro"
)

// SpecVersion versions the cell digest: any change to the TrialRecord
// schema, the seed derivation, or the cell execution semantics must bump
// it so stale cache entries (including spilled ones) can never serve
// records under the new semantics.
const SpecVersion = "repro.cell/v1"

// MetricSpec is the wire form of a repro.Metric.
type MetricSpec struct {
	Observable string `json:"observable"`
	Agg        string `json:"agg"`
	Label      string `json:"label,omitempty"`
}

// Spec is the wire configuration of one Experiment — the JSON body of
// the service's POST /v1/jobs and of the fabric coordinator's -spec
// file. Protocols, Sizes and Trials are required; everything else
// defaults to the zero Experiment behavior (zero Scenario = the standard
// random-adversary run, no metrics, no size caps).
type Spec struct {
	// Protocols names registered protocols, in row order.
	Protocols []string `json:"protocols"`
	// Sizes lists requested ring sizes (protocols adjust them via FixSize).
	Sizes []int `json:"sizes"`
	// Trials is the number of trials per (protocol, size) cell.
	Trials int `json:"trials"`
	// Scenario is shared by every cell; the zero value is the standard
	// experiment.
	Scenario repro.Scenario `json:"scenario,omitempty"`
	// Metrics adds composable report aggregations (rendered in /report).
	Metrics []MetricSpec `json:"metrics,omitempty"`
	// MaxSize caps the sizes run per protocol, like
	// Experiment.MaxSizeFor; capped cells render as missing. Keys are
	// registry names — the same namespace as Protocols — and are
	// translated to the display names Experiment matching uses.
	MaxSize map[string]int `json:"max_size,omitempty"`
	// TimeoutMillis bounds the job's wall-clock execution in the serving
	// tiers (0 = the server's default, if any). A deadline changes when a
	// job is allowed to finish, never what its trials compute, so it is
	// deliberately excluded from cell digests (omitempty keeps it out of
	// the spec digest for specs that don't set it).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// metrics converts the wire metrics to repro.Metric values.
func (s Spec) metrics() []repro.Metric {
	out := make([]repro.Metric, 0, len(s.Metrics))
	for _, m := range s.Metrics {
		out = append(out, repro.Metric{Observable: m.Observable, Agg: m.Agg, Label: m.Label})
	}
	return out
}

// Experiment compiles the spec into a fresh Experiment builder. Every
// caller builds its own: Experiment values are cheap and must never be
// shared across concurrently-running jobs.
func (s Spec) Experiment() *repro.Experiment {
	e := repro.NewExperiment().
		ProtocolNames(s.Protocols...).
		Sizes(s.Sizes...).
		Trials(s.Trials).
		Scenario(s.Scenario).
		Metrics(s.metrics()...)
	for name, max := range s.MaxSize {
		// Experiment.MaxSizeFor matches ProtocolInfo.Name (the Table 1
		// display name); the wire contract uses registry names, so
		// translate. Unknown names are caught by Validate.
		if p, err := repro.NewProtocol(name); err == nil {
			e = e.MaxSizeFor(p.Info().Name, max)
		}
	}
	return e
}

// Validate rejects malformed specs before any work is queued, reusing
// the Experiment's own validation (unknown protocols, empty matrix, ring
// sizes below 2, unsupported scenarios, bad metrics) so the serving tiers
// and the library never disagree about what a runnable spec is.
func (s Spec) Validate() error {
	if len(s.Protocols) == 0 {
		return fmt.Errorf("spec has no protocols")
	}
	if len(s.Sizes) == 0 {
		return fmt.Errorf("spec has no sizes")
	}
	if s.Trials < 1 {
		return fmt.Errorf("spec needs trials >= 1, got %d", s.Trials)
	}
	if s.TimeoutMillis < 0 {
		return fmt.Errorf("spec needs timeout_ms >= 0, got %d", s.TimeoutMillis)
	}
	for name := range s.MaxSize {
		if _, err := repro.NewProtocol(name); err != nil {
			return fmt.Errorf("max_size: %w", err)
		}
	}
	return s.Experiment().Validate()
}

// Digest content-addresses the whole spec (plus the caller's extra
// context, such as the fabric's shard width) — the identity a resumable
// checkpoint is validated against. Cells carry their own finer-grained
// digest in Key.
func (s Spec) Digest(extra string) (string, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|spec=%s|extra=%s", SpecVersion, data, extra)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Cell is one (protocol, size) cell of a planned sweep, in deterministic
// execution order: protocol row order, then size order — exactly the
// order Experiment.Run visits cells. Each cell's bytes come from
// repro.RunCell in trial order, so the concatenated stream is
// byte-identical to a library run's sink stream at Workers(1).
type Cell struct {
	Protocol string
	RawN     int
	N        int // FixSize-adjusted
	Skipped  bool
	Key      string // content digest; empty for skipped cells
}

// Cells expands the spec into its cell list and validates protocol names
// on the way (NewProtocol errors surface here).
func (s Spec) Cells() ([]Cell, error) {
	scenario, err := json.Marshal(s.Scenario)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, name := range s.Protocols {
		p, err := repro.NewProtocol(name)
		if err != nil {
			return nil, err
		}
		for _, rawN := range s.Sizes {
			n := p.FixSize(rawN)
			cell := Cell{Protocol: name, RawN: rawN, N: n}
			if max, capped := s.MaxSize[name]; capped && rawN > max {
				cell.Skipped = true
			} else {
				cell.Key = CellDigest(name, scenario, n, s.Trials)
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// CellDigest is the content address of one cell's record bytes: a
// SHA-256 over the schema version, protocol name, canonical scenario
// JSON, the FixSize-adjusted ring size and the trial count. Seeds need no
// explicit mention — they are the pure function repro.TrialSeed(n, t) of
// n and t, so (n, trials) pins the seed range. Two requested sizes that
// FixSize to the same n share a digest and therefore a cache entry, as
// they must: their records are identical.
func CellDigest(protocol string, scenarioJSON []byte, n, trials int) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|proto=%s|scenario=%s|n=%d|trials=%d", SpecVersion, protocol, scenarioJSON, n, trials)
	return hex.EncodeToString(h.Sum(nil))
}

// Collector buffers the records of one trial range [lo, hi) by trial
// index, accepting them in any order, and Encode emits them in trial
// order — the canonical byte form every serving tier ships and compares.
// The fabric coordinator re-canonicalizes shard uploads through it, so a
// second record for a trial it already holds is an error, never a silent
// overwrite.
type Collector struct {
	lo   int
	mu   sync.Mutex
	recs []repro.TrialRecord
	have []bool
}

// NewCollector returns a collector for trials [lo, hi).
func NewCollector(lo, hi int) *Collector {
	return &Collector{lo: lo, recs: make([]repro.TrialRecord, hi-lo), have: make([]bool, hi-lo)}
}

// Record implements repro.Sink.
func (c *Collector) Record(rec repro.TrialRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := rec.Trial - c.lo
	if i < 0 || i >= len(c.recs) {
		return fmt.Errorf("record trial %d out of range [%d,%d)", rec.Trial, c.lo, c.lo+len(c.recs))
	}
	if c.have[i] {
		return fmt.Errorf("duplicate record for trial %d", rec.Trial)
	}
	c.recs[i], c.have[i] = rec, true
	return nil
}

// Close implements repro.Sink.
func (c *Collector) Close() error { return nil }

// Encode emits the canonical JSONL bytes of the range through
// repro.WriteTrialRecords: trial order, one compact JSON object per line.
// json.Marshal sorts map keys, so the bytes are a pure function of the
// records — the property both the content-addressed cache and the
// fabric's byte-identical merge lean on.
func (c *Collector) Encode() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, ok := range c.have {
		if !ok {
			return nil, fmt.Errorf("trial %d finished without a record", c.lo+i)
		}
	}
	var buf bytes.Buffer
	if err := repro.WriteTrialRecords(&buf, c.recs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// CountLines counts the records in a JSONL byte block.
func CountLines(data []byte) int {
	return bytes.Count(data, []byte{'\n'})
}
