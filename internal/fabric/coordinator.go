package fabric

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"repro"
	"repro/internal/chaos"
	"repro/internal/plan"
	"repro/internal/service"
)

// CoordinatorConfig sizes a sweep coordinator.
type CoordinatorConfig struct {
	// Spec is the sweep to distribute.
	Spec plan.Spec
	// ShardTrials is the trial width of each shard; 0 (or anything past
	// the trial count) plans whole-cell shards.
	ShardTrials int
	// LeaseTTL bounds how long a silent worker holds a shard; 0 selects
	// 30 seconds. Workers renew at TTL/3.
	LeaseTTL time.Duration
	// Dir is the checkpoint directory (required): shard records and the
	// completion journal land here, and an existing directory for the
	// same sweep resumes instead of restarting.
	Dir string
	// Clock substitutes the lease clock in tests; nil selects time.Now.
	Clock func() time.Time
	// FS substitutes the checkpoint filesystem — the seam chaos tests
	// inject torn writes, ENOSPC and fsync failures through; nil selects
	// the real one.
	FS chaos.FS
}

// shardState is one shard's coordinator-side lifecycle.
type shardState struct {
	shard   Shard
	display string // the protocol display name records must carry

	done    bool
	sha     string // SHA-256 of the canonical record bytes, once done
	records int

	leaseID string // live lease, "" when unleased
	worker  string
	expires time.Time
	lapsed  bool // a previous lease on this shard expired (→ reissue)
}

// Coordinator distributes one sweep: it owns the shard plan, the lease
// table and the checkpoint, and serves the worker protocol (lease /
// renew / complete) plus /v1/stats over its Handler. All state changes
// go through one mutex; expiry is lazy — an expired lease is detected
// and re-issued when the next worker asks for work — so the coordinator
// needs no background goroutine and its behavior is a pure function of
// the request sequence and the clock.
type Coordinator struct {
	cfg    CoordinatorConfig
	digest string
	ck     *Checkpoint
	mux    *http.ServeMux

	mu            sync.Mutex
	shards        []*shardState
	byID          map[string]*shardState
	leases        map[string]*shardState // lease id → shard, kept for late completions
	seq           int
	leaseStats    LeaseStats
	dups          uint64
	recordsMerged uint64
	doneCount     int
	failErr       error
	doneCh        chan struct{}
	failCh        chan struct{}
}

// NewCoordinator plans the sweep, opens (or resumes) its checkpoint and
// returns a coordinator ready to serve.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fabric: coordinator needs a checkpoint directory")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("fabric: bad spec: %w", err)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.ShardTrials <= 0 || cfg.ShardTrials > cfg.Spec.Trials {
		cfg.ShardTrials = cfg.Spec.Trials
	}
	digest, err := cfg.Spec.Digest(fmt.Sprintf("fabric.shard_trials=%d", cfg.ShardTrials))
	if err != nil {
		return nil, err
	}
	shards, err := PlanShards(cfg.Spec, cfg.ShardTrials)
	if err != nil {
		return nil, err
	}
	ck, completed, err := OpenCheckpoint(cfg.Dir, digest, cfg.Spec, cfg.ShardTrials, cfg.FS)
	if err != nil {
		return nil, err
	}

	c := &Coordinator{
		cfg:    cfg,
		digest: digest,
		ck:     ck,
		byID:   make(map[string]*shardState, len(shards)),
		leases: make(map[string]*shardState),
		doneCh: make(chan struct{}),
		failCh: make(chan struct{}),
	}
	for _, sh := range shards {
		p, err := repro.NewProtocol(sh.Protocol)
		if err != nil {
			ck.Close()
			return nil, err
		}
		st := &shardState{shard: sh, display: p.Info().Name}
		if e, ok := completed[sh.ID]; ok {
			st.done = true
			st.sha = e.SHA256
			st.records = e.Records
			c.doneCount++
			c.recordsMerged += uint64(e.Records)
		}
		c.shards = append(c.shards, st)
		c.byID[sh.ID] = st
	}
	if c.doneCount == len(c.shards) {
		close(c.doneCh)
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("/v1/lease", c.handleLease)
	c.mux.HandleFunc("/v1/renew", c.handleRenew)
	c.mux.HandleFunc("/v1/complete", c.handleComplete)
	c.mux.HandleFunc("/v1/stats", c.handleStats)
	return c, nil
}

// Handler returns the coordinator's HTTP surface.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// SpecDigest returns the sweep's content address.
func (c *Coordinator) SpecDigest() string { return c.digest }

// Close releases the checkpoint journal.
func (c *Coordinator) Close() error { return c.ck.Close() }

func (c *Coordinator) now() time.Time {
	if c.cfg.Clock != nil {
		return c.cfg.Clock()
	}
	return time.Now()
}

// Wait blocks until the sweep completes (nil), fails hard (the sweep
// error) or ctx expires.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.doneCh:
		return nil
	case <-c.failCh:
		return c.Err()
	case <-ctx.Done():
		return fmt.Errorf("fabric: interrupted with %d/%d shards done (checkpoint %s resumes)", c.Stats().Shards.Done, len(c.shards), c.cfg.Dir)
	}
}

// Done is closed when every shard has completed.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Err returns the sweep's sticky failure (a determinism violation), if
// any.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failErr
}

// fail records the sweep's first hard failure; callers hold mu.
func (c *Coordinator) fail(err error) {
	if c.failErr == nil {
		c.failErr = err
		close(c.failCh)
	}
}

// Stats snapshots the fabric counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	st := Stats{
		SpecDigest:    c.digest,
		Leases:        c.leaseStats,
		RecordsMerged: c.recordsMerged,
		Done:          c.doneCount == len(c.shards),
		Checkpoint:    c.ck.Stats(),
	}
	st.Shards = ShardStats{Total: len(c.shards), Done: c.doneCount, Duplicates: c.dups}
	for _, s := range c.shards {
		if s.done {
			continue
		}
		if s.leaseID != "" && now.Before(s.expires) {
			st.Work.InFlight++
		} else {
			st.Work.QueueDepth++
		}
	}
	if c.failErr != nil {
		st.Error = c.failErr.Error()
	}
	return st
}

// handleLease hands out the first pending shard without a live lease,
// lazily expiring lapsed leases on the way.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		http.Error(w, "bad lease request", http.StatusBadRequest)
		return
	}
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failErr != nil {
		writeJSON(w, LeaseResponse{Status: StatusFailed, Error: c.failErr.Error(), SpecDigest: c.digest})
		return
	}
	if c.doneCount == len(c.shards) {
		writeJSON(w, LeaseResponse{Status: StatusDone, SpecDigest: c.digest})
		return
	}
	for _, st := range c.shards {
		if st.done {
			continue
		}
		if st.leaseID != "" {
			if now.Before(st.expires) {
				continue
			}
			// The holder went silent past its TTL: count the lapse and
			// re-issue. Its late completion, should one arrive, is still
			// welcome — identical bytes merge idempotently.
			c.leaseStats.Expired++
			st.leaseID = ""
			st.lapsed = true
		}
		c.seq++
		id := fmt.Sprintf("l-%06d", c.seq)
		st.leaseID = id
		st.worker = req.Worker
		st.expires = now.Add(c.cfg.LeaseTTL)
		c.leases[id] = st
		c.leaseStats.Issued++
		if st.lapsed {
			c.leaseStats.Reissued++
		}
		sh := st.shard
		writeJSON(w, LeaseResponse{
			Status:     StatusShard,
			LeaseID:    id,
			TTLMillis:  c.cfg.LeaseTTL.Milliseconds(),
			Shard:      &sh,
			Scenario:   c.cfg.Spec.Scenario,
			SpecDigest: c.digest,
		})
		return
	}
	writeJSON(w, LeaseResponse{Status: StatusWait, SpecDigest: c.digest})
}

// handleRenew extends a live lease; a lease that lapsed, was superseded
// or whose shard already completed answers 410 Gone, telling the worker
// to stop heartbeating (and, for a lapsed lease, to abandon the run —
// the shard is someone else's now).
func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req RenewRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad renew request", http.StatusBadRequest)
		return
	}
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.leases[req.LeaseID]
	if !ok || st.done || st.leaseID != req.LeaseID {
		http.Error(w, "lease gone", http.StatusGone)
		return
	}
	if !now.Before(st.expires) {
		c.leaseStats.Expired++
		st.leaseID = ""
		st.lapsed = true
		http.Error(w, "lease expired", http.StatusGone)
		return
	}
	st.expires = now.Add(c.cfg.LeaseTTL)
	c.leaseStats.Renewed++
	writeJSON(w, RenewResponse{TTLMillis: c.cfg.LeaseTTL.Milliseconds()})
}

// handleComplete accepts a shard's record bytes (gzip or plain JSONL
// body), validates them against the shard's trial range, persists them
// to the checkpoint and marks the shard done. Completion is decoupled
// from lease liveness: a straggler whose lease lapsed may still land
// its shard — first completion wins, identical duplicates are counted
// and dropped, and a conflicting duplicate fails the sweep loudly (two
// workers disagreeing about a pure function is a determinism violation,
// never something to paper over).
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	leaseID := r.URL.Query().Get("lease_id")
	c.mu.Lock()
	st, ok := c.leases[leaseID]
	c.mu.Unlock()
	if !ok {
		http.Error(w, "unknown lease", http.StatusGone)
		return
	}

	// Decode and canonicalize outside the lock — CPU-bound work no other
	// shard should wait on.
	canonical, err := canonicalShardBytes(st.shard, st.display, r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sum := sha256.Sum256(canonical)
	sha := hex.EncodeToString(sum[:])

	c.mu.Lock()
	defer c.mu.Unlock()
	if st.done {
		if st.sha == sha {
			c.dups++
			writeJSON(w, map[string]string{"status": "duplicate"})
			return
		}
		err := fmt.Errorf("fabric: shard %s completed twice with different bytes — determinism violation (have %.12s…, got %.12s…)", st.shard.ID, st.sha, sha)
		c.fail(err)
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	entry := journalEntry{Shard: st.shard.ID, SHA256: sha, Records: plan.CountLines(canonical), Worker: st.worker}
	if err := c.ck.WriteShard(entry, canonical); err != nil {
		http.Error(w, fmt.Sprintf("checkpoint: %v", err), http.StatusInternalServerError)
		return
	}
	st.done = true
	st.sha = sha
	st.records = entry.Records
	st.leaseID = ""
	c.doneCount++
	c.recordsMerged += uint64(entry.Records)
	if c.doneCount == len(c.shards) {
		close(c.doneCh)
	}
	writeJSON(w, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, c.Stats())
}

// canonicalShardBytes decodes an uploaded shard body (gzip-sniffed) and
// re-serializes it canonically — trial order, compact JSON — after
// validating every record sits in the shard's range with the shard's
// protocol and size, and that the range is covered exactly once.
func canonicalShardBytes(sh Shard, display string, body io.Reader) ([]byte, error) {
	col := plan.NewCollector(sh.Lo, sh.Hi)
	err := repro.DecodeTrialRecords(body, func(rec repro.TrialRecord) error {
		if rec.Protocol != display || rec.N != sh.N {
			return fmt.Errorf("record (%s, n=%d) does not belong to shard %s (%s, n=%d)", rec.Protocol, rec.N, sh.ID, display, sh.N)
		}
		return col.Record(rec)
	})
	if err != nil {
		return nil, fmt.Errorf("shard %s upload: %w", sh.ID, err)
	}
	canonical, err := col.Encode()
	if err != nil {
		return nil, fmt.Errorf("shard %s upload: %w", sh.ID, err)
	}
	return canonical, nil
}

// Merged folds the checkpoint's shard files into the canonical record
// stream, byte-identical to a serial run's (see repro.MergeShards). It
// is only meaningful once Done.
func (c *Coordinator) Merged() ([]repro.TrialRecord, error) {
	c.mu.Lock()
	paths := make([]string, 0, len(c.shards))
	for _, st := range c.shards {
		if st.done {
			paths = append(paths, c.ck.ShardPath(st.shard.ID))
		}
	}
	c.mu.Unlock()
	readers := make([]io.Reader, 0, len(paths))
	files := make([]*os.File, 0, len(paths))
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		readers = append(readers, f)
	}
	return repro.MergeShards(c.cfg.Spec.Experiment(), readers...)
}

// WorkGauges are the coordinator's shard-granularity gauges, the same
// shape the service exports for cells.
func (c *Coordinator) WorkGauges() service.WorkGauges { return c.Stats().Work }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
