package fabric_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/fabric"
	"repro/internal/plan"
)

// fabricSpec is the fixture sweep: two protocols, two sizes, three
// trials, one size cap exercising skipped cells — 3 runnable cells, 9
// single-trial shards.
func fabricSpec() plan.Spec {
	return plan.Spec{
		Protocols: []string{"ppl", "angluin"},
		Sizes:     []int{8, 16},
		Trials:    3,
		MaxSize:   map[string]int{"angluin": 8},
	}
}

// serialBytes runs the fixture serially through the library and returns
// the canonical record stream — the golden every fabric path must hit.
func serialBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := repro.NewJSONLSink(&buf)
	if err := fabricSpec().Experiment().Workers(1).Sinks(sink).Stream(context.Background()); err != nil {
		t.Fatalf("serial stream: %v", err)
	}
	return buf.Bytes()
}

// mergedBytes renders a coordinator's merged stream.
func mergedBytes(t *testing.T, c *fabric.Coordinator) []byte {
	t.Helper()
	merged, err := c.Merged()
	if err != nil {
		t.Fatalf("Merged: %v", err)
	}
	var buf bytes.Buffer
	if err := repro.WriteTrialRecords(&buf, merged); err != nil {
		t.Fatalf("write merged: %v", err)
	}
	return buf.Bytes()
}

// fakeClock drives lease expiry without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// lease, renew and complete drive the coordinator's wire protocol
// directly — the tests play worker.
func lease(t *testing.T, url, worker string) fabric.LeaseResponse {
	t.Helper()
	body, _ := json.Marshal(fabric.LeaseRequest{Worker: worker})
	resp, err := http.Post(url+"/v1/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease = %d", resp.StatusCode)
	}
	var out fabric.LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode lease: %v", err)
	}
	return out
}

func renew(t *testing.T, url, leaseID string) int {
	t.Helper()
	body, _ := json.Marshal(fabric.RenewRequest{LeaseID: leaseID})
	resp, err := http.Post(url+"/v1/renew", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("renew: %v", err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func complete(t *testing.T, url, leaseID string, canonical []byte) int {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/v1/complete?lease_id=%s", url, leaseID), "application/gzip", bytes.NewReader(canonical))
	if err != nil {
		t.Fatalf("complete: %v", err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// runShard produces a shard's canonical bytes the way a worker would.
func runShard(t *testing.T, lr fabric.LeaseResponse) []byte {
	t.Helper()
	data, err := fabric.RunShard(context.Background(), *lr.Shard, lr.Scenario, 1)
	if err != nil {
		t.Fatalf("RunShard(%s): %v", lr.Shard.ID, err)
	}
	return data
}

func newCoordinator(t *testing.T, dir string, clock func() time.Time, ttl time.Duration) (*fabric.Coordinator, *httptest.Server) {
	t.Helper()
	c, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Spec:        fabricSpec(),
		ShardTrials: 1,
		LeaseTTL:    ttl,
		Dir:         dir,
		Clock:       clock,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	return c, ts
}

func TestPlanShards(t *testing.T) {
	shards, err := fabric.PlanShards(fabricSpec(), 2)
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	// 3 runnable cells (angluin@16 is capped) × trials 3 at width 2 →
	// ranges [0,2) and [2,3): 6 shards.
	if len(shards) != 6 {
		t.Fatalf("got %d shards, want 6: %+v", len(shards), shards)
	}
	for _, sh := range shards {
		if sh.Protocol == "angluin" && sh.RawN == 16 {
			t.Fatalf("capped cell was planned: %+v", sh)
		}
		if sh.CellKey == "" {
			t.Fatalf("shard without cell digest: %+v", sh)
		}
	}
	if shards[0].Lo != 0 || shards[0].Hi != 2 || shards[1].Lo != 2 || shards[1].Hi != 3 {
		t.Fatalf("unexpected trial ranges: %+v %+v", shards[0], shards[1])
	}

	// Whole-cell planning (width 0).
	whole, err := fabric.PlanShards(fabricSpec(), 0)
	if err != nil {
		t.Fatalf("PlanShards(0): %v", err)
	}
	if len(whole) != 3 {
		t.Fatalf("got %d whole-cell shards, want 3", len(whole))
	}
}

// TestLeaseExpiryReissueAndLateDuplicate walks the straggler story on a
// fake clock: a worker leases a shard and goes silent, the lease lapses,
// the shard is re-issued to a second worker who completes it, and the
// straggler's late identical upload is accepted as a duplicate. The
// sweep then finishes and must still merge byte-identical to serial.
func TestLeaseExpiryReissueAndLateDuplicate(t *testing.T) {
	clock := newFakeClock()
	c, ts := newCoordinator(t, t.TempDir(), clock.Now, time.Second)

	l1 := lease(t, ts.URL, "w1")
	if l1.Status != fabric.StatusShard {
		t.Fatalf("lease = %+v, want a shard", l1)
	}

	// A live lease renews; the shard is not re-issued while held.
	if code := renew(t, ts.URL, l1.LeaseID); code != http.StatusOK {
		t.Fatalf("renew live lease = %d, want 200", code)
	}

	// w1 goes silent past the TTL: its heartbeat is refused...
	clock.Advance(3 * time.Second)
	if code := renew(t, ts.URL, l1.LeaseID); code != http.StatusGone {
		t.Fatalf("renew lapsed lease = %d, want 410", code)
	}
	// ...and the shard goes to the next asker.
	l2 := lease(t, ts.URL, "w2")
	if l2.Status != fabric.StatusShard || l2.Shard.ID != l1.Shard.ID {
		t.Fatalf("re-issued lease = %+v, want shard %s", l2, l1.Shard.ID)
	}
	st := c.Stats()
	if st.Leases.Expired != 1 || st.Leases.Reissued != 1 {
		t.Fatalf("lease stats = %+v, want 1 expired / 1 reissued", st.Leases)
	}

	data := runShard(t, l2)
	if code := complete(t, ts.URL, l2.LeaseID, data); code != http.StatusOK {
		t.Fatalf("complete = %d, want 200", code)
	}
	// The straggler finally finishes the same pure function: idempotent.
	if code := complete(t, ts.URL, l1.LeaseID, data); code != http.StatusOK {
		t.Fatalf("late duplicate complete = %d, want 200", code)
	}
	if st := c.Stats(); st.Shards.Duplicates != 1 || st.Shards.Done != 1 {
		t.Fatalf("shard stats = %+v, want 1 duplicate / 1 done", st.Shards)
	}

	// Finish the sweep and check the byte-identity survived the drama.
	for {
		lr := lease(t, ts.URL, "w2")
		if lr.Status == fabric.StatusDone {
			break
		}
		if lr.Status != fabric.StatusShard {
			t.Fatalf("lease = %+v", lr)
		}
		if code := complete(t, ts.URL, lr.LeaseID, runShard(t, lr)); code != http.StatusOK {
			t.Fatalf("complete %s = %d", lr.Shard.ID, code)
		}
	}
	if got, want := mergedBytes(t, c), serialBytes(t); !bytes.Equal(got, want) {
		t.Fatal("merged stream differs from serial stream")
	}
}

// TestConflictingCompletionFailsSweep: two completions of one shard
// with different bytes is a determinism violation — 409, and the sweep
// fails loudly rather than picking a winner.
func TestConflictingCompletionFailsSweep(t *testing.T) {
	clock := newFakeClock()
	c, ts := newCoordinator(t, t.TempDir(), clock.Now, time.Minute)

	l1 := lease(t, ts.URL, "w1")
	data := runShard(t, l1)
	if code := complete(t, ts.URL, l1.LeaseID, data); code != http.StatusOK {
		t.Fatalf("complete = %d", code)
	}

	// Forge a conflicting record set: same trial range, different steps.
	recs, err := repro.ReadTrialRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	recs[0].Steps += 17
	var forged bytes.Buffer
	if err := repro.WriteTrialRecords(&forged, recs); err != nil {
		t.Fatalf("write forged: %v", err)
	}
	if code := complete(t, ts.URL, l1.LeaseID, forged.Bytes()); code != http.StatusConflict {
		t.Fatalf("conflicting complete = %d, want 409", code)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "determinism") {
		t.Fatalf("coordinator error = %v, want determinism violation", err)
	}
	if lr := lease(t, ts.URL, "w2"); lr.Status != fabric.StatusFailed {
		t.Fatalf("lease after violation = %+v, want failed", lr)
	}
}

// TestDuplicateTrialUploadIs400: an upload carrying one trial twice is
// malformed, whichever copy would have won — 400, and the shard stays
// open for a well-formed completion.
func TestDuplicateTrialUploadIs400(t *testing.T) {
	c, ts := newCoordinator(t, t.TempDir(), newFakeClock().Now, time.Minute)

	l1 := lease(t, ts.URL, "w1")
	data := runShard(t, l1)
	recs, err := repro.ReadTrialRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	twin := recs[0]
	twin.Steps += 17
	var dup bytes.Buffer
	if err := repro.WriteTrialRecords(&dup, append(recs, twin)); err != nil {
		t.Fatalf("write duplicate: %v", err)
	}
	if code := complete(t, ts.URL, l1.LeaseID, dup.Bytes()); code != http.StatusBadRequest {
		t.Fatalf("duplicate-trial complete = %d, want 400", code)
	}
	if st := c.Stats(); st.Shards.Done != 0 || c.Err() != nil {
		t.Fatalf("rejected upload changed the sweep: shards %+v, err %v", st.Shards, c.Err())
	}
	if code := complete(t, ts.URL, l1.LeaseID, data); code != http.StatusOK {
		t.Fatalf("well-formed complete = %d, want 200", code)
	}
}

// TestCoordinatorKillResume: complete part of the sweep, tear the
// coordinator down (its only persistent state is the checkpoint, which
// is fsynced per completion — indistinguishable from a kill), and boot
// a fresh one on the directory: finished shards must not re-lease, and
// the finished sweep must still merge byte-identical to serial.
func TestCoordinatorKillResume(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()

	c1, ts1 := newCoordinator(t, dir, clock.Now, time.Minute)
	doneIDs := make(map[string]bool)
	for i := 0; i < 4; i++ {
		lr := lease(t, ts1.URL, "w1")
		if lr.Status != fabric.StatusShard {
			t.Fatalf("lease %d = %+v", i, lr)
		}
		if code := complete(t, ts1.URL, lr.LeaseID, runShard(t, lr)); code != http.StatusOK {
			t.Fatalf("complete = %d", code)
		}
		doneIDs[lr.Shard.ID] = true
	}
	// One in-flight lease dies with the coordinator; its shard must
	// simply re-lease on the successor.
	inflight := lease(t, ts1.URL, "w1")
	if inflight.Status != fabric.StatusShard {
		t.Fatalf("in-flight lease = %+v", inflight)
	}
	if st := c1.Stats(); st.Shards.Done != 4 {
		t.Fatalf("pre-kill done = %d, want 4", st.Shards.Done)
	}
	ts1.Close()
	c1.Close()

	c2, ts2 := newCoordinator(t, dir, clock.Now, time.Minute)
	if st := c2.Stats(); st.Shards.Done != 4 {
		t.Fatalf("resumed done = %d, want 4", st.Shards.Done)
	}
	for {
		lr := lease(t, ts2.URL, "w2")
		if lr.Status == fabric.StatusDone {
			break
		}
		if lr.Status != fabric.StatusShard {
			t.Fatalf("lease = %+v", lr)
		}
		if doneIDs[lr.Shard.ID] {
			t.Fatalf("resumed coordinator re-leased finished shard %s", lr.Shard.ID)
		}
		if code := complete(t, ts2.URL, lr.LeaseID, runShard(t, lr)); code != http.StatusOK {
			t.Fatalf("complete = %d", code)
		}
	}
	select {
	case <-c2.Done():
	default:
		t.Fatal("Done not closed after last shard")
	}
	if got, want := mergedBytes(t, c2), serialBytes(t); !bytes.Equal(got, want) {
		t.Fatal("resumed merge differs from serial stream")
	}
}

// TestCheckpointRejectsForeignSweep: a checkpoint directory binds to one
// sweep digest; reusing it for a different spec must refuse, not mix
// records.
func TestCheckpointRejectsForeignSweep(t *testing.T) {
	dir := t.TempDir()
	c, _ := newCoordinator(t, dir, nil, time.Minute)
	_ = c

	other := fabricSpec()
	other.Trials = 5
	_, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Spec: other, ShardTrials: 1, Dir: dir,
	})
	if err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("foreign spec reuse err = %v, want digest mismatch", err)
	}
}

// TestFabricEndToEndTwoWorkers is the integration path: a live
// coordinator and two concurrent worker loops (run under -race in CI)
// drain the sweep; the merged stream and Report must be byte-identical
// to the serial run, and the stats endpoint must mirror the service's
// shape.
func TestFabricEndToEndTwoWorkers(t *testing.T) {
	c, ts := newCoordinator(t, t.TempDir(), nil, 10*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fabric.Work(ctx, fabric.WorkerConfig{
				Coordinator:  ts.URL,
				Name:         fmt.Sprintf("w%d", i),
				TrialWorkers: 2,
				Poll:         5 * time.Millisecond,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	st := c.Stats()
	if !st.Done || st.Shards.Done != st.Shards.Total || st.Shards.Total != 9 {
		t.Fatalf("stats = %+v, want 9/9 shards done", st)
	}
	if st.RecordsMerged != 9 {
		t.Fatalf("records merged = %d, want 9", st.RecordsMerged)
	}
	if st.Work.InFlight != 0 || st.Work.QueueDepth != 0 {
		t.Fatalf("work gauges not drained: %+v", st.Work)
	}

	got, want := mergedBytes(t, c), serialBytes(t)
	if !bytes.Equal(got, want) {
		t.Fatalf("two-worker merge differs from serial stream:\nfabric: %s\nserial: %s", got, want)
	}

	// Report byte-identity, end to end.
	merged, err := c.Merged()
	if err != nil {
		t.Fatalf("Merged: %v", err)
	}
	rep, err := fabricSpec().Experiment().ReportFromRecords(merged)
	if err != nil {
		t.Fatalf("ReportFromRecords: %v", err)
	}
	gotJSON, err := rep.JSON()
	if err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	serialRep, err := fabricSpec().Experiment().Run(context.Background())
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	wantJSON, err := serialRep.JSON()
	if err != nil {
		t.Fatalf("serial report JSON: %v", err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("fabric report differs from serial report")
	}

	// The stats endpoint serves the same snapshot over HTTP.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	var wire fabric.Stats
	err = json.NewDecoder(resp.Body).Decode(&wire)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if !wire.Done || wire.Shards.Done != 9 || wire.SpecDigest != c.SpecDigest() {
		t.Fatalf("wire stats = %+v", wire)
	}
}
