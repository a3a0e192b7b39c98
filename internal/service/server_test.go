package service

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro"
)

// readGzipSegment decodes one gzip JSONL artifact segment.
func readGzipSegment(t *testing.T, path string) []repro.TrialRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("gzip %s: %v", path, err)
	}
	defer gz.Close()
	recs, err := repro.ReadTrialRecords(gz)
	if err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	return recs
}

// smallSpec is the cheap job the handler tests run: 2 protocols × 2
// sizes × 2 trials = 8 records in well under a second.
func smallSpec() JobSpec {
	return JobSpec{
		Protocols: []string{"angluin", "fj"},
		Sizes:     []int{8, 16},
		Trials:    2,
	}
}

// startServer boots a service behind httptest and tears both down with
// the test.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return svc, ts
}

// submit POSTs a spec and decodes the 202 response.
func submit(t *testing.T, ts *httptest.Server, spec JobSpec) submitResponse {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, data)
	}
	var out submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return out
}

// fetchRecords streams /records to completion and returns the raw bytes.
func fetchRecords(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/records", ts.URL, id))
	if err != nil {
		t.Fatalf("GET records: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET records = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("records Content-Type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read records: %v", err)
	}
	return data
}

// waitDone polls the status endpoint until the job is terminal.
func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET status: %v", err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode status: %v", err)
		}
		if st.State.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", id, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSubmitStreamReport(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueDepth: 4})
	sub := submit(t, ts, smallSpec())
	if sub.State != StateQueued && sub.State != StateRunning && sub.State != StateDone {
		t.Fatalf("submit state = %s", sub.State)
	}

	// The records stream ends only when the job is terminal, so reading
	// it to EOF doubles as the completion barrier.
	data := fetchRecords(t, ts, sub.ID)
	recs, err := repro.ReadTrialRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decode streamed JSONL: %v", err)
	}
	if want := 2 * 2 * 2; len(recs) != want {
		t.Fatalf("streamed %d records, want %d", len(recs), want)
	}
	// Deterministic cell order: protocol rows, then sizes, then trials.
	// Records carry the Table 1 display name and the FixSize-adjusted n.
	angluin, err := repro.NewProtocol("angluin")
	if err != nil {
		t.Fatalf("NewProtocol: %v", err)
	}
	first := recs[0]
	if first.Protocol != angluin.Info().Name || first.N != angluin.FixSize(8) || first.Trial != 0 {
		t.Fatalf("first record out of order: %+v", first)
	}

	st := waitDone(t, ts, sub.ID)
	if st.State != StateDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	if st.CellsDone != 4 || st.Records != 8 {
		t.Fatalf("status = %+v, want 4 cells / 8 records", st)
	}

	// All three report formats render from the record stream.
	for _, tc := range []struct{ format, wantCT, needle string }{
		{"md", "text/markdown; charset=utf-8", "### Table 1 reproduction"},
		{"json", "application/json", `"rows"`},
		{"csv", "text/csv; charset=utf-8", "protocol,n,trials"},
	} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/report?format=%s", ts.URL, sub.ID, tc.format))
		if err != nil {
			t.Fatalf("GET report %s: %v", tc.format, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report %s = %d: %s", tc.format, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != tc.wantCT {
			t.Fatalf("report %s Content-Type = %q", tc.format, ct)
		}
		if !strings.Contains(string(body), tc.needle) {
			t.Fatalf("report %s missing %q:\n%s", tc.format, tc.needle, body)
		}
	}

	// The JSON report must match a pure library run of the same spec —
	// the service adds transport, never numbers.
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/report?format=json", ts.URL, sub.ID))
	if err != nil {
		t.Fatalf("GET report json: %v", err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep, err := smallSpec().Experiment().Run(context.Background())
	if err != nil {
		t.Fatalf("library Run: %v", err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatalf("rep.JSON: %v", err)
	}
	if !bytes.Equal(served, want) {
		t.Fatal("served JSON report differs from the library run")
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueDepth: 2})
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/records", "/v1/jobs/nope/report"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestBadSpecIs400(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueDepth: 2})
	for name, body := range map[string]string{
		"unknown protocol": `{"protocols":["nope"],"sizes":[8],"trials":1}`,
		"no sizes":         `{"protocols":["ppl"],"sizes":[],"trials":1}`,
		"zero trials":      `{"protocols":["ppl"],"sizes":[8],"trials":0}`,
		"ring too small":   `{"protocols":["ppl"],"sizes":[1],"trials":1}`,
		"unknown field":    `{"protocols":["ppl"],"sizes":[8],"trials":1,"bogus":true}`,
		"bad metric":       `{"protocols":["ppl"],"sizes":[8],"trials":1,"metrics":[{"observable":"steps","agg":"exotic"}]}`,
		"not json":         `{{{`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST (%s): %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST (%s) = %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestQueueFullIs429(t *testing.T) {
	// A stub executor that blocks until released keeps the worker and the
	// single queue slot pinned without timing games.
	block := make(chan struct{})
	svc := newServer(Config{Workers: 1, QueueDepth: 1}, func(j *Job) {
		j.start()
		<-block
		j.finish(nil)
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer close(block)

	submit(t, ts, smallSpec()) // occupies the worker
	submit(t, ts, smallSpec()) // occupies the queue slot
	body, _ := json.Marshal(smallSpec())
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST on full queue = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestReportBeforeDoneIs409(t *testing.T) {
	block := make(chan struct{})
	svc := newServer(Config{Workers: 1, QueueDepth: 2}, func(j *Job) {
		j.start()
		<-block
		j.finish(nil)
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer close(block)

	sub := submit(t, ts, smallSpec())
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/report", ts.URL, sub.ID))
	if err != nil {
		t.Fatalf("GET report: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("report on unfinished job = %d, want 409", resp.StatusCode)
	}
}

func TestCacheHitJobIsByteIdenticalAndCounted(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueDepth: 4})

	sub1 := submit(t, ts, smallSpec())
	cold := fetchRecords(t, ts, sub1.ID)
	st1 := waitDone(t, ts, sub1.ID)
	if st1.CacheHits != 0 || st1.CacheMisses != 4 {
		t.Fatalf("cold job counters = %+v, want 0 hits / 4 misses", st1)
	}

	sub2 := submit(t, ts, smallSpec())
	warm := fetchRecords(t, ts, sub2.ID)
	st2 := waitDone(t, ts, sub2.ID)
	if st2.CacheHits != 4 || st2.CacheMisses != 0 {
		t.Fatalf("warm job counters = %+v, want 4 hits / 0 misses", st2)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("cache-hit job's JSONL differs from its cold-run twin")
	}

	// /v1/stats carries the aggregate counters.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	var stats Stats
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if stats.Cache.Hits < 4 || stats.Cache.Misses < 4 {
		t.Fatalf("stats.Cache = %+v, want >=4 hits and >=4 misses", stats.Cache)
	}
	if stats.Jobs.Done != 2 {
		t.Fatalf("stats.Jobs = %+v, want 2 done", stats.Jobs)
	}
}

func TestGracefulShutdownCompletesInFlightAndFlushesSinks(t *testing.T) {
	artDir := t.TempDir()
	svc := New(Config{Workers: 1, QueueDepth: 4, ArtifactsDir: artDir, ArtifactSegmentBytes: 1 << 20})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	sub := submit(t, ts, smallSpec())

	// Shutdown immediately: the accepted job must still complete and its
	// artifact sink must be finalized before Shutdown returns.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	j, ok := svc.store.get(sub.ID)
	if !ok {
		t.Fatalf("job %s vanished", sub.ID)
	}
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("in-flight job state after drain = %s (%s)", st.State, st.Error)
	}

	// The artifact directory holds a finalized gzip JSONL segment with
	// the job's full record stream.
	entries, err := os.ReadDir(artDir)
	if err != nil {
		t.Fatalf("read artifacts dir: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("no artifact segments written")
	}
	total := 0
	for _, ent := range entries {
		recs := readGzipSegment(t, artDir+"/"+ent.Name())
		total += len(recs)
	}
	if total != 8 {
		t.Fatalf("artifact holds %d records, want 8", total)
	}

	// Draining: submissions and health must refuse.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	body, _ := json.Marshal(smallSpec())
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST while draining: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
}

func TestCancelJob(t *testing.T) {
	block := make(chan struct{})
	svc := newServer(Config{Workers: 1, QueueDepth: 2}, func(j *Job) {
		j.start()
		select {
		case <-block:
			j.finish(nil)
		case <-j.ctx.Done():
			j.finish(j.ctx.Err())
		}
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer close(block)

	sub := submit(t, ts, smallSpec())
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	st := waitDone(t, ts, sub.ID)
	if st.State != StateCanceled {
		t.Fatalf("cancelled job state = %s", st.State)
	}
}

func TestHealthzAndProtocols(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueDepth: 2})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/protocols")
	if err != nil {
		t.Fatalf("GET protocols: %v", err)
	}
	var out map[string][]string
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode protocols: %v", err)
	}
	found := false
	for _, name := range out["protocols"] {
		if name == "ppl" {
			found = true
		}
	}
	if !found {
		t.Fatalf("protocols = %v, want ppl present", out)
	}
}
