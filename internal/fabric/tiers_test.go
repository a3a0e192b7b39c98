package fabric_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/service"
)

// TestSameBytesEveryTier runs one adversarial spec through the three
// tiers that execute cells — the library stream, the service and the
// fabric — and requires byte-identical JSONL from all three. Sizes 8 and
// 9 FixSize to the same angluin ring, so the collided cell must repeat in
// every tier, and the scenario fires a fault burst, an eclipse window
// and a churn remove/insert pair in every trial.
func TestSameBytesEveryTier(t *testing.T) {
	spec := plan.Spec{
		Protocols: []string{"ppl", "angluin"},
		Sizes:     []int{8, 9},
		Trials:    3,
		Scenario: repro.Scenario{
			Faults: []repro.Fault{{AtStep: 150, Agents: 2}},
			Sched: &repro.SchedulerSpec{
				Kind: "eclipse", Start: 20, Period: 1 << 40, Duration: 100, Arcs: 3,
				Churn: []repro.ChurnEvent{{AtStep: 60, Remove: 1}, {AtStep: 250, Insert: 1}},
			},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("spec: %v", err)
	}

	var serial bytes.Buffer
	sink := repro.NewJSONLSink(&serial)
	if err := spec.Experiment().Workers(1).Sinks(sink).Stream(context.Background()); err != nil {
		t.Fatalf("serial stream: %v", err)
	}
	want := serial.Bytes()
	recs, err := repro.ReadTrialRecords(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 12 {
		t.Fatalf("serial stream has %d records, want 2 protocols × 2 sizes × 3 trials = 12", len(recs))
	}
	for _, obs := range []string{"fault_bursts", "eclipse_windows", "churn_events"} {
		seen := false
		for _, rec := range recs {
			_, ok := rec.Observables[obs]
			seen = seen || ok
		}
		if !seen {
			t.Fatalf("no record carries %s: the scenario did not exercise it", obs)
		}
	}

	if got := serviceRecords(t, spec); !bytes.Equal(got, want) {
		t.Fatalf("service records differ from the serial stream:\nservice: %s\nserial:  %s", got, want)
	}
	if got := fabricRecords(t, spec); !bytes.Equal(got, want) {
		t.Fatalf("fabric merge differs from the serial stream:\nfabric: %s\nserial: %s", got, want)
	}
}

// serviceRecords runs spec as one service job at four trial workers and
// returns its /records stream.
func serviceRecords(t *testing.T, spec plan.Spec) []byte {
	t.Helper()
	svc := service.New(service.Config{TrialWorkers: 4})
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	}()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var st service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d (%v)", resp.StatusCode, err)
	}
	// The records stream ends when the job is terminal.
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s/records", ts.URL, st.ID))
	if err != nil {
		t.Fatalf("records: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("records = %d (%v)", resp.StatusCode, err)
	}
	return data
}

// fabricRecords runs spec on an in-process coordinator with two worker
// loops at shard width 2 and returns the merged stream.
func fabricRecords(t *testing.T, spec plan.Spec) []byte {
	t.Helper()
	c, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Spec:        spec,
		ShardTrials: 2,
		LeaseTTL:    10 * time.Second,
		Dir:         t.TempDir(),
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	ts := httptest.NewServer(c.Handler())
	defer func() {
		ts.Close()
		c.Close()
	}()
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
	return mergedBytes(t, c)
}
