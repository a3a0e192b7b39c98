package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro"
)

// memSink records deliveries and lifecycle for assertions.
type memSink struct {
	mu     sync.Mutex
	recs   []repro.TrialRecord
	closes int
	failAt int // fail on the failAt-th record (1-based); 0 = never
}

func (s *memSink) Record(rec repro.TrialRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, rec)
	if s.failAt > 0 && len(s.recs) >= s.failAt {
		return fmt.Errorf("sink full")
	}
	return nil
}

func (s *memSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closes++
	return nil
}

// TestSinkReceivesEveryTrial: Run with a sink streams one record per
// executed trial, with observables, while the Report itself stays
// byte-identical to a sink-less run.
func TestSinkReceivesEveryTrial(t *testing.T) {
	build := func() *repro.Experiment {
		return repro.NewExperiment().
			ProtocolNames("ppl", "yokota").
			Sizes(8, 16).
			Trials(3).
			MaxSizeFor("[28] Yokota et al.", 8)
	}
	plain, err := build().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sink := &memSink{}
	streamed, err := build().Sinks(sink).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	pj, err := plain.JSON()
	if err != nil {
		t.Fatal(err)
	}
	sj, err := streamed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, sj) {
		t.Fatalf("report with sinks diverged from legacy path:\n%s\nvs\n%s", pj, sj)
	}

	// 3 executed cells (yokota capped to n=8) × 3 trials.
	if len(sink.recs) != 9 {
		t.Fatalf("sink saw %d records, want 9", len(sink.recs))
	}
	if sink.closes != 1 {
		t.Fatalf("sink closed %d times, want exactly once", sink.closes)
	}
	seen := make(map[string]bool)
	for _, rec := range sink.recs {
		if rec.Observables["steps"] != float64(rec.Steps) {
			t.Fatalf("record without probe observables: %+v", rec)
		}
		seen[fmt.Sprintf("%s/%d/%d", rec.Protocol, rec.N, rec.Trial)] = true
	}
	if len(seen) != 9 {
		t.Fatalf("duplicate or missing (protocol, n, trial) records: %v", seen)
	}
}

// TestStreamMatchesRunRecords: the bounded-memory Stream path delivers
// exactly the records Run delivers.
func TestStreamMatchesRunRecords(t *testing.T) {
	build := func(s repro.Sink) *repro.Experiment {
		return repro.NewExperiment().
			ProtocolNames("ppl").
			Sizes(8, 16).
			Trials(2).
			Workers(1). // serial, so delivery order matches too
			Sinks(s)
	}
	viaRun := &memSink{}
	if _, err := build(viaRun).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	viaStream := &memSink{}
	if err := build(viaStream).Stream(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(viaRun.recs) != len(viaStream.recs) {
		t.Fatalf("Run delivered %d records, Stream %d", len(viaRun.recs), len(viaStream.recs))
	}
	for i := range viaRun.recs {
		if viaRun.recs[i].Result() != viaStream.recs[i].Result() {
			t.Fatalf("record %d diverged: %+v vs %+v", i, viaRun.recs[i], viaStream.recs[i])
		}
	}
	if err := repro.NewExperiment().ProtocolNames("ppl").Sizes(8).Stream(context.Background()); err == nil {
		t.Fatal("Stream without sinks accepted")
	}
}

// TestJSONLSinkRoundTrip: records written as JSONL decode back intact.
func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := repro.NewJSONLSink(&buf)
	err := repro.NewExperiment().
		ProtocolNames("ppl").
		Sizes(8).
		Trials(3).
		Sinks(sink).
		Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sink.Count() != 3 {
		t.Fatalf("sink wrote %d records, want 3", sink.Count())
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Fatalf("artifact has %d lines, want 3:\n%s", got, buf.String())
	}
	recs, err := repro.ReadTrialRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("decoded %d records", len(recs))
	}
	// Sinks see records in completion order, so with several workers the
	// trials may arrive in any order; each must appear exactly once.
	seen := map[int]bool{}
	for i, rec := range recs {
		if rec.N != 8 || !rec.Converged || rec.Observables["steps"] != float64(rec.Steps) {
			t.Fatalf("record %d corrupt after round trip: %+v", i, rec)
		}
		seen[rec.Trial] = true
	}
	if len(seen) != 3 || !seen[0] || !seen[1] || !seen[2] {
		t.Fatalf("decoded trials %v, want exactly {0,1,2}", seen)
	}
	if err := sink.Record(repro.TrialRecord{}); err == nil {
		t.Fatal("write to a closed sink accepted")
	}
}

// TestSinkErrorAbortsExperiment: a failing sink surfaces as the run error
// and still gets closed.
func TestSinkErrorAbortsExperiment(t *testing.T) {
	sink := &memSink{failAt: 2}
	_, err := repro.NewExperiment().
		ProtocolNames("ppl").
		Sizes(8).
		Trials(4).
		Sinks(sink).
		Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("sink error not surfaced: %v", err)
	}
	if sink.closes != 1 {
		t.Fatalf("failing sink closed %d times, want once", sink.closes)
	}
}

// TestCancellationFlushesSinks is the mid-sweep cancellation contract: the
// context error surfaces, every sink is closed exactly once, and a JSONL
// sink's partial artifact is flushed and well-formed — every written line
// parses as a record.
func TestCancellationFlushesSinks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var buf bytes.Buffer
	jsonl := repro.NewJSONLSink(&buf)
	mem := &memSink{}
	_, err := repro.NewExperiment().
		ProtocolNames("ppl").
		Sizes(8, 16, 32).
		Trials(8).
		Workers(1).
		Observer(func(p repro.Progress) {
			if p.N == 8 && p.Done == 2 {
				cancel() // mid-sweep: first cell, second trial
			}
		}).
		Sinks(jsonl, mem).
		Run(ctx)
	if err == nil || ctx.Err() == nil {
		t.Fatalf("cancelled run returned %v", err)
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("cancellation not surfaced: %v", err)
	}
	if mem.closes != 1 {
		t.Fatalf("sink closed %d times after cancellation, want once", mem.closes)
	}
	// The buffered JSONL writer must have been flushed by Close: whatever
	// made it out before cancellation is complete, parseable lines.
	recs, rerr := repro.ReadTrialRecords(bytes.NewReader(buf.Bytes()))
	if rerr != nil {
		t.Fatalf("partial artifact corrupt: %v\n%q", rerr, buf.String())
	}
	if len(recs) == 0 {
		t.Fatal("cancellation lost every completed record (nothing flushed)")
	}
	if int64(len(recs)) != jsonl.Count() {
		t.Fatalf("artifact has %d records, sink counted %d", len(recs), jsonl.Count())
	}
	for _, rec := range recs {
		if rec.Protocol == "" || rec.N != 8 {
			t.Fatalf("partial record corrupt: %+v", rec)
		}
	}
}

// TestObserverAndSinkSerialized is the race-detector half of the callback
// concurrency contract: Observer and Sink calls come from worker
// goroutines but are serialized, so unsynchronized captured state is safe.
// Run with -race (CI does) to enforce it.
func TestObserverAndSinkSerialized(t *testing.T) {
	var observerCalls int // deliberately unsynchronized
	lastDone := make(map[string]int)
	sink := &racySink{}
	rep, err := repro.NewExperiment().
		ProtocolNames("ppl").
		Sizes(8, 16).
		Trials(6).
		Workers(4).
		Observer(func(p repro.Progress) {
			observerCalls++
			key := fmt.Sprintf("%s/%d", p.Protocol, p.N)
			if p.Done <= lastDone[key] {
				t.Errorf("Done regressed for %s: %d after %d", key, p.Done, lastDone[key])
			}
			lastDone[key] = p.Done
		}).
		Sinks(sink).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if observerCalls != 12 {
		t.Fatalf("observer saw %d calls, want 12", observerCalls)
	}
	if sink.records != 12 || sink.closes != 1 {
		t.Fatalf("sink saw %d records, %d closes", sink.records, sink.closes)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("report rows: %d", len(rep.Rows))
	}
}

// TestProbeWithNilFactoryResult: a factory returning nil is tolerated —
// the trial just runs with the built-in recording probe alone.
func TestProbeWithNilFactoryResult(t *testing.T) {
	sink := &memSink{}
	_, err := repro.NewExperiment().
		ProtocolNames("ppl").
		Sizes(8).
		Trials(2).
		ProbeWith(func() repro.Probe { return nil }).
		Sinks(sink).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.recs) != 2 {
		t.Fatalf("sink saw %d records", len(sink.recs))
	}
}

// racySink counts without locks — safe only because the experiment
// serializes Record calls.
type racySink struct {
	records int
	closes  int
}

func (s *racySink) Record(repro.TrialRecord) error { s.records++; return nil }
func (s *racySink) Close() error                   { s.closes++; return nil }
