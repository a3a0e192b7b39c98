package repro

import (
	"bytes"
	"compress/gzip"
	"context"
	"strings"
	"testing"
)

// mergeExperiment is the fixture matrix for merge tests: two protocols,
// two sizes, three trials, one size cap exercising skipped cells.
func mergeExperiment() *Experiment {
	return NewExperiment().
		ProtocolNames("ppl", "angluin").
		Sizes(8, 16).
		Trials(3).
		MaxSizeFor("[5] Angluin et al.", 8)
}

// serialStream runs the experiment serially and returns its canonical
// record stream bytes and the records in emission order.
func serialStream(t *testing.T) ([]byte, []TrialRecord) {
	t.Helper()
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	var recs []TrialRecord
	err := mergeExperiment().
		Workers(1).
		Sinks(sink, sinkFunc(func(rec TrialRecord) error {
			recs = append(recs, rec)
			return nil
		})).
		Stream(context.Background())
	if err != nil {
		t.Fatalf("serial stream: %v", err)
	}
	return buf.Bytes(), recs
}

func TestMergeShardsByteIdenticalToSerial(t *testing.T) {
	serial, recs := serialStream(t)

	// Shard the records adversarially: reversed order, uneven splits, one
	// record duplicated across two shards (a straggler completing late).
	var a, b, c bytes.Buffer
	for i := len(recs) - 1; i >= 0; i-- {
		var w *bytes.Buffer
		switch {
		case i%3 == 0:
			w = &a
		case i%3 == 1:
			w = &b
		default:
			w = &c
		}
		if err := WriteTrialRecords(w, recs[i:i+1]); err != nil {
			t.Fatalf("write shard: %v", err)
		}
	}
	if err := WriteTrialRecords(&a, recs[2:3]); err != nil { // identical duplicate
		t.Fatalf("write duplicate: %v", err)
	}

	merged, err := MergeShards(mergeExperiment(), &a, &b, &c)
	if err != nil {
		t.Fatalf("MergeShards: %v", err)
	}
	var out bytes.Buffer
	if err := WriteTrialRecords(&out, merged); err != nil {
		t.Fatalf("write merged: %v", err)
	}
	if !bytes.Equal(out.Bytes(), serial) {
		t.Fatalf("merged stream differs from serial stream:\nmerged: %s\nserial: %s", out.Bytes(), serial)
	}

	// The Report rebuilt from the merged stream renders byte-identical to
	// the serial Run's.
	rep, err := mergeExperiment().Run(context.Background())
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatalf("serial report: %v", err)
	}
	rep2, err := mergeExperiment().ReportFromRecords(merged)
	if err != nil {
		t.Fatalf("ReportFromRecords: %v", err)
	}
	got, err := rep2.JSON()
	if err != nil {
		t.Fatalf("merged report: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged report differs from serial report")
	}
}

func TestMergeShardsGzipShards(t *testing.T) {
	serial, recs := serialStream(t)
	var raw bytes.Buffer
	if err := WriteTrialRecords(&raw, recs); err != nil {
		t.Fatalf("write: %v", err)
	}
	var gzBuf bytes.Buffer
	gz := gzip.NewWriter(&gzBuf)
	if _, err := gz.Write(raw.Bytes()); err != nil {
		t.Fatalf("gzip: %v", err)
	}
	if err := gz.Close(); err != nil {
		t.Fatalf("gzip close: %v", err)
	}
	merged, err := MergeShards(mergeExperiment(), &gzBuf)
	if err != nil {
		t.Fatalf("MergeShards(gzip): %v", err)
	}
	var out bytes.Buffer
	if err := WriteTrialRecords(&out, merged); err != nil {
		t.Fatalf("write merged: %v", err)
	}
	if !bytes.Equal(out.Bytes(), serial) {
		t.Fatalf("gzip-shard merge differs from serial stream")
	}
}

func TestMergeShardsErrors(t *testing.T) {
	_, recs := serialStream(t)

	t.Run("missing trial", func(t *testing.T) {
		var shard bytes.Buffer
		if err := WriteTrialRecords(&shard, recs[1:]); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := MergeShards(mergeExperiment(), &shard); err == nil || !strings.Contains(err.Error(), "missing trial") {
			t.Fatalf("partial shard set merged without error (err=%v)", err)
		}
	})

	t.Run("conflicting duplicate", func(t *testing.T) {
		var shard bytes.Buffer
		if err := WriteTrialRecords(&shard, recs); err != nil {
			t.Fatalf("write: %v", err)
		}
		bad := recs[0]
		bad.Steps += 17 // a worker that broke determinism
		if err := WriteTrialRecords(&shard, []TrialRecord{bad}); err != nil {
			t.Fatalf("write conflict: %v", err)
		}
		if _, err := MergeShards(mergeExperiment(), &shard); err == nil || !strings.Contains(err.Error(), "determinism") {
			t.Fatalf("conflicting duplicate merged without error (err=%v)", err)
		}
	})

	t.Run("record outside the matrix", func(t *testing.T) {
		var shard bytes.Buffer
		if err := WriteTrialRecords(&shard, recs); err != nil {
			t.Fatalf("write: %v", err)
		}
		alien := recs[0]
		alien.Trial = 99
		if err := WriteTrialRecords(&shard, []TrialRecord{alien}); err != nil {
			t.Fatalf("write alien: %v", err)
		}
		if _, err := MergeShards(mergeExperiment(), &shard); err == nil || !strings.Contains(err.Error(), "outside the experiment") {
			t.Fatalf("alien record merged without error (err=%v)", err)
		}
	})
}
