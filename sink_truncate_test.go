package repro_test

import (
	"bytes"
	"compress/gzip"
	"errors"
	"regexp"
	"strconv"
	"testing"

	"repro"
)

// gzipRecords builds a well-formed gzip JSONL artifact with n records.
func gzipRecords(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	sink := repro.NewJSONLSink(gz)
	for i := 0; i < n; i++ {
		if err := sink.Record(repro.TrialRecord{Protocol: "ppl", N: 8, Trial: i}); err != nil {
			t.Fatalf("record: %v", err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("close sink: %v", err)
	}
	if err := gz.Close(); err != nil {
		t.Fatalf("close gzip: %v", err)
	}
	return buf.Bytes()
}

// TestReadTrialRecordsTruncatedGzip pins the truncation contract: a gzip
// artifact cut short — the torn-write / killed-upload shape — surfaces as
// ErrTruncatedRecords carrying the byte offset where the compressed input
// ended, not a bare "unexpected EOF".
func TestReadTrialRecordsTruncatedGzip(t *testing.T) {
	whole := gzipRecords(t, 50)

	// Sanity: the intact artifact decodes.
	if recs, err := repro.ReadTrialRecords(bytes.NewReader(whole)); err != nil || len(recs) != 50 {
		t.Fatalf("intact artifact: %d records, err %v", len(recs), err)
	}

	offsetRE := regexp.MustCompile(`byte offset (\d+)`)
	for _, cut := range []int{len(whole) / 2, len(whole) - 4, len(whole) - 1} {
		torn := whole[:cut]
		_, err := repro.ReadTrialRecords(bytes.NewReader(torn))
		if !errors.Is(err, repro.ErrTruncatedRecords) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncatedRecords", cut, err)
		}
		m := offsetRE.FindStringSubmatch(err.Error())
		if m == nil {
			t.Fatalf("cut at %d: error %q carries no byte offset", cut, err)
		}
		off, _ := strconv.Atoi(m[1])
		if off <= 0 || off > cut {
			t.Fatalf("cut at %d: reported offset %d outside (0, %d]", cut, off, cut)
		}
	}

	// A header so short the sniff can't even see magic bytes is not gzip;
	// it decodes as (empty) plain JSONL rather than erroring.
	if recs, err := repro.ReadTrialRecords(bytes.NewReader(whole[:1])); err == nil && len(recs) != 0 {
		t.Fatalf("1-byte input produced %d records", len(recs))
	}

	// Truncation mid-gzip-header (magic visible, member unreadable).
	if _, err := repro.ReadTrialRecords(bytes.NewReader(whole[:3])); !errors.Is(err, repro.ErrTruncatedRecords) {
		t.Fatalf("3-byte header: err = %v, want ErrTruncatedRecords", err)
	}
}

// FuzzDecodeTrialRecords runs the record-stream decoder over plain and
// gzip bytes: no input panics, and whatever decodes re-encodes through
// WriteTrialRecords into canonical bytes that decode back to records which
// re-encode byte-identically. The seeds run under plain go test.
func FuzzDecodeTrialRecords(f *testing.F) {
	var canon bytes.Buffer
	if err := repro.WriteTrialRecords(&canon, []repro.TrialRecord{
		{
			Protocol: "ppl", N: 8, Seed: 1, Steps: 120, Stabilized: 90, Converged: true,
			Tags:        map[string]string{"mode": "tracked"},
			Observables: map[string]float64{"steps": 120, "peak_leaders": 3},
			Series:      map[string][]repro.SeriesPoint{"leaders": {{Step: 0, Value: 3}, {Step: 90, Value: 1}}},
		},
		{Protocol: "fj", N: 16, Trial: 1, Seed: 2},
	}); err != nil {
		f.Fatal(err)
	}
	gz := gzipRecords(f, 3)
	for _, seed := range [][]byte{
		canon.Bytes(),
		gz,
		gz[:len(gz)-5],
		bytes.Repeat(gz, 2),
		[]byte("\n\n{}\nnull\n"),
		[]byte(`{"n":"eight"}`),
		{0x1f, 0x8b},
		nil,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := repro.ReadTrialRecords(bytes.NewReader(data))
		if err != nil {
			return
		}
		var canon, again bytes.Buffer
		if err := repro.WriteTrialRecords(&canon, recs); err != nil {
			t.Fatalf("decoded records do not re-encode: %v", err)
		}
		back, err := repro.ReadTrialRecords(bytes.NewReader(canon.Bytes()))
		if err != nil {
			t.Fatalf("canonical records %q do not decode: %v", canon.Bytes(), err)
		}
		if err := repro.WriteTrialRecords(&again, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), canon.Bytes()) {
			t.Fatalf("round trip changed the bytes:\n%s\nvs\n%s", canon.Bytes(), again.Bytes())
		}
	})
}
