package plan

import (
	"bytes"
	"strings"
	"testing"

	"repro"
)

// rangeRecords returns one distinct record per trial of [lo, hi).
func rangeRecords(lo, hi int) []repro.TrialRecord {
	var out []repro.TrialRecord
	for t := lo; t < hi; t++ {
		out = append(out, repro.TrialRecord{
			Protocol: "P_PL", N: 8, Trial: t, Seed: repro.TrialSeed(8, t),
			Steps: uint64(100 + t), Converged: true,
			Observables: map[string]float64{"steps": float64(100 + t)},
		})
	}
	return out
}

func TestCollectorEncodeMatchesWriteTrialRecords(t *testing.T) {
	recs := rangeRecords(2, 6)
	col := NewCollector(2, 6)
	// Completion order, not trial order.
	for _, i := range []int{3, 0, 2, 1} {
		if err := col.Record(recs[i]); err != nil {
			t.Fatalf("Record(trial %d): %v", recs[i].Trial, err)
		}
	}
	got, err := col.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var want bytes.Buffer
	if err := repro.WriteTrialRecords(&want, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("Encode differs from WriteTrialRecords:\ngot:  %s\nwant: %s", got, want.Bytes())
	}
}

func TestCollectorRejectsBadRanges(t *testing.T) {
	recs := rangeRecords(0, 4)
	for _, tc := range []struct {
		name string
		feed []repro.TrialRecord
		want string // substring of the Record or Encode error
	}{
		{"out of range below", []repro.TrialRecord{recs[0]}, "out of range"},
		{"out of range above", []repro.TrialRecord{recs[3]}, "out of range"},
		{"duplicate", []repro.TrialRecord{recs[1], recs[2], recs[1]}, "duplicate record for trial 1"},
		{"conflicting duplicate", []repro.TrialRecord{recs[1], recs[2], {Protocol: "P_PL", N: 8, Trial: 2}}, "duplicate record for trial 2"},
		{"missing", []repro.TrialRecord{recs[1]}, "trial 2 finished without a record"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := NewCollector(1, 3)
			var err error
			for _, rec := range tc.feed {
				if err = col.Record(rec); err != nil {
					break
				}
			}
			if err == nil {
				_, err = col.Encode()
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}
