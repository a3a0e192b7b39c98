package plan

import (
	"bytes"
	"encoding/json"
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

// FuzzSpec feeds wire job specs through Validate: a spec Validate accepts
// must expand into cells, and every cell that runs must hold a ring of at
// least two agents. The seeds run under plain go test.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		`{"protocols":["ppl"],"sizes":[1],"trials":1}`,
		`{"protocols":["ppl","angluin"],"sizes":[8,16],"trials":2}`,
		`{"protocols":["orient","yokota"],"sizes":[-3,0,2],"trials":1}`,
		`{"protocols":["angluin"],"sizes":[0,1,8,9],"trials":3,"max_size":{"angluin":8}}`,
		`{"protocols":["chenchen","fj"],"sizes":[8],"trials":1,"metrics":[{"observable":"steps","agg":"p90"}]}`,
		`{"protocols":["ppl"],"sizes":[33],"trials":4,"scenario":{"faults":[{"at_step":500,"agents":3}],"scheduler":{"kind":"eclipse","period":100,"duration":10,"arcs":4,"churn":[{"at_step":50,"remove":2}]}}}`,
		`{"protocols":["yokota"],"sizes":[16],"trials":1,"timeout_ms":-1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&s) != nil || s.Validate() != nil {
			return
		}
		cells, err := s.Cells()
		if err != nil {
			t.Fatalf("Validate accepted %s but Cells failed: %v", data, err)
		}
		for _, c := range cells {
			if !c.Skipped && c.N < 2 {
				t.Fatalf("Validate accepted %s with a %d-agent %s cell (size %d)", data, c.N, c.Protocol, c.RawN)
			}
		}
	})
}
