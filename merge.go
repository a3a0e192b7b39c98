package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// MergeShards folds shard record streams — JSONL readers, gzip-compressed
// or plain, in any order, each holding any subset of the experiment's
// trials — into the experiment's canonical record order: protocol row
// order, then size order, then trial order; exactly the stream a
// single-process Experiment.Run emits through a sink at Workers(1), and
// the order ReportFromRecords replays. A cell that two requested sizes
// FixSize onto appears once per size, as it does in Run. This is the
// merge half of the distributed sweep fabric: because every trial is a
// pure function of (protocol, scenario, n, trial), shard boundaries and
// shard placement carry no information, and the merged stream — and the
// Report built from it — is byte-identical to the serial run's.
//
// Coverage is verified: every non-skipped cell must be fully present or
// an error is returned, so a partial shard set cannot silently merge
// into a shorter stream. Duplicate records are tolerated when identical
// (a re-issued straggler shard completing twice) and rejected when they
// disagree — two shards disagreeing about the same trial means some
// worker broke determinism, which must surface, never be papered over.
// Records outside the experiment's matrix are rejected too.
func MergeShards(e *Experiment, shards ...io.Reader) ([]TrialRecord, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	type shardRecord struct {
		rec   TrialRecord
		canon []byte
	}
	// One slot per walked trial; got holds nil until a shard delivers it.
	var order []trialKey
	got := make(map[trialKey]*shardRecord)
	e.walk(nil, func(_ Protocol, info ProtocolInfo, n int) error {
		for t := 0; t < e.trials; t++ {
			k := trialKey{info.Name, n, t}
			order = append(order, k)
			got[k] = nil
		}
		return nil
	})

	for si, r := range shards {
		err := DecodeTrialRecords(r, func(rec TrialRecord) error {
			k := trialKey{rec.Protocol, rec.N, rec.Trial}
			have, ok := got[k]
			if !ok {
				return fmt.Errorf("repro: shard %d: record (%s, n=%d, trial %d) is outside the experiment's matrix", si, rec.Protocol, rec.N, rec.Trial)
			}
			data, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			if have != nil {
				if !bytes.Equal(have.canon, data) {
					return fmt.Errorf("repro: shard %d: conflicting duplicate for (%s, n=%d, trial %d) — determinism violation", si, rec.Protocol, rec.N, rec.Trial)
				}
				return nil // identical duplicate: a straggler's late copy
			}
			got[k] = &shardRecord{rec, data}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	merged := make([]TrialRecord, len(order))
	for i, k := range order {
		have := got[k]
		if have == nil {
			return nil, fmt.Errorf("repro: shards missing trial %d of cell (%s, n=%d)", k.trial, k.proto, k.n)
		}
		merged[i] = have.rec
	}
	return merged, nil
}

// WriteTrialRecords emits records as canonical JSONL — one compact JSON
// object per record, newline-terminated, in slice order. Writing the
// output of MergeShards produces the byte-identical artifact a serial
// single-worker run would have streamed.
func WriteTrialRecords(w io.Writer, recs []TrialRecord) error {
	for _, rec := range recs {
		data, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
		if _, err := w.Write([]byte{'\n'}); err != nil {
			return err
		}
	}
	return nil
}
