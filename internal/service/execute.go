package service

import (
	"bytes"
	"fmt"
	"path/filepath"

	"repro"
	"repro/internal/plan"
)

// executeJob runs one job cell by cell in deterministic order — protocol
// row order, then size order, trial order inside each cell — so the
// concatenated JSONL stream is byte-identical however the cells were
// satisfied (cold run, memory hit, disk hit) and whatever the worker
// count. Each cell is looked up in the content-addressed cache first;
// misses run through repro.RunCell and are stored back.
//
// When an artifacts directory is configured, the job's full record stream
// is additionally written through a rotating gzip JSONLSink — the
// bounded, servable artifact form — which is flushed and finalized before
// the job reaches a terminal state (graceful shutdown therefore flushes
// sinks by construction: Shutdown drains the queue, and every drained job
// closed its sink).
func (s *Server) executeJob(j *Job) {
	err := s.runCells(j)
	j.finish(err)
}

// runCells does the work of executeJob, returning the job's terminal
// error (nil for success).
func (s *Server) runCells(j *Job) error {
	var art *repro.RotatingJSONLSink
	if s.cfg.ArtifactsDir != "" {
		base := filepath.Join(s.cfg.ArtifactsDir, fmt.Sprintf("%s.jsonl", j.ID))
		sink, err := repro.CreateRotatingJSONL(base, repro.RotateOptions{
			MaxBytes: s.cfg.ArtifactSegmentBytes,
			Compress: true,
		})
		if err != nil {
			return fmt.Errorf("create artifact sink: %w", err)
		}
		art = sink
		defer art.Close()
	}

	for _, cell := range j.cells {
		if err := j.ctx.Err(); err != nil {
			return err
		}
		if cell.Skipped {
			j.skipCellDone()
			continue
		}
		data, hit := s.cache.Get(cell.Key)
		if !hit {
			var err error
			data, err = s.runCell(j, cell)
			if err != nil {
				return err
			}
			s.cache.Put(cell.Key, data)
		}
		if art != nil {
			// Replay the cell's canonical bytes through the artifact sink —
			// cached cells never re-run, but the artifact still carries the
			// full job stream.
			if err := repro.DecodeTrialRecords(bytes.NewReader(data), art.Record); err != nil {
				return fmt.Errorf("artifact sink: %w", err)
			}
		}
		j.appendCell(data, plan.CountLines(data), hit)
	}
	if art != nil {
		if err := art.Close(); err != nil {
			return fmt.Errorf("finalize artifact: %w", err)
		}
	}
	return nil
}

// runCell executes one cold cell through repro.RunCell, the executor the
// library and the fabric share, so its bytes are the cell's canonical
// trial-order JSONL — the bytes the content-addressed cache (and the
// fabric's byte-identical merge) lean on.
func (s *Server) runCell(j *Job, cell cellPlan) ([]byte, error) {
	p, err := repro.NewProtocol(cell.Protocol)
	if err != nil {
		return nil, err
	}
	return repro.RunCell(j.ctx, p, j.Spec.Scenario, cell.N, 0, j.Spec.Trials, s.cfg.TrialWorkers)
}
