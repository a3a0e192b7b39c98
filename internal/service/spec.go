// Package service is the experiment service: a long-running HTTP server
// exposing the repro Experiment API. Clients POST a JSON job spec
// (protocols × sizes × scenario × trials × metrics); a bounded worker-pool
// queue executes the job's cells through repro.RunCell, the cell executor
// behind Experiment.Run; results stream back as TrialRecord JSONL or
// rendered Reports.
//
// The scaling lever is determinism: every (protocol, scenario, n, seed)
// cell is a pure function of its inputs, so finished cells are
// content-addressed by digest and cached (in-memory LRU with optional
// gzip disk spill) — repeated and overlapping jobs are served mostly from
// cache. The spec/cell/digest vocabulary itself lives in internal/plan,
// shared with the distributed sweep fabric (internal/fabric) so both
// tiers address identical cells identically. See docs/API.md for the
// HTTP surface and docs/ARCHITECTURE.md for where the service sits in
// the system.
package service

import (
	"repro/internal/plan"
)

// SpecVersion versions the cell digest; see plan.SpecVersion.
const SpecVersion = plan.SpecVersion

// MetricSpec is the wire form of a repro.Metric.
type MetricSpec = plan.MetricSpec

// JobSpec is the JSON body of POST /v1/jobs: the full configuration of
// one Experiment. It is the shared plan.Spec — the same wire form the
// fabric coordinator plans distributed sweeps from.
type JobSpec = plan.Spec

// cellPlan is one (protocol, size) cell of a job; see plan.Cell.
type cellPlan = plan.Cell
