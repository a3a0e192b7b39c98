package repro

import (
	"fmt"
	"time"
)

// BenchMode selects what RunBenchmark measures on one protocol engine.
type BenchMode string

const (
	// BenchRaw measures the raw transition loop: a fixed number of
	// generic Engine.Run scheduler steps with no convergence judgement at
	// all — the ceiling any convergence-detection scheme is compared
	// against. The mode keeps its historical "runbatch" name, which the
	// committed baselines record.
	BenchRaw BenchMode = "runbatch"
	// BenchTracked measures a run to convergence through the incremental
	// tracker (the production path): exact hitting times, O(1) per-step
	// convergence checks.
	BenchTracked BenchMode = "tracked"
	// BenchInterned measures a run to convergence through the interned
	// table-lookup execution layer (the trial default since the interned
	// engine landed): transitions, leader accounting and tracker updates
	// replayed as table loads, with transparent generic fallback when the
	// interner's capacity cap is exceeded. The timed run goes through
	// tables pre-filled by an untimed warmup run of the same trajectory,
	// so the row reports the layer's steady-state lookup throughput — the
	// one-time fill cost is measured separately by BenchLanes, amortized
	// across a batch exactly as sweeps pay it.
	BenchInterned BenchMode = "interned"
	// BenchLanes measures a batch of same-cell trials sharing one
	// transition-table set, run back to back (LaneTrials): per-trial
	// results are bit-identical to BenchInterned, but the table fills and
	// state interning amortize across the batch. Steps and steps/sec
	// aggregate the whole batch; Lanes records the batch width.
	BenchLanes BenchMode = "lanes"
	// BenchCold times one whole Protocol.Trial: table construction, the
	// interned run from empty tables, any reuse-guard or capacity fallback
	// and the generic finish. It is the path every library, service and
	// fabric trial takes, so its steps equal Trial's.
	BenchCold BenchMode = "cold"
)

// defaultBenchLanes is the lane count of every BenchLanes row.
const defaultBenchLanes = 8

// benchLaneSeedStride spreads a base seed into per-lane seeds
// (seed + i*stride); an odd 64-bit constant keeps the streams distinct for
// any base.
const benchLaneSeedStride = 0x9e3779b97f4a7c15

// BenchResult is one measurement of the performance-baseline pipeline
// (cmd/bench): steps per second of one protocol × ring size × scenario ×
// mode cell. Steps counts scheduler steps actually executed — the hitting
// step for the convergence modes, the requested budget for BenchRaw.
type BenchResult struct {
	Protocol    string    `json:"protocol"`
	N           int       `json:"n"`
	Scenario    string    `json:"scenario"`
	Mode        BenchMode `json:"mode"`
	Seed        uint64    `json:"seed"`
	Steps       uint64    `json:"steps"`
	Seconds     float64   `json:"seconds"`
	StepsPerSec float64   `json:"steps_per_sec"`
	// Converged reports whether the convergence modes hit their predicate
	// within the budget; always true for BenchRaw.
	Converged bool `json:"converged"`
	// Fallback reports, for BenchInterned rows, that the timed run left the
	// interned layer — the capacity cap, or the reuse guard on pairs the
	// warmup did not fill — and finished on the generic engine; absent for
	// every other mode. Fallback is the rule in cold trials: every cold
	// P_PL trial from n≈16 up falls back through the reuse guard, inside
	// BenchCold's timed region.
	Fallback bool `json:"fallback,omitempty"`
	// Lanes is the number of trials a BenchLanes row ran over its shared
	// table set; absent for every other mode.
	Lanes int `json:"lanes,omitempty"`
}

// Record converts the measurement to the streaming TrialRecord form, so
// perf measurements flow through the same sinks and JSONL schema as
// experiment trials: the throughput numbers become observables and the
// mode/scenario become tags.
func (r BenchResult) Record() TrialRecord {
	return TrialRecord{
		Protocol:  r.Protocol,
		N:         r.N,
		Seed:      r.Seed,
		Steps:     r.Steps,
		Converged: r.Converged,
		Tags:      map[string]string{"mode": string(r.Mode), "scenario": r.Scenario},
		Observables: map[string]float64{
			"seconds":       r.Seconds,
			"steps_per_sec": r.StepsPerSec,
		},
	}
}

// benchRunner is the mode-dispatch surface a built-in protocol's trial
// engine exposes to RunBenchmark; trialEngine[S] implements it for every
// state type.
type benchRunner interface {
	benchRaw(steps uint64)
	benchTracked(maxSteps uint64) (uint64, bool)
	benchInterned(maxSteps uint64) (steps uint64, converged, interned bool)
	benchPrefill(maxSteps uint64)
	stepCount() uint64
}

// engineProtocol is the engine-level surface every built-in protocol
// (ringProtocol) adds to the public Protocol contract: same-cell trials
// sharing one table set, run back to back (LaneTrials), a fresh unrun
// trial engine so RunBenchmark can time the run phase alone, and a pair
// of trial engines for one cell over ONE shared table set. The interned
// mode uses the pair — the first runner is an untimed warmup
// that fills the state interner and pair tables, the second re-runs the
// identical trajectory through the warm tables — so the timed region
// measures the steady-state table-lookup throughput the mode is named for
// rather than the one-time fill.
type engineProtocol interface {
	LaneTrials(sc Scenario, n int, seeds []uint64) ([]TrialResult, error)
	newBench(sc Scenario, n int, seed uint64) (benchRunner, error)
	newBenchPair(sc Scenario, n int, seed uint64) (warm, timed benchRunner, err error)
}

// RunBenchmark executes one perf-baseline measurement: protocol name (a
// registered built-in), requested ring size (FixSize-adjusted
// internally), scheduler seed, scenario, and mode — BenchRaw, BenchTracked,
// BenchInterned, BenchLanes or BenchCold. rawSteps is the step
// budget of BenchRaw and ignored by the convergence modes, which run to
// the scenario's budget. Fault-schedule scenarios are rejected: the modes
// time a single uninterrupted run phase, so a burst schedule would be
// silently skipped and the artifact would mislabel a fault-free
// measurement. Custom registered protocols are not supported — the modes
// need engine-level access that the public Protocol contract deliberately
// does not expose.
//
// A BenchLanes row runs defaultBenchLanes same-cell trials with seeds
// seed, seed+stride, … sharing one table set, run back to back. Its timed
// region is the whole LaneTrials call — table construction included,
// since amortizing that construction across the batch is exactly what the
// mode exists to measure. Steps sums the batch; Converged reports whether
// every lane hit its predicate.
func RunBenchmark(name string, n int, seed uint64, sc Scenario, mode BenchMode, rawSteps uint64) (BenchResult, error) {
	if len(sc.Faults) > 0 {
		return BenchResult{}, fmt.Errorf("repro: RunBenchmark does not support fault schedules")
	}
	if sc.Sched.hasChurn() {
		// Same reason as faults: churn fires from the trial event loop,
		// which the bench modes bypass, so a churn scenario would silently
		// measure a static ring. Biased/eclipse schedulers and stuck agents
		// live at the engine level and bench fine.
		return BenchResult{}, fmt.Errorf("repro: RunBenchmark does not support churn schedules")
	}
	p, err := NewProtocol(name)
	if err != nil {
		return BenchResult{}, err
	}
	b, ok := p.(engineProtocol)
	if !ok {
		return BenchResult{}, fmt.Errorf("repro: protocol %q does not support engine benchmarks", name)
	}
	n = p.FixSize(n)
	if err := checkRingSize(p.Info(), n); err != nil {
		return BenchResult{}, err
	}
	maxSteps := sc.MaxSteps(p, n)
	var ru benchRunner
	var seeds []uint64
	switch mode {
	case BenchInterned:
		// Steady-state measurement: an untimed warmup run over the shared
		// table set fills the interner and pair tables, then the timed
		// runner below replays the identical trajectory entirely warm. The
		// warmup runs with the reuse guard suspended: its fills are exactly
		// the ones the timed run reuses.
		warm, timed, err := b.newBenchPair(sc, n, seed)
		if err != nil {
			return BenchResult{}, err
		}
		warm.benchPrefill(maxSteps)
		ru = timed
	case BenchLanes:
		seeds = make([]uint64, defaultBenchLanes)
		for i := range seeds {
			seeds[i] = seed + uint64(i)*benchLaneSeedStride
		}
	case BenchCold:
		// Trial wires its own engine and tables inside the timed region.
	default:
		ru, err = b.newBench(sc, n, seed)
		if err != nil {
			return BenchResult{}, err
		}
	}
	res := BenchResult{
		Protocol: name, N: n, Scenario: sc.Init.String(), Mode: mode, Seed: seed,
	}
	start := time.Now()
	switch mode {
	case BenchRaw:
		ru.benchRaw(rawSteps)
		res.Steps, res.Converged = rawSteps, true
	case BenchTracked:
		_, res.Converged = ru.benchTracked(maxSteps)
		res.Steps = ru.stepCount()
	case BenchInterned:
		var interned bool
		_, res.Converged, interned = ru.benchInterned(maxSteps)
		res.Steps = ru.stepCount()
		res.Fallback = !interned
	case BenchLanes:
		trials, err := b.LaneTrials(sc, n, seeds)
		if err != nil {
			return BenchResult{}, err
		}
		res.Lanes, res.Converged = len(seeds), true
		for _, tr := range trials {
			res.Steps += tr.Steps
			res.Converged = res.Converged && tr.Converged
		}
	case BenchCold:
		tr, err := p.Trial(sc, n, seed)
		if err != nil {
			return BenchResult{}, err
		}
		res.Steps, res.Converged = tr.Steps, tr.Converged
	default:
		return BenchResult{}, fmt.Errorf("repro: unknown bench mode %q", mode)
	}
	res.Seconds = time.Since(start).Seconds()
	if res.Seconds > 0 {
		res.StepsPerSec = float64(res.Steps) / res.Seconds
	}
	return res, nil
}
