package repro

import (
	"fmt"
	"runtime"
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
	// table-lookup execution layer (the trial path of every protocol that
	// interns): transitions, leader accounting and tracker updates
	// replayed as table loads, with transparent generic fallback when the
	// interner's capacity cap is exceeded. The timed run goes through
	// tables pre-filled by an untimed warmup run of the same trajectory,
	// so the row reports the layer's steady-state lookup throughput; no
	// trial runs warm, and BenchCold times the fill every trial pays. A
	// protocol that attaches no tables (P_PL) skips the warmup, times the
	// generic tracked run and reports Fallback.
	BenchInterned BenchMode = "interned"
	// BenchCold times one whole Protocol.Trial: table construction, the
	// interned run from empty tables, any capacity fallback and the
	// generic finish — or, for a protocol that attaches no tables, the
	// generic run alone. It is the path every library, service and fabric
	// trial takes, so its steps equal Trial's.
	BenchCold BenchMode = "cold"
)

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
	// Fallback reports, for BenchInterned rows, that the timed run did not
	// finish on the interned layer: the capacity cap moved it to the
	// generic engine, or the protocol attaches no tables at all (P_PL) and
	// ran generically throughout. Absent for every other mode.
	Fallback bool `json:"fallback,omitempty"`
	// Bytes and Allocs are the heap bytes and objects one run of the timed
	// region allocates: runtime.MemStats TotalAlloc and Mallocs deltas
	// around one extra, untimed repetition of it. Unlike the timing they
	// are close to a pure function of the code and the seed.
	Bytes  uint64 `json:"bytes"`
	Allocs uint64 `json:"allocs"`
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
	benchFill(maxSteps uint64)
	stepCount() uint64
}

// engineProtocol is the engine-level surface every built-in protocol
// (ringProtocol) adds to the public Protocol contract: a fresh unrun
// trial engine so RunBenchmark can time the run phase alone, and a pair
// of trial engines for one cell over ONE shared table set. The interned
// mode uses the pair — the first runner is an untimed warmup
// that fills the state interner and pair tables, the second re-runs the
// identical trajectory through the warm tables — so the timed region
// measures the steady-state table-lookup throughput the mode is named for
// rather than the one-time fill.
type engineProtocol interface {
	newBench(sc Scenario, n int, seed uint64) (benchRunner, error)
	newBenchPair(sc Scenario, n int, seed uint64) (warm, timed benchRunner, err error)
}

// RunBenchmark executes one perf-baseline measurement: protocol name (a
// registered built-in), requested ring size (FixSize-adjusted
// internally), scheduler seed, scenario, and mode — BenchRaw, BenchTracked,
// BenchInterned or BenchCold. rawSteps is the step budget of BenchRaw and
// ignored by the convergence modes, which run to the scenario's budget.
// Fault-schedule scenarios are rejected: the modes time a single
// uninterrupted run phase, so a burst schedule would be silently skipped
// and the artifact would mislabel a fault-free measurement. Custom
// registered protocols are not supported — the modes need engine-level
// access that the public Protocol contract deliberately does not expose.
//
// The allocation count comes from a second, untimed run of the region:
// reading runtime.MemStats stops the world, which must stay off the clock.
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
	if err := checkRingSize(p, n); err != nil {
		return BenchResult{}, err
	}
	region, err := benchRegion(p, b, sc, n, seed, mode, rawSteps)
	if err != nil {
		return BenchResult{}, err
	}
	res := BenchResult{
		Protocol: name, N: n, Scenario: sc.Init.String(), Mode: mode, Seed: seed,
	}
	start := time.Now()
	if err := region(&res); err != nil {
		return BenchResult{}, err
	}
	res.Seconds = time.Since(start).Seconds()
	if res.Seconds > 0 {
		res.StepsPerSec = float64(res.Steps) / res.Seconds
	}
	if region, err = benchRegion(p, b, sc, n, seed, mode, rawSteps); err != nil {
		return BenchResult{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = region(&BenchResult{})
	runtime.ReadMemStats(&after)
	if err != nil {
		return BenchResult{}, err
	}
	res.Bytes = after.TotalAlloc - before.TotalAlloc
	res.Allocs = after.Mallocs - before.Mallocs
	return res, nil
}

// benchRegion builds one unrun measurement of mode and returns its region:
// the call RunBenchmark times, which fills in the row's steps, converged
// and fallback fields.
func benchRegion(p Protocol, b engineProtocol, sc Scenario, n int, seed uint64, mode BenchMode, rawSteps uint64) (func(*BenchResult) error, error) {
	maxSteps := sc.MaxSteps(p, n)
	switch mode {
	case BenchRaw, BenchTracked:
		ru, err := b.newBench(sc, n, seed)
		if err != nil {
			return nil, err
		}
		if mode == BenchRaw {
			return func(res *BenchResult) error {
				ru.benchRaw(rawSteps)
				res.Steps, res.Converged = rawSteps, true
				return nil
			}, nil
		}
		return func(res *BenchResult) error {
			_, res.Converged = ru.benchTracked(maxSteps)
			res.Steps = ru.stepCount()
			return nil
		}, nil
	case BenchInterned:
		// Steady-state measurement: an untimed warmup run over the shared
		// table set fills the interner and pair tables, then the timed
		// runner replays the identical trajectory entirely warm.
		warm, timed, err := b.newBenchPair(sc, n, seed)
		if err != nil {
			return nil, err
		}
		warm.benchFill(maxSteps)
		return func(res *BenchResult) error {
			var interned bool
			_, res.Converged, interned = timed.benchInterned(maxSteps)
			res.Steps = timed.stepCount()
			res.Fallback = !interned
			return nil
		}, nil
	case BenchCold:
		// Trial wires its own engine and tables inside the timed region.
		return func(res *BenchResult) error {
			tr, err := p.Trial(sc, n, seed)
			if err != nil {
				return err
			}
			res.Steps, res.Converged = tr.Steps, tr.Converged
			return nil
		}, nil
	}
	return nil, fmt.Errorf("repro: unknown bench mode %q", mode)
}
