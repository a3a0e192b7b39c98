// Package chaos is the deterministic fault-injection layer of the
// platform's own infrastructure — the same discipline the simulated
// protocols get from Scenario fault bursts, applied to the process, IO
// and network boundaries the serving and fabric tiers cross.
//
// One seeded Injector drives every fault decision from a single xrand
// stream (SplitMix64), so a fault schedule is a pure function of (seed,
// decision sequence): rerunning the same component against the same
// injector configuration replays its faults bit-identically, which is
// what lets CI assert that a sweep executed under drops, latency
// spikes, injected 5xx, torn writes and a crashed worker still merges
// byte-identical to the serial run.
//
// Three boundaries are wrapped:
//
//   - Transport (http.RoundTripper): dropped connections (before or
//     after the request is sent — the latter exercises idempotency),
//     latency spikes, synthetic 5xx/429 with Retry-After, truncated
//     response bodies.
//   - FS (filesystem shim): torn atomic writes that lie about success
//     (a firmware-grade fault — the corruption surfaces only on
//     re-read), ENOSPC, short appends, fsync failure.
//   - Crash points: CrashPoint(label) marks the spots where a process
//     may die; the configured (label, hit-count) pair invokes the crash
//     function — os.Exit for real processes, a context cancel in tests.
//
// The package also owns the platform's one retry policy (Policy, in
// retry.go): capped exponential backoff with full jitter, Retry-After
// honored, context-deadline aware. Every worker→coordinator call and
// client path retries through it, never through ad-hoc loops.
package chaos

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/xrand"
)

// Config declares a fault plan. Probabilities are per-decision in
// [0,1]; the zero Config injects nothing (every wrapper becomes a
// transparent pass-through).
type Config struct {
	// Seed seeds the decision stream. Equal seeds + equal decision
	// sequences ⇒ equal fault schedules.
	Seed uint64

	// Transport faults, rolled once per round trip.
	Drop      float64 // fail before the request is sent
	DropAfter float64 // send the request, then report failure (tests idempotency)
	Latency   float64 // sleep a random spike in (0, MaxLatency] before forwarding
	HTTPError float64 // answer a synthetic 5xx/429 (with Retry-After) instead of forwarding
	Truncate  float64 // forward, then cut the response body short (missing bytes, unexpected EOF)

	// MaxLatency bounds injected latency spikes; 0 selects 50ms.
	MaxLatency time.Duration

	// Filesystem faults, rolled per operation.
	TornWrite   float64 // atomic write reports success but persists a torn prefix
	TornWriteAt int     // deterministically tear the Nth atomic write (1-based; 0 disables)
	ENOSPC      float64 // writes fail with ENOSPC before touching the file
	FsyncFail   float64 // Sync returns an error (the bytes may or may not be durable)

	// Crash plan: the CrashAt-th CrashPoint(CrashLabel) hit invokes
	// Crash. CrashAt 0 disables; Crash nil selects os.Exit(137), the
	// SIGKILL-shaped exit a supervisor restarts.
	CrashLabel string
	CrashAt    int
	Crash      func(label string)

	// Sleep substitutes the latency-spike sleeper in tests; nil selects
	// time.Sleep.
	Sleep func(d time.Duration)
}

// Counters snapshots how many faults of each kind actually fired —
// the assertion surface for soak tests ("the schedule was not empty").
type Counters struct {
	Drops       uint64 `json:"drops"`
	DropsAfter  uint64 `json:"drops_after"`
	Latencies   uint64 `json:"latencies"`
	HTTPErrors  uint64 `json:"http_errors"`
	Truncations uint64 `json:"truncations"`
	TornWrites  uint64 `json:"torn_writes"`
	ENOSPCs     uint64 `json:"enospcs"`
	FsyncFails  uint64 `json:"fsync_fails"`
	Crashes     uint64 `json:"crashes"`
}

// Injector rolls every fault decision for one component from one seeded
// stream. All methods are safe for concurrent use; concurrent callers
// serialize on the stream, so per-goroutine determinism requires one
// injector per independently-replayed component (one per worker, say) —
// exactly how the fabric wires it.
type Injector struct {
	mu       sync.Mutex
	cfg      Config
	rng      *xrand.RNG
	writes   int // atomic-write op counter (for TornWriteAt)
	crashes  map[string]int
	counters Counters
}

// NewInjector builds an injector for the given plan.
func NewInjector(cfg Config) *Injector {
	if cfg.MaxLatency <= 0 {
		cfg.MaxLatency = 50 * time.Millisecond
	}
	if cfg.Crash == nil {
		cfg.Crash = func(label string) {
			fmt.Fprintf(os.Stderr, "chaos: crash point %q reached — exiting\n", label)
			os.Exit(137)
		}
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &Injector{cfg: cfg, rng: xrand.New(cfg.Seed), crashes: make(map[string]int)}
}

// Counters snapshots the fault tallies.
func (in *Injector) Counters() Counters {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counters
}

// TransportFault is one round trip's rolled fault plan.
type TransportFault struct {
	// Latency, when positive, is slept before anything else happens.
	Latency time.Duration
	// Drop fails the round trip before the request is sent; DropAfter
	// sends it first and then reports failure.
	Drop, DropAfter bool
	// Status, when non-zero, short-circuits the round trip with a
	// synthetic response of that code.
	Status int
	// Truncate cuts the (real) response body short.
	Truncate bool
}

// injectedStatuses is the synthetic-error rotation: the retryable
// failure modes an overloaded or restarting peer actually produces.
var injectedStatuses = []int{
	500, // internal error
	502, // bad gateway
	503, // shutting down / overloaded
	429, // shed load, Retry-After
}

// NextTransportFault rolls the fault plan for one round trip. Exposed
// so tests can replay and compare schedules without an HTTP stack.
func (in *Injector) NextTransportFault() TransportFault {
	in.mu.Lock()
	defer in.mu.Unlock()
	var f TransportFault
	// Fixed draw order per decision keeps the (seed, call index) → fault
	// map stable whatever the configuration selects.
	if in.rng.Float64() < in.cfg.Latency {
		f.Latency = time.Duration(1 + in.rng.Intn(int(in.cfg.MaxLatency)))
		in.counters.Latencies++
	}
	if in.rng.Float64() < in.cfg.Drop {
		f.Drop = true
		in.counters.Drops++
		return f
	}
	if in.rng.Float64() < in.cfg.DropAfter {
		f.DropAfter = true
		in.counters.DropsAfter++
		return f
	}
	if in.rng.Float64() < in.cfg.HTTPError {
		f.Status = injectedStatuses[in.rng.Intn(len(injectedStatuses))]
		in.counters.HTTPErrors++
		return f
	}
	if in.rng.Float64() < in.cfg.Truncate {
		f.Truncate = true
		in.counters.Truncations++
	}
	return f
}

// WriteFault is one filesystem write's rolled fault plan.
type WriteFault struct {
	// Torn persists only a prefix of the data. For atomic writes the
	// operation still reports success — the lying-firmware fault whose
	// corruption only a later digest check can see. For appends the
	// short write surfaces as an error (the caller retries).
	Torn bool
	// ENOSPC fails the operation with syscall.ENOSPC before writing.
	ENOSPC bool
}

// nextAtomicWriteFault rolls the plan for one atomic file write.
func (in *Injector) nextAtomicWriteFault() WriteFault {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.writes++
	var f WriteFault
	if in.cfg.TornWriteAt > 0 && in.writes == in.cfg.TornWriteAt {
		f.Torn = true
		in.counters.TornWrites++
		return f
	}
	if in.rng.Float64() < in.cfg.ENOSPC {
		f.ENOSPC = true
		in.counters.ENOSPCs++
		return f
	}
	if in.rng.Float64() < in.cfg.TornWrite {
		f.Torn = true
		in.counters.TornWrites++
	}
	return f
}

// nextAppendFault rolls the plan for one journal append.
func (in *Injector) nextAppendFault() WriteFault {
	in.mu.Lock()
	defer in.mu.Unlock()
	var f WriteFault
	if in.rng.Float64() < in.cfg.ENOSPC {
		f.ENOSPC = true
		in.counters.ENOSPCs++
		return f
	}
	if in.rng.Float64() < in.cfg.TornWrite {
		f.Torn = true
		in.counters.TornWrites++
	}
	return f
}

// nextSyncFault rolls whether one fsync fails.
func (in *Injector) nextSyncFault() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.rng.Float64() < in.cfg.FsyncFail {
		in.counters.FsyncFails++
		return true
	}
	return false
}

// CrashPoint marks a spot where the process may die. When the hit count
// of the configured label reaches CrashAt, the crash function runs —
// os.Exit(137) in a real process, a context cancel in tests (simulated
// death: heartbeats stop, work is abandoned mid-flight). A nil Injector
// is a no-op, so callers hook unconditionally.
func (in *Injector) CrashPoint(label string) {
	if in == nil {
		return
	}
	in.mu.Lock()
	if in.cfg.CrashAt <= 0 || label != in.cfg.CrashLabel {
		in.mu.Unlock()
		return
	}
	in.crashes[label]++
	hit := in.crashes[label] == in.cfg.CrashAt
	if hit {
		in.counters.Crashes++
	}
	crash := in.cfg.Crash
	in.mu.Unlock()
	if hit {
		crash(label)
	}
}

// ParseFlag parses the CLI fault grammar: comma-separated k=v pairs,
//
//	seed=7,drop=0.05,dropafter=0.02,latency=0.2,maxlat=80ms,
//	httperr=0.05,trunc=0.02,torn=0.01,tornat=3,enospc=0.01,
//	fsync=0.01,crash=worker.ran@2
//
// Unknown keys are an error, as are probabilities outside [0,1] (NaN
// included) and negative counts; an empty string is the zero Config.
func ParseFlag(s string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(s) == "" {
		return cfg, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return cfg, fmt.Errorf("chaos: bad spec element %q (want k=v)", kv)
		}
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseUint(v, 0, 64)
		case "drop":
			cfg.Drop, err = parseProb(v)
		case "dropafter":
			cfg.DropAfter, err = parseProb(v)
		case "latency":
			cfg.Latency, err = parseProb(v)
		case "maxlat":
			cfg.MaxLatency, err = time.ParseDuration(v)
		case "httperr":
			cfg.HTTPError, err = parseProb(v)
		case "trunc":
			cfg.Truncate, err = parseProb(v)
		case "torn":
			cfg.TornWrite, err = parseProb(v)
		case "tornat":
			cfg.TornWriteAt, err = parseCount(v)
		case "enospc":
			cfg.ENOSPC, err = parseProb(v)
		case "fsync":
			cfg.FsyncFail, err = parseProb(v)
		case "crash":
			label, at, ok := strings.Cut(v, "@")
			if !ok {
				return cfg, fmt.Errorf("chaos: crash wants label@N, got %q", v)
			}
			cfg.CrashLabel = label
			cfg.CrashAt, err = parseCount(at)
		default:
			return cfg, fmt.Errorf("chaos: unknown spec key %q", k)
		}
		if err != nil {
			return cfg, fmt.Errorf("chaos: bad value for %s: %v", k, err)
		}
	}
	return cfg, nil
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) { // written so NaN fails too
		return 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	return p, nil
}

func parseCount(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("count %d is negative", n)
	}
	return n, nil
}
