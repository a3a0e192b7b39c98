// Package repro is a production-quality Go reproduction of
//
//	Yokota, Sudo, Ooshita, Masuzawa. "A Near Time-optimal Population
//	Protocol for Self-stabilizing Leader Election on Rings with a
//	Poly-logarithmic Number of States." PODC 2023 (arXiv:2305.08375).
//
// The root package is the public experiment API, built from four
// composable concepts:
//
//   - Protocol — the one contract every protocol under test satisfies:
//     parameter construction per ring size, the initial configuration of a
//     scenario and seed, the step function and convergence predicate
//     (exercised through Trial), and the exact state count. A named
//     registry (Register, Protocols, NewProtocol) ships the paper's P_PL
//     ("ppl") and P_OR ("orient") plus the four Table 1 baselines
//     ("yokota", "angluin", "fj", "chenchen"); external protocols plug in
//     through Register.
//
//   - Scenario — everything about a trial except the protocol and ring
//     size: the interaction topology, the adversarial init class
//     (including the cold-start and corrupted families), an optional
//     mid-run fault-injection schedule, the step-budget policy, and the
//     scheduler/ring-dynamics spec (SchedulerSpec). The zero Scenario is
//     the standard random-adversary experiment: uniform-random scheduler
//     on a static ring.
//
//   - Experiment — a builder that runs a protocol × size trial matrix and
//     returns a structured Report (per-trial results, per-cell summaries,
//     fitted scaling exponents) with Markdown, JSON and CSV renderers —
//     and, through the streaming observation API below, feeds per-trial
//     TrialRecords to pluggable Sinks as workers finish.
//     ReportFromRecords replays a recorded artifact back through the
//     same aggregation, byte-identical to the run that produced it.
//
//   - Streaming observation — Probe, TrialRecord, Sink and Metric: the
//     layer that makes richer observables (leader trajectories, recovery
//     times, tracker channel counts) first-class per-trial artifacts.
//     See the section below.
//
// Quickstart:
//
//	rep, err := repro.NewExperiment().
//	        ProtocolNames("ppl", "yokota").
//	        Sizes(16, 32, 64).
//	        Trials(5).
//	        Run(context.Background())
//	if err != nil {
//	        log.Fatal(err)
//	}
//	fmt.Print(rep.Markdown())
//
// Trials fan out across all cores through the internal trial-execution
// engine with deterministic per-trial seeds (TrialSeed), so a Report is
// byte-identical whatever the worker count — parallelism changes
// wall-clock time, never a number in an artifact.
//
// # Streaming observation: probes, records, sinks
//
// The legacy TrialResult is three scalars; the quantities the literature
// actually compares — leader-count trajectories, recovery time after
// faults, state-space occupancy — flow through the streaming layer:
//
//   - Probe — receives one trial's typed event stream (TrialEvent):
//     leader-set changes sampled O(1) off the engine's incremental
//     trackers, fault bursts and the epochs they open, the exact
//     convergence step, and the named tracker channel counts at the end
//     of the run phase. Built-in protocols implement ProbedProtocol;
//     ProbeTrial degrades gracefully to plain Trial for external
//     registrants. A probe never perturbs the trial: RNG stream, hitting
//     time and TrialResult are identical with or without one.
//
//   - TrialRecord — the distilled per-trial artifact a RecordingProbe
//     produces: the legacy scalars plus named observables
//     (recovery_steps, leaders_peak, chan_* channel counts, …) and the
//     "leaders" series.
//
//   - Sink — consumes records as workers finish. Experiment.Sinks
//     attaches any number (the in-memory Report is itself one such sink
//     internally, so Run with sinks streams AND aggregates, byte-identical
//     to before); Experiment.Stream drops the Report entirely, so a
//     million-trial sweep runs in memory bounded by the worker count.
//     JSONLSink writes the one-JSON-object-per-line artifact cmd/sweep
//     (-record), cmd/ringsim (-record) and cmd/bench (-records) emit and
//     cmd/figures (-records) renders; DecodeTrialRecords reads it back.
//     RotatingJSONLSink adds size-bounded segment rotation and gzip
//     compression for long-running streams, and its Close finalizes
//     (flush, gzip footer, fsync) even after a mid-write error, so a
//     crashed or cancelled run still leaves well-formed segments.
//
// A worked recovery-time measurement (see examples/recovery): inject
// fault bursts, stream records, rank protocols on healing time:
//
//	sink, _ := repro.CreateJSONL("records.jsonl")
//	rep, err := repro.NewExperiment().
//	        ProtocolNames("ppl", "yokota").
//	        Sizes(64, 128).
//	        Trials(50).
//	        Scenario(repro.Scenario{Faults: []repro.Fault{{AtStep: 5000, Agents: 32}}}).
//	        Metrics(repro.MeanOf("recovery_steps"), repro.P90Of("recovery_steps")).
//	        Sinks(sink). // closed and flushed by Run, even on cancellation
//	        Run(ctx)
//
// # Composable metrics
//
// Summary statistics are no longer hard-wired to Steps: a Metric names any
// record observable and an aggregation (mean, median, p90, min, max, std,
// sum, count), and each report cell carries the metric over the trials
// that have the observable — rendered as an extra Markdown table per
// metric and a "metrics" object per cell in JSON. Cells with no samples
// omit the value; likewise a Summary with zero converged trials renders
// null statistics in JSON and empty CSV fields, never stale zeros.
//
// # Callback concurrency contract
//
// Observer callbacks, Sink.Record calls and runner progress callbacks are
// serialized — never concurrent with themselves — but are issued from
// worker goroutines. Callbacks touching only their own captured state need
// no mutex; sharing state with the caller's other goroutines requires the
// caller's own synchronization. Probes are per-trial values driven from a
// single goroutine.
//
// # Convergence measurement semantics
//
// TrialResult.Steps is the exact hitting time of the protocol's
// convergence predicate: the first scheduler step at which the
// configuration enters the closed set (S_PL for P_PL, full orientation
// for P_OR, the absorbing shape for each baseline). Convergence is judged
// by an incremental tracker — the predicate is decomposed into per-agent
// and per-adjacent-pair conditions whose violation counters are updated
// in O(1) per interaction, with any non-local remainder (the war's C_PB
// peacefulness, P_PL's segment-ID chain and token soundness) run only at
// the steps where every local counter already passes, and re-run after a
// failure only once an interaction touches the failure's recorded witness
// interval (for P_PL the local gate is open for most of the long
// construction phase, so witness caching is what keeps the per-step
// verdict O(1) amortized — it took tracked-mode throughput at n=1024 from
// ~0.3M to ~6M steps/sec without moving a single hitting time). The
// tracker is pinned to the brute-force scan predicate by per-step
// regression tests, so the two never disagree.
//
// Earlier versions polled the predicate over the whole configuration only
// every n/2+1 steps (n for P_OR), so published Steps were quantized to
// that grid and overestimated the true hitting time by up to checkEvery-1
// steps. Mean convergence steps, fitted exponents, and every artifact
// recording Steps therefore shift down slightly against pre-tracker
// numbers; Stabilized (the last leader-set change) is unaffected, because
// the closed sets admit no further output changes. Fault-injection trials
// additionally record a leader-set change at the burst-install step when
// the corruption itself rewrites the leader set, so Stabilized can no
// longer report a pre-fault step.
//
// # Adversarial schedulers and ring dynamics
//
// The paper's guarantee is self-stabilization from any configuration
// under the uniform-random scheduler; SchedulerSpec stresses the
// protocols beyond that model while keeping the measurement pipeline
// unchanged. A scenario may select a biased arc distribution ("biased":
// hotspot or ramp weight families, sampled by the alias method in two
// RNG draws per interaction), a periodic partition ("eclipse": a dead
// interval of arcs opens every period for a fixed duration; draws
// renormalize over the survivors and the exact window boundaries stream
// as EventSchedPhase events), mid-run churn (agents leave and the ring
// re-splices around them, newcomers join in corrupted states — rejected
// up front by the fixed-ring protocols orient, fj and chenchen), and
// stuck agents (frozen in both interaction roles for the whole trial).
// Trials under these adversaries stream extra observables through the
// same records: eclipse_windows, eclipse_recovery_steps (steps from the
// last window closing to convergence), churn_events, churn_removed,
// churn_inserted and live_agents_min.
//
// The explicit "uniform" kind draws the byte-identical RNG stream the
// default fast path draws, through the full scheduler plumbing — the
// subsystem's differential tests pin TrialResults, probe streams and
// the committed bench baseline's hitting times across both engines, so
// scheduler support provably costs the standard experiment nothing.
// ParseSchedulerSpec and ParseChurnSpec parse the CLI grammar
// (cmd/ringsim -sched/-churn/-stuck); the spec round-trips through
// Scenario JSON and is covered by the service's cell digests.
//
// # Interned execution engine
//
// Trials of the protocols whose state pairs repeat — the four constant-
// state baselines, P_OR and the O(n)-state Yokota et al. protocol — run
// on an interned execution layer (internal/population's InternedEngine):
// distinct states are interned into dense integer IDs, the pairwise
// transition is memoized into a lazily-filled (idL, idR) lookup table
// whose entries carry precomputed leader-set deltas and the successor
// pair's arc mask, and each interaction replays as a handful of array
// loads instead of the full transition cascade plus mask closures. The
// loop feeds the engine's one convergence tracker (population.RingTracker,
// the same one the generic engine feeds) from those entries and from
// per-ID mask tables. Oracle protocols (fj's Ω?, chenchen's flag census)
// keep one table per environment key and maintain their global counters
// through precomputed per-entry deltas.
//
// The packed-state core carries the layer into the O(n)-state regime:
// each interning protocol ships a fixed-width PackedCodec (an injective
// ≤63-bit encoding of its state struct, pinned by round-trip and fuzz
// tests) that keys the interner through an open-addressed table instead
// of a Go map; pair memos live in a dense array while the state count is
// small and migrate to an open-addressed hashed slab — interleaved
// key/value words, fronted by a small direct-mapped cache and a software
// prefetch of the next pair's lookup line — when it grows; and the
// interner's capacity cap is the full ID space, a memory backstop. Every
// trial builds its own table set and starts from empty tables.
//
// The layer is a pure accelerator: the RNG stream, step counts, leader
// accounting, hitting times and probe event streams are bit-identical to
// the generic engine (pinned by differential tests across the five
// interning protocols, fuzzed seeds, adversarial schedulers and mid-run
// fault bursts), and it falls back to the generic path transparently when
// the run exceeds the interner's capacity cap.
//
// P_PL attaches no tables: a trial visits ~200·n distinct states, most of
// them once, so pair memoization has nothing to reuse, and every P_PL
// trial runs on the generic engine from step 0. Its tracker runs on P_PL's
// meta words (RingSpec.MaskMetaBits): a mask refresh happens only when an
// interaction moved a bit the masks read.
//
// # Performance baseline (BENCH_ringsim.json)
//
// RunBenchmark (and the cmd/bench command wrapping it) measures steps per
// second of every built-in protocol × ring size × scenario in four
// modes: "runbatch" (the raw batched transition loop, no convergence
// judgement — the ceiling), "tracked" (run-to-convergence through the
// incremental tracker with exact hitting times), "interned"
// (the table-lookup layer timed steady-state against tables pre-filled
// by an untimed warmup run — warm tables no user path runs — with its
// Fallback flag recorded per row; P_PL, which attaches no tables, times
// its generic tracked run and reports a fallback) and "cold" (one whole
// Protocol.Trial from empty tables, fallback included — the path every
// user trial takes). Every
// row also records the heap bytes and objects one run of its timed
// region allocates, counted on an extra, untimed repetition.
// cmd/bench additionally measures "recovery" rows —
// exact steps from a deterministic mid-run fault burst back to
// convergence — and "eclipse" rows — exact steps from a deterministic
// ring partition's window closing back to convergence — times every
// measurement best-of-k (-bestof, recorded in
// the envelope), and its -compare subcommand diffs two baseline files
// and gates CI: tracked-, interned- and cold-mode throughput,
// each normalized by the same file's runbatch rate (machine-portable) and
// gated on its own geomean, must not regress more than 20%, mean
// recovery steps (deterministic counts) must not drift more than 5%, no
// runbatch, tracked, interned or cold row present in both files
// may change its steps, converged or fallback (deterministic too), and
// no row present in both may grow its bytes or allocs by more than a
// tenth (with a small absolute slack) against the committed
// BENCH_baseline.json. CI uploads the resulting
// BENCH_ringsim.json — schema "repro.bench/v1", an envelope of
// Go/OS/arch/CPU provenance plus a flat results array — as an artifact on
// every push, so engine performance has a recorded and enforced
// trajectory.
//
// # Experiment service
//
// cmd/serve (over internal/service) puts this API behind a long-running
// HTTP server: POST /v1/jobs takes a JSON job spec — protocols × sizes ×
// scenario × trials × metrics — a bounded worker-pool queue executes its
// cells through Experiment.Stream, and results stream back as
// TrialRecord JSONL (GET /v1/jobs/{id}/records) or rendered reports
// (GET /v1/jobs/{id}/report?format=md|json|csv, replayed through
// ReportFromRecords). Because every (protocol, scenario, n, seed) cell
// is a pure function of its inputs, finished cells are content-addressed
// and cached: identical jobs return byte-identical records from cache,
// and hit/miss counters are observable on /v1/stats. See docs/API.md for
// the HTTP reference.
//
// For driving a single simulation interactively, RingElection runs P_PL
// on a directed ring and RingOrientation runs the Section 5 orientation
// protocol on an undirected ring. Both are built on the registered ppl and
// orient protocols' trial wiring and step budgets. ObserveTrial runs one
// trial of a built-in protocol with a per-interaction observer attached
// and returns its final configuration; cmd/ringsim's -stats and -v read
// the reported trial through it. The paper's Table 1 is one Experiment
// (see examples/comparison).
//
// The building blocks live under internal/: the population-protocol
// engine (internal/population), the protocol itself (internal/core), the
// baselines (internal/yokota, internal/angluin, internal/fj,
// internal/chenchen), the substrates (internal/twohop, internal/lottery,
// internal/war), statistics (internal/stats) and the parallel
// trial-execution engine (internal/runner).
//
// See README.md for the narrative overview, docs/ARCHITECTURE.md for the
// full layer map, docs/API.md for the service's HTTP reference, and the
// examples/ directory for runnable walkthroughs of the election,
// orientation, fault-injection and experiment APIs.
package repro
