// Package sched provides arc schedulers: the distribution the engine
// draws interaction arcs from, step by step. The default population
// model uses a uniform-random scheduler; the implementations here widen
// that to adversarial regimes — per-arc bias (hot spots, ramps) and
// periodic eclipses of a contiguous arc interval — while preserving the
// engine's batched-draw discipline (one Fill call amortizes per-draw
// overhead exactly like xrand.FillIntn).
//
// Every scheduler here implements population.ArcScheduler, whose
// contract is step-indexed and serial: a scheduler is a pure
// function of (step index, RNG stream position), so a batch Fill for
// steps [s, s+k) draws exactly the same RNG stream as k successive
// single-element Fills. Phase changes (an eclipse opening or closing)
// happen only at steps announced by NextTransition, which lets the
// engine clamp its batches so no batch straddles a distribution change.
//
// Schedulers are per-trial values: alias tables and phase state are
// built once per trial and never shared across goroutines.
package sched

import "math"

// Never is the NextTransition value of schedulers whose distribution is
// constant over the whole run.
const Never = math.MaxUint64
