package population

// Lockstep lanes: k same-cell trials executed as a structure-of-arrays
// bundle against ONE shared Tables. Sweep cells run many trials of the
// same (protocol, n, scenario) with different seeds, and each trial alone
// pays the cold fill of its transition tables. Lanes amortize the fill:
// the first lane to see a pair memoizes it, every other lane loads it
// (each lane's reuse guard still judges its own misses). Sharing is
// sound because memo entries are pure functions of the state pair (and
// env key) — the contract EnvSpec.Delta's purity requirement exists for —
// so the only thing sharing changes is which lane happens to fill a
// given entry first, never any lane's states, deltas or verdicts.
//
// Each lane keeps its own engine, RNG stream, ID mirror and tracker
// mirror; the scheduler interleaving across lanes is irrelevant to any
// single lane's trajectory because lane RNG streams are independent.
// Results are therefore bit-identical to running each trial solo (against
// a cold private table) — the differential tests pin this. Per-lane
// batches draw through each engine's pending buffer in the same batch
// sizes as solo runs, so a lane that falls back mid-run continues
// generically on the exact same scheduler stream.

// LaneSet bundles k InternedEngines sharing one Tables for lockstep
// execution. Build each lane with AttachInterned against the same Tables,
// then wrap them; NewLaneSet marks the lanes shared so a capacity
// fallback in one lane does not free the tables under the others.
type LaneSet[S comparable] struct {
	lanes []*InternedEngine[S]
}

// NewLaneSet wraps the lanes, which must all be attached to the same
// Tables.
func NewLaneSet[S comparable](lanes []*InternedEngine[S]) *LaneSet[S] {
	if len(lanes) == 0 {
		panic("population: empty LaneSet")
	}
	tab := lanes[0].tab
	for _, g := range lanes {
		if g.tab != tab {
			panic("population: LaneSet lanes must share one Tables")
		}
		g.shared = true
	}
	return &LaneSet[S]{lanes: lanes}
}

// laneBatch is how many steps a lane runs before the set rotates to the
// next lane. The batch is deliberately enormous — in practice each lane
// runs to convergence before the next one starts. Lanes share the tables'
// front cache, and fine-grained interleaving (a pending-buffer refill per
// turn) makes the lanes evict each other's hot pairs from it, which
// measurably loses more than interleaved table warming gains; with
// sequential lanes, every lane after the first still inherits a fully
// warm transition table. Results are independent of the batch size —
// each lane owns its RNG stream — so this is purely a locality choice.
const laneBatch = 1 << 22

// RunUntilConverged drives every lane to convergence (or to maxSteps),
// round-robin in laneBatch chunks, with exact per-lane hitting times.
// Lanes that cannot intern (observers, stuck agents) and lanes that fall
// back mid-run (capacity, reuse guard) complete generically in place.
// Returns each lane's step count and verdict, index-aligned with the
// lanes passed to NewLaneSet — identical to calling each lane's
// RunUntilConverged alone.
func (ls *LaneSet[S]) RunUntilConverged(maxSteps uint64) ([]uint64, []bool) {
	n := len(ls.lanes)
	steps := make([]uint64, n)
	conv := make([]bool, n)
	active := make([]bool, n)
	remaining := 0
	for i, g := range ls.lanes {
		e := g.Engine
		if !g.prepare() {
			// This lane can never intern: finish it generically now rather
			// than interleaving — interleaving only exists to share table
			// fills, which this lane cannot use.
			g.idsOK = false
			e.SetTracker(g.generic)
			steps[i], conv[i] = e.RunUntilConverged(maxSteps)
			continue
		}
		g.ensureMirror()
		if g.convergedNow() {
			steps[i], conv[i] = e.step, true
			continue
		}
		g.lazyOn(true)
		active[i] = true
		remaining++
	}
	for remaining > 0 {
		for i, g := range ls.lanes {
			if !active[i] {
				continue
			}
			e := g.Engine
			done, fell := false, false
			for b := 0; b < laneBatch && e.step < maxSteps; b++ {
				if e.pendStart == e.pendEnd {
					e.refillPending(maxSteps - e.step)
				}
				arc := e.topo.Arcs[e.pendBuf[e.pendStart]]
				e.pendStart++
				if pf := e.pendStart + prefetchDepth - 1; pf < e.pendEnd && len(g.tab.trans) == 1 {
					// Same speculative upcoming-pair line touch as the solo
					// RunUntilConverged loop.
					na := e.topo.Arcs[e.pendBuf[pf]]
					g.tab.trans[0].prefetch(g.ids[na[0]], g.ids[na[1]])
				}
				switch g.applyInterned(arc[0], arc[1], true) {
				case stepFell:
					fell = true
				case stepApplied:
					if g.convergedNow() {
						g.settle()
						steps[i], conv[i] = e.step, true
						done = true
					}
				}
				if done || fell {
					break
				}
				if g.reuseBail() {
					g.settle()
					g.fall()
					e.SetTracker(g.generic)
					fell = true
					break
				}
			}
			if fell {
				// The fallen lane completes generically in place (applyInterned
				// installed the tracker before the triggering arc ran, so the
				// generic loop's verdicts are exact) — the other lanes keep the
				// shared tables.
				steps[i], conv[i] = e.RunUntilConverged(maxSteps)
				done = true
			} else if !done && e.step >= maxSteps {
				g.settle()
				steps[i], conv[i] = e.step, false
				done = true
			}
			if done {
				active[i] = false
				remaining--
			}
		}
	}
	return steps, conv
}
