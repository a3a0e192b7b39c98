package population

import "math/bits"

// LocalCounts carries, per condition channel, the number of ring locations
// currently matching the channel's condition: Arc[b] counts arcs (i, i+1)
// whose ArcMask has bit b set, Agent[b] counts agents whose AgentMask has
// bit b set. AgentPos[b] is the sum of the indices of the agents matching
// channel b — when Agent[b] == 1 it IS the index of the unique matching
// agent, which lets verdicts locate a unique leader (or walker, or
// anchor) in O(1) instead of scanning the ring. A RingSpec's Converged
// verdict reads these instead of scanning the configuration.
type LocalCounts struct {
	Arc      [8]int
	Agent    [8]int
	AgentPos [8]int
}

// RingSpec is the delta-decomposed form of a convergence predicate on a
// ring: per-adjacent-pair and per-agent conditions whose match counts are
// maintained in O(1) per interaction, plus a verdict that combines them.
// Predicates with a non-local remainder (for example the war peacefulness
// of C_PB, which orders signals against live bullets around the whole
// ring) put the local conditions first as a gate and scan only when every
// cheap condition already holds — which before convergence is rare, so the
// hot path stays scan-free.
type RingSpec[S any] struct {
	// ArcMask returns the condition bits matched by the ordered adjacent
	// pair (l, r) = (agent i, agent i+1 mod n). Nil means no arc
	// conditions.
	ArcMask func(l, r S) uint8
	// AgentMask returns the condition bits matched by a single agent's
	// state. Nil means no agent conditions.
	AgentMask func(s S) uint8
	// Converged decides the predicate from the channel counts. cfg is the
	// live configuration, for verdicts that need a residual scan once the
	// counts pass; implementations must treat it as read-only. Converged
	// must be exact: it returns true at precisely the steps where the
	// protocol's scan predicate would.
	Converged func(c *LocalCounts, cfg []S) bool
	// Gate and Residual, when both non-nil, split Converged for the
	// witness-cached hot path: Gate is the pure counter part of the verdict
	// (O(1), no configuration access) and Residual the non-local remainder,
	// run only once the gate passes. The invariant every spec must uphold is
	//
	//	Converged(c, cfg) == Gate(c) && ok, where ok, _ = Residual(c, cfg)
	//
	// at every reachable configuration. On failure Residual returns a
	// Witness — ring positions its falseness depends on — and the tracker
	// skips re-running the residual until an interaction touches one of
	// them, which keeps hitting times exact while amortizing the residual's
	// scan cost away (for P_PL the local gate is open for most of the long
	// construction phase, so an unconditional per-step residual scan costs
	// O(n) per interaction; witness caching reduces it to O(1) amortized).
	Gate     func(c *LocalCounts) bool
	Residual func(c *LocalCounts, cfg []S) (bool, Witness)
	// MetaID, ArcMaskMeta, AgentMaskMeta and ResidualMeta are the optional
	// meta-word acceleration of the spec: a RingTracker in meta mode (see
	// MaskMetaBits) keeps a per-agent slice of MetaID(state) words and
	// evaluates the masks and the residual over those words instead of
	// calling the state-level closures — one flat uint64 load per agent
	// instead of a struct read and a closure dispatch, which is what keeps
	// the residual scans of large-state protocols (P_PL) cheap. Meta mode
	// is the generic engine's: NewTables rejects a spec carrying MetaID,
	// since the interned loop feeds condition bits only. The contract is
	// strict equivalence:
	//
	//	ArcMaskMeta(MetaID(l), MetaID(r)) == ArcMask(l, r)
	//	ResidualMeta(c, meta)             == Residual(c, cfg)
	//
	// at every reachable configuration, where meta[i] == MetaID(cfg[i]).
	// The verdicts must match exactly; the Witness on a false verdict must
	// pin a genuinely failing check of THIS configuration (witness caching
	// stays sound under any such choice), though it need not be the same
	// check Residual would witness. A spec missing any meta form runs on
	// the closures alone. ResidualMeta may keep internal memoization (e.g. a
	// last-failing-check hint) as long as its verdict stays exact for ANY
	// meta slice it is handed — a spec value may serve more than one
	// tracker, each with its own meta slice, so a hint must be advisory,
	// never load-bearing.
	MetaID      func(s S) uint64
	ArcMaskMeta func(l, r uint64) uint8
	// AgentMaskMeta is the meta form of AgentMask, under the same
	// equivalence contract: AgentMaskMeta(MetaID(s)) == AgentMask(s) at
	// every reachable state. In meta mode the tracker refreshes a touched
	// agent's condition bits from its meta word instead of its state.
	AgentMaskMeta func(m uint64) uint8
	// ResidualMeta receives the per-agent meta words: meta[i] is
	// MetaID(cfg[i]) for ring position i.
	ResidualMeta func(c *LocalCounts, meta []uint64) (bool, Witness)
	// MaskMetaBits is the set of meta-word bits ArcMaskMeta and
	// AgentMaskMeta read: flipping any other bit of either argument must
	// leave both masks unchanged. A spec that sets it together with
	// MetaID, ArcMaskMeta, AgentMaskMeta, ResidualMeta and Gate puts the
	// RingTracker in meta mode (see RingTracker).
	MaskMetaBits uint64
	// ArcNames and AgentNames label the condition channels for
	// diagnostics: entry b names channel bit b of the arc (respectively
	// agent) counts. Named channels are surfaced by SampleCounts as
	// observables of the trial-record pipeline; unnamed channels (an empty
	// string, or a bit beyond the slice) stay internal. Naming a channel
	// changes nothing about tracking itself.
	ArcNames   []string
	AgentNames []string
}

// Witness records why a RingSpec residual failed: the inclusive interval
// [Lo, Hi] of ring positions (wrapping when Lo > Hi) covering every agent
// whose state the failing check read, plus an optional Anchor position the
// check is pinned to (typically the unique leader the scan walks from;
// -1 for none). The contract: as long as no interaction touches a position
// in the interval or the anchor, the residual is guaranteed to keep
// returning false, so the tracker may answer "not converged" without
// re-running it. Any touch of the leader is always observable this way —
// a leader set can only change by flipping some agent's leader bit, which
// touches that agent — so anchoring at the leader keeps leader-relative
// witnesses sound across gate flickers.
type Witness struct {
	Lo, Hi int32
	Anchor int32
}

// WholeRing is the trivial witness: every interaction invalidates it, so
// the residual re-runs on the next verdict — the behavior specs without
// witness support had all along. Residuals that cannot localize their
// failure return it.
func WholeRing(n int) Witness {
	return Witness{Lo: 0, Hi: int32(n - 1), Anchor: -1}
}

// IntervalWitness builds a witness for the wrapped inclusive interval of
// ring positions [lo, lo+span] anchored at anchor, clamping to the whole
// ring when the span covers it.
func IntervalWitness(n, lo, span, anchor int) Witness {
	if span >= n-1 {
		return WholeRing(n)
	}
	lo = mod(lo, n)
	return Witness{Lo: int32(lo), Hi: int32(mod(lo+span, n)), Anchor: int32(anchor)}
}

// contains reports whether ring position i lies in the witness's touch set.
func (w Witness) contains(i, n int) bool {
	if int32(i) == w.Anchor {
		return true
	}
	span := w.Hi - w.Lo
	if span < 0 {
		span += int32(n)
	}
	d := int32(i) - w.Lo
	if d < 0 {
		d += int32(n)
	}
	return d <= span
}

// witnessCache is RingTracker's residual-witness state: while a witness is
// armed and untouched, the residual is known to still fail and is not
// re-run.
type witnessCache struct {
	armed bool
	dirty bool
	w     Witness
}

// note marks the cache dirty when either touched agent lies in the armed
// witness's touch set. O(1); called after every interaction.
func (c *witnessCache) note(a, b, n int) {
	if c.armed && !c.dirty && (c.w.contains(a, n) || c.w.contains(b, n)) {
		c.dirty = true
	}
}

// RingTracker maintains a RingSpec incrementally while an engine runs:
// per-location condition bits plus the per-channel match counts. It is the
// engine's one convergence tracker (Engine.SetTracker), fed after every
// interaction by whichever loop executes it: Update from the generic
// applyPair, updateMasks from the interned loop's memo entry and per-ID
// tables. An interaction touches two adjacent agents, so at
// most two agent masks and four arc masks are re-evaluated — O(1)
// regardless of ring size — and Converged, asked after every single step,
// makes hitting times exact instead of quantized to a periodic
// full-configuration scan.
//
// A spec carrying the meta-word acceleration (MetaID, ArcMaskMeta,
// AgentMaskMeta, ResidualMeta, Gate and MaskMetaBits) puts the tracker in
// meta mode: it keeps one MetaID word per agent, evaluates the masks and
// the residual over those flat words, and skips the mask refresh of an
// interaction whose two touched agents moved no MaskMetaBits bit — on
// P_PL most interactions advance clocks and tokens without touching any
// field a mask reads.
type RingTracker[S any] struct {
	spec      RingSpec[S]
	cfg       []S
	metaMode  bool     // the spec carries the whole meta-word acceleration
	meta      []uint64 // meta mode only: meta[i] == spec.MetaID(cfg[i])
	arcBits   []uint8
	agentBits []uint8
	counts    LocalCounts

	// Residual witness cache (see RingSpec.Residual).
	wc witnessCache
}

// NewRingTracker returns a tracker for the spec. It is inert until the
// engine's SetTracker (or a direct Reset) hands it a configuration.
func NewRingTracker[S any](spec RingSpec[S]) *RingTracker[S] {
	if spec.Converged == nil {
		panic("population: RingSpec needs a Converged verdict")
	}
	metaMode := spec.MetaID != nil && spec.ArcMaskMeta != nil && spec.AgentMaskMeta != nil &&
		spec.ResidualMeta != nil && spec.Gate != nil && spec.MaskMetaBits != 0
	return &RingTracker[S]{spec: spec, metaMode: metaMode}
}

// Counts returns the current per-channel match counts (for tests and
// diagnostics).
func (t *RingTracker[S]) Counts() LocalCounts { return t.counts }

// SampleCounts writes each named channel's current match count into dst
// under its name, so probes can record protocol-shape observables (leader
// counts, live bullets, distance violations, …) without scanning the
// configuration. O(number of named channels).
func (t *RingTracker[S]) SampleCounts(dst map[string]float64) {
	for b, name := range t.spec.ArcNames {
		if name != "" {
			dst[name] = float64(t.counts.Arc[b])
		}
	}
	for b, name := range t.spec.AgentNames {
		if name != "" {
			dst[name] = float64(t.counts.Agent[b])
		}
	}
}

// Reset recomputes all tracker state from the configuration. The slice is
// the engine's live backing array: the tracker retains it and reads it on
// later calls, but never writes to it.
func (t *RingTracker[S]) Reset(cfg []S) {
	n := len(cfg)
	t.cfg = cfg
	if len(t.arcBits) != n {
		t.arcBits = make([]uint8, n)
		t.agentBits = make([]uint8, n)
		if t.metaMode {
			t.meta = make([]uint64, n)
		}
	}
	for i := range t.meta {
		t.meta[i] = t.spec.MetaID(cfg[i])
	}
	t.counts = LocalCounts{}
	t.wc.armed = false
	for i := 0; i < n; i++ {
		var ab, gb uint8
		if t.spec.ArcMask != nil {
			ab = t.arcMask(i)
		}
		if t.spec.AgentMask != nil {
			gb = t.agentMask(i)
		}
		t.arcBits[i], t.agentBits[i] = ab, gb
		bumpCounts(&t.counts.Arc, 0, ab)
		bumpAgentCounts(&t.counts, 0, gb, i)
	}
}

// Update is the generic feed, called after the interaction on the arc
// (li, ri) has been applied to the configuration passed to Reset: it reads
// the two touched agents' new meta words (meta mode) or condition bits off
// their states.
func (t *RingTracker[S]) Update(li, ri int32) {
	a, b := int(li), int(ri)
	if t.meta != nil {
		t.updateMeta(a, b, t.spec.MetaID(t.cfg[a]), t.spec.MetaID(t.cfg[b]))
		return
	}
	var ga, gb, pair uint8
	if t.spec.AgentMask != nil {
		ga, gb = t.spec.AgentMask(t.cfg[a]), t.spec.AgentMask(t.cfg[b])
	}
	if t.spec.ArcMask != nil && next(a, len(t.cfg)) == b {
		pair = t.spec.ArcMask(t.cfg[a], t.cfg[b])
	}
	t.updateMasks(a, b, ga, gb, pair)
}

// updateMeta is the meta-mode feed after an interaction of agents a and b:
// ma and mb are their new meta words. The masks are re-evaluated only when
// either word moved a MaskMetaBits bit.
func (t *RingTracker[S]) updateMeta(a, b int, ma, mb uint64) {
	t.wc.note(a, b, len(t.meta))
	moved := (ma ^ t.meta[a]) | (mb ^ t.meta[b])
	t.meta[a], t.meta[b] = ma, mb
	if moved&t.spec.MaskMetaBits == 0 {
		return
	}
	if t.spec.AgentMask != nil {
		t.refreshAgent(a)
		t.refreshAgent(b)
	}
	if t.spec.ArcMask != nil {
		t.refreshIncident(a, b)
	}
}

// updateMasks is the closure-mode feed after an interaction of agents a
// and b: ga and gb are their new condition bits (zero when the spec has no
// AgentMask), pair the arc bits of (a, b) in interaction order. When b
// follows a on the ring, (a, b) is ring arc a, so only its two side arcs
// are re-evaluated; otherwise all (up to four) incident arcs are.
func (t *RingTracker[S]) updateMasks(a, b int, ga, gb, pair uint8) {
	n := len(t.cfg)
	t.wc.note(a, b, n)
	t.setAgent(a, ga)
	t.setAgent(b, gb)
	if t.spec.ArcMask == nil {
		return
	}
	if next(a, n) == b {
		t.setArc(a, pair)
		t.refreshArc(prev(a, n))
		t.refreshArc(b)
		return
	}
	t.refreshIncident(a, b)
}

// Converged reports whether the spec's predicate holds right now; the
// engine asks after every single step, so it is cheap when the answer is
// "no". Specs that provide the Gate/Residual split get the witness-cached
// path: the O(1) gate runs every call, and a failing residual is only
// re-run after an interaction touches its witness — over the meta words in
// meta mode. Specs without the split pay their full Converged verdict
// every call.
func (t *RingTracker[S]) Converged() bool {
	if t.meta == nil && (t.spec.Gate == nil || t.spec.Residual == nil) {
		return t.spec.Converged(&t.counts, t.cfg)
	}
	if !t.spec.Gate(&t.counts) || t.wc.armed && !t.wc.dirty {
		return false
	}
	var ok bool
	var w Witness
	if t.meta != nil {
		ok, w = t.spec.ResidualMeta(&t.counts, t.meta)
	} else {
		ok, w = t.spec.Residual(&t.counts, t.cfg)
	}
	t.wc = witnessCache{armed: !ok, w: w}
	return ok
}

// agentMask evaluates agent i's condition bits, from its meta word in meta
// mode and from its state otherwise.
func (t *RingTracker[S]) agentMask(i int) uint8 {
	if t.meta != nil {
		return t.spec.AgentMaskMeta(t.meta[i])
	}
	return t.spec.AgentMask(t.cfg[i])
}

// arcMask evaluates the condition bits of the ring arc (i, i+1).
func (t *RingTracker[S]) arcMask(i int) uint8 {
	j := next(i, len(t.cfg))
	if t.meta != nil {
		return t.spec.ArcMaskMeta(t.meta[i], t.meta[j])
	}
	return t.spec.ArcMask(t.cfg[i], t.cfg[j])
}

func (t *RingTracker[S]) refreshAgent(i int) { t.setAgent(i, t.agentMask(i)) }

func (t *RingTracker[S]) refreshArc(i int) { t.setArc(i, t.arcMask(i)) }

// refreshIncident re-evaluates each ring arc incident to agent a or b —
// (x-1, x) and (x, x+1) for both — once.
func (t *RingTracker[S]) refreshIncident(a, b int) {
	n := len(t.cfg)
	idx := [4]int{prev(a, n), a, prev(b, n), b}
	for k, arc := range idx {
		dup := false
		for j := 0; j < k; j++ {
			if idx[j] == arc {
				dup = true
				break
			}
		}
		if !dup {
			t.refreshArc(arc)
		}
	}
}

func (t *RingTracker[S]) setAgent(i int, nw uint8) {
	if old := t.agentBits[i]; old != nw {
		t.agentBits[i] = nw
		bumpAgentCounts(&t.counts, old, nw, i)
	}
}

func (t *RingTracker[S]) setArc(i int, nw uint8) {
	if old := t.arcBits[i]; old != nw {
		t.arcBits[i] = nw
		bumpCounts(&t.counts.Arc, old, nw)
	}
}

// bumpCounts applies the old→new bit delta to the per-channel counts.
func bumpCounts(counts *[8]int, old, nw uint8) {
	for diff := old ^ nw; diff != 0; diff &= diff - 1 {
		b := bits.TrailingZeros8(diff)
		if nw&(1<<b) != 0 {
			counts[b]++
		} else {
			counts[b]--
		}
	}
}

// bumpAgentCounts applies the old→new bit delta of agent idx to the agent
// channel counts and index sums.
func bumpAgentCounts(c *LocalCounts, old, nw uint8, idx int) {
	for diff := old ^ nw; diff != 0; diff &= diff - 1 {
		b := bits.TrailingZeros8(diff)
		if nw&(1<<b) != 0 {
			c.Agent[b]++
			c.AgentPos[b] += idx
		} else {
			c.Agent[b]--
			c.AgentPos[b] -= idx
		}
	}
}

func next(i, n int) int {
	i++
	if i == n {
		return 0
	}
	return i
}

func prev(i, n int) int {
	if i == 0 {
		return n - 1
	}
	return i - 1
}
