package population

// The interned execution layer: an Engine wrapper that replays interactions
// as table loads. States are interned into dense uint32 IDs (intern.go) —
// through a packed-state open-addressed table when the protocol provides a
// PackedCodec, through a Go map otherwise — the pairwise transition is
// memoized per (idL, idR) — per environment key for oracle protocols — and
// the memo entry carries everything the engine's bookkeeping needs
// precomputed: the successor IDs, whether the interaction is a no-op,
// whether the leader set changed and by how much, the arc mask of the
// successor pair, and the transition's effect on the oracle's backing
// counters. The engine's convergence tracker (RingTracker) is fed from the
// same entry: the touched agents' condition bits come from per-ID mask
// tables and the interaction arc's mask fused out of the memo entry.
//
// Interning pays only where (state, state) pairs repeat: the constant-state
// baselines and the O(N)-state protocol of Yokota et al. A protocol whose
// runs visit mostly fresh states — P_PL touches ~200·n distinct states per
// trial, most of them once — attaches no tables and runs on the generic
// engine from step 0.
//
// All memoized state lives in a Tables value. Every trial builds its own
// and starts from empty tables; engines may share one (the interned bench
// mode times a replay through tables an untimed run filled), but sharing is
// single-goroutine: a Tables must only ever be touched from one goroutine
// at a time.
//
// The layer is a pure accelerator: arc draws use the same batched RNG
// stream (including the engine's pending-draw buffer and any installed
// ArcScheduler — biased and eclipse draws intern exactly like uniform
// ones, since the distribution only picks arcs; stuck-agent masks are the
// one dynamics feature that forces the generic path), the step counter,
// leader accounting, leader hook, tracker counts, witness caching and
// hitting times are bit-for-bit identical to the generic path, and when the
// interner's capacity cap is exceeded mid-run the engine falls back to the
// generic path transparently — the already-drawn arc is executed
// generically, remaining pre-drawn arcs stay pending, and the run continues
// on the exact same scheduler stream.

// EnvSpec adapts a protocol whose transition reads a small global
// environment derived from global counters — the Fischer–Jiang Ω? oracle
// view, the Chen–Chen flag census — to the interned layer. The transition
// must depend on the environment only through Key (a small dense key), and
// its effect on the environment's backing counters must be expressible as
// a per-transition delta: the interned hot path calls Apply(delta) instead
// of dispatching the engine observer that maintains the counters on the
// generic path, so Delta/Apply must replicate that observer exactly.
type EnvSpec[S any] struct {
	// Keys is the number of distinct environment keys; one transition table
	// is kept per key.
	Keys int
	// Key returns the current environment key in [0, Keys).
	Key func() uint32
	// Delta encodes the transition's effect on the environment's backing
	// counters in at most 11 bits (the memo entry's spare field). It must
	// be a pure function of the four states: the memo entry stores it once
	// per (key, pair) and replays it whatever the live counters are.
	Delta func(lb, rb, la, ra S) uint32
	// Apply applies an encoded delta to the backing counters.
	Apply func(delta uint32)
}

// InternOptions tunes the interned layer's capacity cap.
type InternOptions struct {
	// MaxStates caps the interner; once an execution needs more distinct
	// states the engine permanently falls back to the generic path.
	// 0 selects MaxInternStates, which every trial uses; a lower cap lets
	// tests trip the fallback. Values above MaxInternStates are rejected
	// by NewTables.
	MaxStates int
}

// MaxInternStates is the interner's cap, the ID ceiling: memo entries
// address successor states in idBits-wide fields. The cap is a memory
// backstop, not a reuse heuristic — tables grow lazily with the pairs
// actually seen, and only protocols whose pairs repeat attach tables at
// all.
const MaxInternStates = 1 << idBits

// defaultDenseStates keeps the dense tier's stride² array at or below 512²
// entries (2 MiB) and its growth re-layouts cheap; past it pair tables
// migrate to the open-addressed hashed tier, whose memory tracks the pairs
// actually seen instead of the square of the state count. The tier is
// A/B-measured against hashing every table behind its front cache: that
// made each cold small-state table set allocate a 2 MiB front per
// environment key, and lost on the bench gate cells.
const defaultDenseStates = 512

// prefetchDepth is how many pending draws ahead the run loops touch the
// pair-table lines of upcoming interactions (see pairTable.prefetch). On
// O(n)-state protocols the hashed tier outgrows every cache level the core
// owns, so a depth-1 touch starts the miss only one step's work (~tens of
// cycles) before the demand load needs it; issuing the touch a few steps
// early hides the full latency. The prefetch uses the pre-interaction IDs
// of the target agents, so a deeper window is wrong only when one of them
// interacts in the meantime (~2·depth·2/n of steps at ring degree 2) —
// those degrade to one wasted load.
const prefetchDepth = 4

// Memo-entry layout (pairTable values): successor IDs in the low 40 bits,
// then a no-op flag (successors identical to the pre-states — the entry
// advances the step counter and nothing else), a 3-bit leader-change field
// (0 = leader set unchanged; otherwise the count delta biased by +3), the
// fused ArcMask of the successor pair, and the EnvSpec delta. Bit 63 is
// the pairTable present flag.
const (
	idBits          = 20
	idMask          = 1<<idBits - 1
	flagNoop        = uint64(1) << 40
	leaderInfoShift = 41 // 3 bits: 0 = unchanged, else delta = info - 3
	arcMaskShift    = 44 // 8 bits: ArcMask(la, ra) of the successor pair
	envDeltaShift   = 52 // 11 bits, EnvSpec.Delta encoding
	envDeltaMask    = 1<<11 - 1
)

// Tables is the engine-independent half of the interned layer: the state
// interner, the memoized per-key transition tables, and the per-ID
// metadata (leader bits, agent masks). One Tables may serve several
// engines of the same protocol as long as all use is single-goroutine and
// every attached engine runs the same transition and leader predicate the
// tables were built for, with a tracker (if any) over the same spec.
type Tables[S comparable] struct {
	spec     RingSpec[S]
	isLeader func(S) bool
	envKeys  int
	envDelta func(lb, rb, la, ra S) uint32

	in    *Interner[S]
	trans []pairTable

	leaderBit []bool  // per ID: isLeader
	amask     []uint8 // per ID: RingSpec.AgentMask
}

// NewTables builds an empty table set for the spec. codec, when non-nil,
// switches the interner to the packed open-addressed mode; isLeader is the
// leader predicate of the attached engines (nil when they do not track
// leaders); env supplies the environment-key count and transition delta of
// oracle protocols (only Keys and Delta are read — Key and Apply are
// per-engine and belong to AttachInterned). It panics on a capacity cap
// beyond MaxInternStates rather than silently truncating successor IDs,
// and on a spec carrying the meta-word acceleration (MetaID): the interned
// loop feeds only closure-mode trackers, and a meta-mode one would miss
// every meta word.
func NewTables[S comparable](spec RingSpec[S], isLeader func(S) bool, codec *PackedCodec[S], env *EnvSpec[S], opts InternOptions) *Tables[S] {
	if spec.MetaID != nil {
		panic("population: NewTables on a meta-word spec; the interned loop feeds closure-mode trackers only")
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = MaxInternStates
	}
	if opts.MaxStates > MaxInternStates {
		panic("population: InternOptions.MaxStates exceeds MaxInternStates")
	}
	t := &Tables[S]{
		spec:     spec,
		isLeader: isLeader,
		envKeys:  1,
	}
	if env != nil {
		if env.Keys < 1 || env.Delta == nil {
			panic("population: EnvSpec needs Keys >= 1 and Delta")
		}
		t.envKeys, t.envDelta = env.Keys, env.Delta
	}
	if codec != nil {
		t.in = NewPackedInterner(*codec, opts.MaxStates)
	} else {
		t.in = NewInterner[S](opts.MaxStates)
	}
	t.trans = make([]pairTable, t.envKeys)
	for i := range t.trans {
		t.trans[i] = newPairTable(defaultDenseStates)
	}
	return t
}

// States returns the number of distinct states interned so far.
func (t *Tables[S]) States() int { return t.in.Len() }

// syncIDMeta extends the per-ID precomputed leader bits and agent masks to
// cover newly minted IDs.
func (t *Tables[S]) syncIDMeta() {
	for id := len(t.amask); id < t.in.Len(); id++ {
		s := t.in.vals[id]
		t.leaderBit = append(t.leaderBit, t.isLeader != nil && t.isLeader(s))
		var m uint8
		if t.spec.AgentMask != nil {
			m = t.spec.AgentMask(s)
		}
		t.amask = append(t.amask, m)
	}
}

// InternedEngine wraps an Engine with the interned execution layer. It
// shares the engine's state slice, RNG, step counter and leader accounting;
// only the inner loop differs.
type InternedEngine[S comparable] struct {
	*Engine[S]
	tab *Tables[S]
	env *EnvSpec[S]

	ids   []uint32 // per-agent interned ID, mirror of Engine.states
	idsOK bool
	idGen uint64 // Engine.installGen the IDs were interned at

	// lazyStates marks a run loop where the per-agent IDs are authoritative
	// and the per-step Engine.states writeback is skipped: each applied
	// interaction would otherwise load two states out of the interner's
	// value array (random accesses into an array that outgrows cache on
	// O(n)-state protocols) and struct-copy them into the configuration,
	// which nothing reads before the loop exits. settle() rematerializes
	// the configuration from the IDs at every loop exit — convergence,
	// budget exhaustion or capacity fallback — so outside run loops
	// Engine.states is always current. Only set by loops that read no
	// configuration struct (see run).
	lazyStates bool

	fellBack bool
}

// applyInterned outcomes.
const (
	stepApplied = iota // interaction executed through the tables
	stepNoop           // interaction executed; it changed no state
	stepFell           // capacity fallback; interaction executed generically
)

// AttachInterned attaches the interned layer to e against a (possibly
// shared, possibly warm) table set. env must agree with the one the tables
// were built from: nil for pure pairwise transitions, else the same
// Keys/Delta with this engine's live Key/Apply. When env is nil and an
// observer is installed on e, every run delegates to the generic path —
// observation means per-interaction dispatch the interned loop does not
// do. When env is non-nil, the engine's observer is by contract the
// env-counter maintainer and is replaced by EnvSpec.Apply on the interned
// path. The engine's leader predicate must be the one the tables were
// built with (per-ID leader bits are shared), and a tracker installed on e
// must track the tables' spec: the interned loop feeds it condition bits
// from the tables.
func AttachInterned[S comparable](e *Engine[S], t *Tables[S], env *EnvSpec[S]) *InternedEngine[S] {
	if (env == nil) != (t.envDelta == nil) {
		panic("population: AttachInterned env does not match the tables' EnvSpec")
	}
	if env != nil {
		if env.Keys != t.envKeys || env.Key == nil || env.Apply == nil {
			panic("population: AttachInterned env needs the tables' Keys and live Key/Apply")
		}
	}
	if (e.isLeader == nil) != (t.isLeader == nil) {
		panic("population: AttachInterned engine leader tracking does not match the tables")
	}
	return &InternedEngine[S]{Engine: e, tab: t, env: env}
}

// Interned reports whether the layer is still interning (false once a
// capacity fallback moved the engine to the generic path).
func (g *InternedEngine[S]) Interned() bool { return !g.fellBack }

// prepare readies the interned path: leaders recounted, the per-agent IDs
// re-interned and the installed tracker reset if states were installed
// since they were last valid. It reports false when the run must take the
// generic path instead (fallback already happened, an observer demands
// per-interaction dispatch, or re-interning overflowed the cap).
func (g *InternedEngine[S]) prepare() bool {
	if g.fellBack {
		return false
	}
	e := g.Engine
	if e.observer != nil && g.env == nil {
		return false
	}
	if e.frozen != nil {
		// Stuck agents make the transition site-dependent — a frozen
		// agent's successor is its pre-state regardless of the pair — and
		// the memo tables are keyed on state pairs alone, so interning
		// would replay the unfrozen dynamics. The generic path applies
		// the freeze mask per interaction.
		return false
	}
	if e.leaderDirty {
		e.recountLeaders()
	}
	if !g.idsOK || g.idGen != e.installGen {
		if !g.reintern() {
			return false
		}
	}
	if e.tracker != nil && e.trackerDirty {
		e.tracker.Reset(e.states)
		e.trackerDirty = false
	}
	return true
}

// reintern rebuilds the per-agent IDs from the engine's states.
func (g *InternedEngine[S]) reintern() bool {
	e := g.Engine
	if len(g.ids) != e.topo.N {
		// First build, or a churn install changed the agent count.
		g.ids = make([]uint32, e.topo.N)
	}
	for i, s := range e.states {
		id, ok := g.tab.in.Intern(s)
		if !ok {
			g.fall()
			return false
		}
		g.ids[i] = id
	}
	g.tab.syncIDMeta()
	g.idsOK, g.idGen = true, e.installGen
	return true
}

// fall abandons the interned layer permanently for this engine, releasing
// its per-agent IDs and its pointer to the tables; other engines attached
// to the same Tables keep theirs.
func (g *InternedEngine[S]) fall() {
	g.fellBack = true
	g.ids = nil
	g.idsOK = false
	g.tab = nil
}

// fill computes, interns and memoizes the transition of (idL, idR) under
// env key. ok is false when interning a successor would exceed the cap.
func (g *InternedEngine[S]) fill(key uint32, idL, idR uint32) (uint64, bool) {
	t := g.tab
	lb, rb := t.in.vals[idL], t.in.vals[idR]
	la, ra := g.Engine.trans(lb, rb)
	l2, ok := t.in.Intern(la)
	if !ok {
		return 0, false
	}
	r2, ok := t.in.Intern(ra)
	if !ok {
		return 0, false
	}
	t.syncIDMeta()
	v := uint64(l2) | uint64(r2)<<idBits
	if l2 == idL && r2 == idR {
		v |= flagNoop
	}
	if t.isLeader != nil {
		delta := 0
		changed := false
		if was, is := t.leaderBit[idL], t.leaderBit[l2]; was != is {
			changed = true
			if is {
				delta++
			} else {
				delta--
			}
		}
		if was, is := t.leaderBit[idR], t.leaderBit[r2]; was != is {
			changed = true
			if is {
				delta++
			} else {
				delta--
			}
		}
		if changed {
			v |= uint64(delta+3) << leaderInfoShift
		}
	}
	if t.spec.ArcMask != nil {
		v |= uint64(t.spec.ArcMask(la, ra)) << arcMaskShift
	}
	if t.envDelta != nil {
		v |= uint64(t.envDelta(lb, rb, la, ra)&envDeltaMask) << envDeltaShift
	}
	t.trans[key].put(idL, idR, v, t.in.Len())
	return v, true
}

// applyInterned executes one interaction on the arc (li, ri) through the
// memo tables, maintaining everything Engine.applyPair does, the installed
// tracker included. It reports stepFell after a capacity fallback, in
// which case the interaction has been executed by Engine.applyPair instead
// (observer and tracker included, so an EnvSpec protocol's census never
// misses the delta); stepNoop when the memoized interaction changes no
// state — then only the step counter advanced, which is all the
// bookkeeping an identity transition requires.
func (g *InternedEngine[S]) applyInterned(li, ri int32) int {
	e := g.Engine
	t := g.tab
	idL, idR := g.ids[li], g.ids[ri]
	var key uint32
	if g.env != nil {
		key = g.env.Key()
	}
	pt := &t.trans[key]
	var v uint64
	var ok bool
	if pt.slab != nil {
		// Hand-inlined front-cache fast path of pairTable.get: on hashed-
		// tier protocols the lookup runs every step, and the common case —
		// one hash, one compare against an L2-resident line — is too hot to
		// pay a call for.
		pk := uint64(idL)<<32 | uint64(idR)
		h := pairHash(pk)
		if ci := 2 * (h & (frontSlots - 1)); pt.front[ci] == pk {
			v, ok = pt.front[ci+1], true
		} else {
			v, ok = pt.getHashed(pk, h)
		}
	} else {
		v, ok = pt.get(idL, idR)
	}
	if !ok {
		if v, ok = g.fill(key, idL, idR); !ok {
			g.settle() // the generic continuation reads Engine.states
			g.fall()
			e.applyPair(li, ri)
			return stepFell
		}
	}
	if v&flagNoop != 0 {
		// Identity transition: no state, leader, env or tracker effect.
		// (The env delta of an identity transition encodes "no counter
		// change" by the EnvSpec contract, so Apply is skipped too.)
		e.step++
		return stepNoop
	}
	l2 := uint32(v) & idMask
	r2 := uint32(v>>idBits) & idMask
	if !g.lazyStates {
		e.states[li] = t.in.vals[l2]
		e.states[ri] = t.in.vals[r2]
	}
	g.ids[li], g.ids[ri] = l2, r2
	e.step++
	if g.env != nil {
		g.env.Apply(uint32(v>>envDeltaShift) & envDeltaMask)
	}
	if info := (v >> leaderInfoShift) & 7; info != 0 {
		e.leaderCount += int(info) - 3
		e.lastLeaderChange = e.step
		e.leaderChanges++
		if e.leaderHook != nil {
			e.leaderHook(e.step, e.leaderCount)
		}
	}
	if tr := e.tracker; tr != nil {
		tr.updateMasks(int(li), int(ri), t.amask[l2], t.amask[r2], uint8(v>>arcMaskShift))
	}
	return stepApplied
}

// settle rematerializes Engine.states from the per-agent IDs and leaves
// lazy mode. A no-op outside lazy mode, so every loop exit calls it
// unconditionally.
func (g *InternedEngine[S]) settle() {
	if !g.lazyStates {
		return
	}
	e := g.Engine
	vals := g.tab.in.vals
	for i, id := range g.ids {
		e.states[i] = vals[id]
	}
	g.lazyStates = false
}

// Run executes exactly steps scheduler steps, interned when possible, with
// the identical RNG stream, state trajectory and accounting of Engine.Run.
func (g *InternedEngine[S]) Run(steps uint64) { g.run(g.Engine.step+steps, false) }

// RunUntilConverged runs until the engine's installed tracker reports
// convergence, as Engine.RunUntilConverged does: the verdict runs after
// every single step, so hitting times are exact; on mid-batch convergence
// the remaining pre-drawn arcs stay pending for later runs. It panics if no
// tracker is installed.
func (g *InternedEngine[S]) RunUntilConverged(maxSteps uint64) (uint64, bool) {
	return g.run(maxSteps, true)
}

// run is the interned layer's one draw loop, behind Run and
// RunUntilConverged — Engine.run with table loads for transitions. It executes
// steps until the step count reaches limit or, when converge is set, until
// the installed tracker's verdict holds, and returns the step count and
// whether it converged. Arcs come from the engine's pending buffer in the
// same batch sizes as the generic loop. When prepare declines and on a
// capacity fallback (the drawn arc has already run generically) the run
// finishes on the generic engine through resume, on the exact same
// scheduler stream. No-op steps skip the tracker and the
// verdict — an interaction that changes no state cannot flip a
// configuration predicate that was false before it.
func (g *InternedEngine[S]) run(limit uint64, converge bool) (uint64, bool) {
	e := g.Engine
	if converge && e.tracker == nil {
		panic("population: RunUntilConverged without a tracker (call SetTracker)")
	}
	if !g.prepare() {
		return g.resume(limit, converge)
	}
	tr := e.tracker
	if converge && tr.Converged() {
		return e.step, true
	}
	// Lazy states need a loop that reads no configuration struct. Oracle
	// protocols stay eager, since their fallback path replays the engine
	// observer over the configuration, and so does a loop feeding a
	// tracker, whose arc refreshes and residual read Engine.states.
	g.lazyStates = g.env == nil && tr == nil
	for e.step < limit {
		if e.pendStart == e.pendEnd {
			e.refillPending(limit - e.step)
		}
		arc := e.topo.Arcs[e.pendBuf[e.pendStart]]
		e.pendStart++
		if pf := e.pendStart + prefetchDepth - 1; pf < e.pendEnd && len(g.tab.trans) == 1 {
			// Speculatively touch an upcoming pair's table lines with the
			// pre-interaction IDs, overlapping their memory latency with the
			// next few steps' work (see prefetchDepth).
			na := e.topo.Arcs[e.pendBuf[pf]]
			g.tab.trans[0].prefetch(g.ids[na[0]], g.ids[na[1]])
		}
		switch g.applyInterned(arc[0], arc[1]) {
		case stepFell:
			return g.resume(limit, converge)
		case stepApplied:
			if converge && tr.Converged() {
				g.settle()
				return e.step, true
			}
		}
	}
	g.settle()
	return e.step, false
}

// resume finishes a run on the generic engine, which goes on feeding the
// installed tracker. The generic engine advances states without the
// interned IDs seeing it (installGen only tracks installs, not
// interactions), so they must be re-interned before any later interned
// run.
func (g *InternedEngine[S]) resume(limit uint64, converge bool) (uint64, bool) {
	e := g.Engine
	g.idsOK = false
	if !converge {
		e.run(limit, false)
		return e.step, false
	}
	return e.RunUntilConverged(limit)
}
