package population

import "math"

// The interned execution layer: an Engine wrapper that replays interactions
// as table loads. States are interned into dense uint32 IDs (intern.go) —
// through a packed-state open-addressed table when the protocol provides a
// PackedCodec, through a Go map otherwise — the pairwise transition is
// memoized per (idL, idR) — per environment key for oracle protocols — and
// the memo entry carries everything the engine's bookkeeping needs
// precomputed: the successor IDs, whether the interaction is a no-op,
// whether the leader set changed and by how much, the arc mask of the
// successor pair, and the transition's effect on the oracle's backing
// counters. Convergence tracking is mirrored at the ID level too: per-ID
// agent masks replace the AgentMask closure, the interaction arc's mask
// comes fused out of the memo entry, and specs that provide the MetaID
// acceleration evaluate their residual over a per-ID table of packed meta
// words instead of the configuration structs.
//
// All memoized state lives in a Tables value, which any number of engines
// may share — the lockstep lanes of lanes.go run k same-cell trials
// against one warm table set. Sharing is single-goroutine: a Tables must
// only ever be touched from one goroutine at a time.
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
	// be a pure function of the four states — this is what lets lockstep
	// lanes share one table set across trials whose live counters differ.
	Delta func(lb, rb, la, ra S) uint32
	// Apply applies an encoded delta to the backing counters.
	Apply func(delta uint32)
}

// InternOptions tunes the interned layer's capacity caps.
type InternOptions struct {
	// MaxStates caps the interner; once an execution needs more distinct
	// states the engine permanently falls back to the generic path.
	// 0 selects DefaultMaxStates; values above MaxInternStates are
	// rejected by NewTables (memo entries pack successor IDs into
	// idBits-wide fields).
	MaxStates int
	// DenseStates caps the dense table tier; beyond it pair tables switch
	// to hashing (see pairTable). 0 selects DefaultDenseStates.
	DenseStates int
}

const (
	// DefaultMaxStates is the interner's hard ID ceiling: the cap is a
	// memory backstop, not a reuse heuristic — tables grow lazily with the
	// pairs actually seen, and runs that keep missing the tables are cut
	// off by the reuse guard long before the cap matters. The full ceiling
	// is the default because warm table sets genuinely use it: lockstep
	// lanes sharing one table set push past 2^18 (a tighter historical
	// default that silently felled lane batches back to the generic path).
	// Callers can lower it through InternOptions or Scenario.MaxStates.
	DefaultMaxStates = MaxInternStates
	// DefaultDenseStates keeps the dense tier's stride² array at or below
	// 512² entries (2 MiB) and its growth re-layouts cheap; past it pair
	// tables migrate to the open-addressed hashed tier, whose memory
	// tracks the pairs actually seen instead of the square of the state
	// count.
	DefaultDenseStates = 512
	// MaxInternStates is the hard ceiling on InternOptions.MaxStates: memo
	// entries address successor states in idBits-wide fields.
	MaxInternStates = 1 << idBits
)

// Reuse guard: interning pays only when (state, state) pairs repeat — a
// miss costs the transition PLUS the memoization. A run whose tables miss
// on more than 1-in-reuseMissDiv of the steps in a window of
// max(reuseWindow, reuseWindowPerAgent·n) steps falls back to the generic
// path, as on the capacity cap; minting new states earns no exemption. A
// cold P_PL trial visits ~200·n states and misses on 40–78% of its first
// window (n = 32–1024); yokota, angluin, fj, chenchen and orient stay at
// or below 18%. The counters are deterministic per run, so whether a seed
// interns or falls back is reproducible — and either way bit-identical.
const (
	reuseWindow         = 2048
	reuseWindowPerAgent = 64
	reuseMissDiv        = 4 // bail threshold: more than window/4 misses
)

// reuseWindowFor is the reuse guard's window length on an n-agent ring.
func reuseWindowFor(n int) int { return max(reuseWindow, reuseWindowPerAgent*n) }

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

// Accelerator is the state-type-free face of an InternedEngine, which is
// what the protocol wiring stores next to its generic engine.
type Accelerator interface {
	// Run executes exactly steps scheduler steps (interned when possible).
	Run(steps uint64)
	// RunUntilConverged runs to the spec's convergence with exact hitting
	// times, mirroring Engine.RunUntilConverged.
	RunUntilConverged(maxSteps uint64) (uint64, bool)
	// SampleCounts exports the named tracker channel counts, exactly as the
	// generic RingTracker's CountSampler would.
	SampleCounts(dst map[string]float64)
	// Interned reports whether the layer is still interning (false once the
	// capacity cap forced the generic fallback).
	Interned() bool
}

// Tables is the shared, engine-independent half of the interned layer: the
// state interner, the memoized per-key transition tables, and the per-ID
// metadata (leader bits, agent masks, MetaID words). One Tables serves any
// number of engines of the same protocol — the lockstep lanes share one —
// as long as all use is single-goroutine and every attached engine runs
// the same transition, leader predicate and spec the tables were built
// for.
type Tables[S comparable] struct {
	spec     RingSpec[S]
	isLeader func(S) bool
	envKeys  int
	envDelta func(lb, rb, la, ra S) uint32

	in    *Interner[S]
	trans []pairTable

	leaderBit []bool   // per ID: isLeader
	amask     []uint8  // per ID: RingSpec.AgentMask
	rmeta     []uint64 // per ID: RingSpec.MetaID, when provided

	denseStates int
}

// NewTables builds an empty table set for the spec. codec, when non-nil,
// switches the interner to the packed open-addressed mode; isLeader is the
// leader predicate of the attached engines (nil when they do not track
// leaders); env supplies the environment-key count and transition delta of
// oracle protocols (only Keys and Delta are read — Key and Apply are
// per-engine and belong to AttachInterned). It panics on a capacity cap
// beyond MaxInternStates rather than silently truncating successor IDs.
func NewTables[S comparable](spec RingSpec[S], isLeader func(S) bool, codec *PackedCodec[S], env *EnvSpec[S], opts InternOptions) *Tables[S] {
	if opts.MaxStates <= 0 {
		opts.MaxStates = DefaultMaxStates
	}
	if opts.MaxStates > MaxInternStates {
		panic("population: InternOptions.MaxStates exceeds MaxInternStates")
	}
	if opts.DenseStates <= 0 {
		opts.DenseStates = DefaultDenseStates
	}
	t := &Tables[S]{
		spec:        spec,
		isLeader:    isLeader,
		envKeys:     1,
		denseStates: opts.DenseStates,
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
		t.trans[i] = newPairTable(opts.DenseStates)
	}
	return t
}

// States returns the number of distinct states interned so far.
func (t *Tables[S]) States() int { return t.in.Len() }

// Pairs returns the number of distinct (state, state) interaction pairs
// memoized so far, across every environment-keyed table — with States, the
// size diagnostic behind the docs' table-memory figures.
func (t *Tables[S]) Pairs() int {
	total := 0
	for i := range t.trans {
		total += t.trans[i].used
	}
	return total
}

// syncIDMeta extends the per-ID precomputed leader bits, agent masks and
// meta words to cover newly minted IDs.
func (t *Tables[S]) syncIDMeta() {
	for id := len(t.amask); id < t.in.Len(); id++ {
		s := t.in.vals[id]
		t.leaderBit = append(t.leaderBit, t.isLeader != nil && t.isLeader(s))
		var m uint8
		if t.spec.AgentMask != nil {
			m = t.spec.AgentMask(s)
		}
		t.amask = append(t.amask, m)
		if t.spec.MetaID != nil {
			t.rmeta = append(t.rmeta, t.spec.MetaID(s))
		}
	}
}

// InternedEngine wraps an Engine with the interned execution layer. It
// shares the engine's state slice, RNG, step counter and leader accounting;
// only the inner loop differs.
type InternedEngine[S comparable] struct {
	*Engine[S]
	tab     *Tables[S]
	shared  bool // tab is shared with other engines (lanes); fall must not free it
	env     *EnvSpec[S]
	generic ConvergenceTracker[S]

	ids   []uint32 // per-agent interned ID, mirror of Engine.states
	idsOK bool
	idGen uint64 // Engine.installGen the mirror was built at

	// RingTracker mirror at the ID level. ameta mirrors the per-agent
	// MetaID words (spec.MetaID specs only): ameta[i] = rmeta[ids[i]],
	// maintained through the writebacks so arc masks and the residual load
	// one flat word per agent instead of dereferencing the ID table.
	arcBits   []uint8
	agentBits []uint8
	ameta     []uint64
	counts    LocalCounts
	mirrorOK  bool
	wc        witnessCache

	// Reuse guard (see reuseWindow): the current window's steps, misses, length.
	winSteps, winMisses, winLen int

	// lazyStates marks a run loop where the ID mirror is authoritative and
	// the per-step Engine.states writeback is skipped: each applied
	// interaction would otherwise load two states out of the interner's
	// value array (random accesses into an array that outgrows cache on
	// O(n)-state protocols) and struct-copy them into the configuration,
	// which nothing reads before the loop exits. settle() rematerializes
	// the configuration from the IDs at every loop exit — convergence,
	// budget exhaustion, capacity or reuse fallback — so outside run loops
	// Engine.states is always current. Only set by loops whose verdicts run
	// entirely at the ID level (see lazyOn).
	lazyStates bool

	fellBack bool
}

// applyInterned outcomes.
const (
	stepApplied = iota // interaction executed through the tables
	stepNoop           // interaction executed; it changed no state
	stepFell           // capacity fallback; interaction executed generically
)

// NewInterned attaches a private interned layer to e: a fresh Tables built
// from spec and env (no codec — callers with a PackedCodec build their
// Tables explicitly and use AttachInterned), serving this one engine. spec
// is the same RingSpec the generic tracker uses; generic is the tracker
// installed on capacity fallback; env adapts oracle protocols and is nil
// for pure pairwise transitions.
func NewInterned[S comparable](e *Engine[S], spec RingSpec[S], env *EnvSpec[S], generic ConvergenceTracker[S], opts InternOptions) *InternedEngine[S] {
	return AttachInterned(e, NewTables(spec, e.isLeader, nil, env, opts), env, generic)
}

// AttachInterned attaches the interned layer to e against an existing
// (possibly shared, possibly warm) table set. env must agree with the one
// the tables were built from: nil for pure pairwise transitions, else the
// same Keys/Delta with this engine's live Key/Apply. When env is nil and
// an observer is installed on e, every run delegates to the generic path —
// observation means per-interaction dispatch the interned loop does not
// do. When env is non-nil, the engine's observer is by contract the
// env-counter maintainer and is replaced by EnvSpec.Apply on the interned
// path. The engine's leader predicate must be the one the tables were
// built with (per-ID leader bits are shared).
func AttachInterned[S comparable](e *Engine[S], t *Tables[S], env *EnvSpec[S], generic ConvergenceTracker[S]) *InternedEngine[S] {
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
	return &InternedEngine[S]{Engine: e, tab: t, env: env, generic: generic, winLen: reuseWindowFor(e.topo.N)}
}

// Interned implements Accelerator.
func (g *InternedEngine[S]) Interned() bool { return !g.fellBack }

// States returns the number of distinct states interned so far (0 after
// fallback) — a diagnostic for tests and benchmarks.
func (g *InternedEngine[S]) States() int {
	if g.fellBack {
		return 0
	}
	return g.tab.in.Len()
}

// prepare readies the interned path: leaders recounted, the ID mirror
// rebuilt if states were installed since it was last valid. It reports
// false when the run must take the generic path instead (fallback already
// happened, an observer or tracker demands per-interaction dispatch, or
// re-interning overflowed the cap).
func (g *InternedEngine[S]) prepare() bool {
	if g.fellBack {
		return false
	}
	e := g.Engine
	if e.observer != nil && g.env == nil {
		return false
	}
	if e.tracker != nil {
		// An engine-level tracker means someone (a fallback, a direct
		// SetTracker) wants per-interaction updates the interned loop does
		// not dispatch; its own convergence runs use the ID-level mirror
		// instead.
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
	return true
}

// reintern rebuilds the per-agent ID mirror from the engine's states.
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
	g.mirrorOK = false
	return true
}

// fall abandons the interned layer permanently for this engine, releasing
// its per-engine mirrors — and the tables too, unless they are shared with
// other lanes that may still be interning.
func (g *InternedEngine[S]) fall() {
	g.fellBack = true
	g.ids = nil
	g.idsOK = false
	g.arcBits, g.agentBits, g.ameta = nil, nil, nil
	g.mirrorOK = false
	if !g.shared {
		g.tab = nil
	}
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
// memo tables, maintaining everything Engine.applyPair does. When mirror
// is set the tracker mirror is kept in sync too. It reports stepFell after
// a capacity fallback, in which case the interaction has been executed
// generically instead (with the generic tracker installed first when
// mirror was requested, so its Reset precedes and its Update covers the
// interaction); stepNoop when the memoized interaction changes no state —
// then only the step counter advanced, which is all the bookkeeping an
// identity transition requires.
func (g *InternedEngine[S]) applyInterned(li, ri int32, mirror bool) int {
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
		g.winMisses++
		if v, ok = g.fill(key, idL, idR); !ok {
			g.settle() // the generic continuation reads Engine.states
			g.fall()
			if mirror {
				e.SetTracker(g.generic)
			}
			lb, rb := e.states[li], e.states[ri]
			e.applyPair(li, ri, lb, rb)
			if e.observer != nil {
				// The generic continuation maintains oracle counters through
				// the engine observer, so the triggering interaction must
				// dispatch it exactly as applyArc would — otherwise an
				// EnvSpec protocol's census would permanently miss this one
				// delta. (Pure protocols with observers never reach here:
				// prepare() routes them to the generic path up front.)
				e.observer(int(li), lb, e.states[li])
				e.observer(int(ri), rb, e.states[ri])
			}
			return stepFell
		}
	}
	g.winSteps++
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
	if mirror {
		g.mirrorUpdate(int(li), int(ri), l2, r2, uint8(v>>arcMaskShift))
	}
	return stepApplied
}

// reuseBail evaluates the reuse guard after each completed window and
// reports whether the run should abandon interning. Callers bail between
// steps, so the switch is as clean as the capacity fallback.
func (g *InternedEngine[S]) reuseBail() bool {
	if g.winSteps < g.winLen {
		return false
	}
	bail := g.winMisses > g.winSteps/reuseMissDiv
	g.winSteps, g.winMisses, g.winLen = 0, 0, reuseWindowFor(g.Engine.topo.N)
	return bail
}

// lazyOn enables lazy state materialization for the run loop about to
// start, when every read the loop can perform is served at the ID level.
// Oracle protocols stay eager: their fallback path replays the engine
// observer over the configuration. converge marks a convergence loop,
// which additionally needs the whole verdict chain — arc masks and the
// residual — on the meta-word path, since the generic closures read
// Engine.states after every applied step.
func (g *InternedEngine[S]) lazyOn(converge bool) {
	if g.env != nil {
		return
	}
	if converge && (g.ameta == nil || g.tab.spec.Gate == nil || g.tab.spec.ResidualMeta == nil) {
		return
	}
	g.lazyStates = true
}

// settle rematerializes Engine.states from the ID mirror and leaves lazy
// mode. A no-op outside lazy mode, so every loop exit calls it
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

// arcMaskAt returns the spec's arc mask for the ring arc (i, i+1) of the
// current configuration — through the per-agent meta words when the spec
// provides them, through the state-level closure otherwise.
func (g *InternedEngine[S]) arcMaskAt(i int) uint8 {
	t := g.tab
	e := g.Engine
	j := i + 1
	if j == e.topo.N {
		j = 0
	}
	if g.ameta != nil {
		return t.spec.ArcMaskMeta(g.ameta[i], g.ameta[j])
	}
	return t.spec.ArcMask(e.states[i], e.states[j])
}

// ensureMirror (re)builds the tracker mirror from the current
// configuration — the ID-level equivalent of RingTracker.Reset.
func (g *InternedEngine[S]) ensureMirror() {
	if g.mirrorOK {
		return
	}
	n := g.Engine.topo.N
	if len(g.agentBits) != n {
		g.agentBits = make([]uint8, n)
		g.arcBits = make([]uint8, n)
	}
	t := g.tab
	if t.spec.MetaID != nil && t.spec.ArcMaskMeta != nil && t.spec.ResidualMeta != nil {
		if len(g.ameta) != n {
			g.ameta = make([]uint64, n)
		}
		for i := 0; i < n; i++ {
			g.ameta[i] = t.rmeta[g.ids[i]]
		}
	}
	g.counts = LocalCounts{}
	g.wc.reset()
	for i := 0; i < n; i++ {
		var ab, gb uint8
		if t.spec.ArcMask != nil {
			ab = g.arcMaskAt(i)
		}
		if t.spec.AgentMask != nil {
			gb = t.amask[g.ids[i]]
		}
		g.arcBits[i], g.agentBits[i] = ab, gb
		bumpCounts(&g.counts.Arc, 0, ab)
		bumpAgentCounts(&g.counts, 0, gb, i)
	}
	g.mirrorOK = true
}

// mirrorUpdate is the ID-level RingTracker.Update: the two touched agents'
// masks come from the per-ID table, the up to four incident arcs from the
// fused memo mask (for the interaction arc itself, when it is the ring arc
// a→b) and the per-ID mask evaluation for the side arcs.
func (g *InternedEngine[S]) mirrorUpdate(a, b int, l2, r2 uint32, fused uint8) {
	n := g.Engine.topo.N
	g.wc.note(a, b, n)
	t := g.tab
	if g.ameta != nil {
		g.ameta[a] = t.rmeta[l2]
		g.ameta[b] = t.rmeta[r2]
	}
	if t.spec.AgentMask != nil {
		if g.ameta != nil && t.spec.AgentMaskMeta != nil {
			// The meta words just written are still in registers; deriving
			// the agent bits from them skips two random loads into the
			// per-ID mask table.
			g.refreshAgentBits(a, t.spec.AgentMaskMeta(g.ameta[a]))
			g.refreshAgentBits(b, t.spec.AgentMaskMeta(g.ameta[b]))
		} else {
			g.refreshAgentID(a, l2)
			g.refreshAgentID(b, r2)
		}
	}
	if t.spec.ArcMask == nil {
		return
	}
	if next(a, n) == b {
		// The common directed-ring interaction (i, i+1): the middle arc's
		// new mask is fused into the memo entry; only the two side arcs
		// need evaluation.
		g.setArcBits(a, fused)
		g.refreshArc(prev(a, n))
		g.refreshArc(b)
		return
	}
	// Reversed or non-adjacent arcs (undirected rings): the fused mask is
	// the interaction-order mask, not the ring-order one — evaluate all
	// (up to four) incident arcs.
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
			g.refreshArc(arc)
		}
	}
}

func (g *InternedEngine[S]) refreshAgentID(i int, id uint32) {
	g.refreshAgentBits(i, g.tab.amask[id])
}

func (g *InternedEngine[S]) refreshAgentBits(i int, nw uint8) {
	if old := g.agentBits[i]; old != nw {
		g.agentBits[i] = nw
		bumpAgentCounts(&g.counts, old, nw, i)
	}
}

func (g *InternedEngine[S]) refreshArc(i int) {
	g.setArcBits(i, g.arcMaskAt(i))
}

func (g *InternedEngine[S]) setArcBits(i int, nw uint8) {
	if old := g.arcBits[i]; old != nw {
		g.arcBits[i] = nw
		bumpCounts(&g.counts.Arc, old, nw)
	}
}

// convergedNow is the spec verdict over the mirrored counts — the same
// witness-cached protocol as RingTracker.Converged, through the one
// shared implementation; specs carrying the MetaID acceleration get their
// residual evaluated over the per-agent meta words.
func (g *InternedEngine[S]) convergedNow() bool {
	t := g.tab
	if t.spec.Gate != nil && t.spec.ResidualMeta != nil && g.ameta != nil {
		return witnessVerdictMeta(&g.wc, &t.spec, &g.counts, g.ameta)
	}
	return witnessVerdict(&g.wc, &t.spec, &g.counts, g.Engine.states)
}

// Run implements Accelerator: exactly steps scheduler steps, interned when
// possible, with the identical RNG stream, state trajectory and accounting
// of Engine.Run.
func (g *InternedEngine[S]) Run(steps uint64) {
	if !g.prepare() {
		// The generic engine advances states without the ID mirror seeing
		// it (installGen only tracks installs, not interactions), so the
		// mirror must be rebuilt before any later interned run.
		g.idsOK = false
		g.Engine.Run(steps)
		return
	}
	g.mirrorOK = false // not maintained outside convergence runs
	g.lazyOn(false)
	rem := g.runSteps(steps, false)
	g.settle()
	if rem > 0 {
		g.Engine.Run(rem)
	}
}

// Step executes one scheduler step through the memo tables — the interned
// equivalent of Engine.Step, drawing from the same pending-buffer-first
// arc stream. Runs that cannot intern (observers, stuck agents, fallback)
// delegate to the generic step.
func (g *InternedEngine[S]) Step() {
	if !g.prepare() {
		g.idsOK = false
		g.Engine.Step()
		return
	}
	g.mirrorOK = false
	arc := g.Engine.topo.Arcs[g.Engine.drawArc()]
	g.applyInterned(arc[0], arc[1], false)
}

// ApplyArc forces the interaction on arc k of the topology through the
// memo tables — the interned equivalent of Engine.ApplyArc, for
// deterministic-schedule tests and trajectory replays. The arc executes
// generically when the layer cannot intern.
func (g *InternedEngine[S]) ApplyArc(k int) {
	if !g.prepare() {
		g.idsOK = false
		g.Engine.ApplyArc(k)
		return
	}
	g.mirrorOK = false
	arc := g.Engine.topo.Arcs[k]
	g.applyInterned(arc[0], arc[1], false)
}

// ApplySchedule forces the given interactions in order through the memo
// tables — the interned Engine.ApplySchedule.
func (g *InternedEngine[S]) ApplySchedule(arcs []int) {
	for _, k := range arcs {
		g.ApplyArc(k)
	}
}

// runSteps executes up to steps interned interactions, drawing arcs through
// the engine's pending buffer in the same batch sizes as the generic paths.
// It returns the number of steps still owed after a capacity fallback (the
// already-drawn arc has been executed generically; remaining pre-drawn arcs
// stay pending, so a generic continuation follows the identical scheduler
// stream), or 0 on completion.
func (g *InternedEngine[S]) runSteps(steps uint64, mirror bool) uint64 {
	e := g.Engine
	for steps > 0 {
		if e.pendStart == e.pendEnd {
			e.refillPending(steps)
		}
		arc := e.topo.Arcs[e.pendBuf[e.pendStart]]
		e.pendStart++
		steps--
		if g.applyInterned(arc[0], arc[1], mirror) == stepFell {
			return steps
		}
		if g.reuseBail() {
			g.settle()
			g.fall()
			return steps
		}
	}
	return 0
}

// RunUntilConverged implements Accelerator, mirroring
// Engine.RunUntilConverged: the verdict runs after every single step, so
// hitting times are exact; on mid-batch convergence the remaining pre-drawn
// arcs stay pending for later runs. No-op steps skip the verdict — an
// interaction that changes no state cannot flip a configuration predicate
// that was false before it.
func (g *InternedEngine[S]) RunUntilConverged(maxSteps uint64) (uint64, bool) {
	e := g.Engine
	if !g.prepare() {
		g.idsOK = false // the generic run advances states past the mirror
		e.SetTracker(g.generic)
		return e.RunUntilConverged(maxSteps)
	}
	g.ensureMirror()
	if g.convergedNow() {
		return e.step, true
	}
	g.lazyOn(true)
	for e.step < maxSteps {
		if e.pendStart == e.pendEnd {
			e.refillPending(maxSteps - e.step)
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
		switch g.applyInterned(arc[0], arc[1], true) {
		case stepFell:
			// Fallback: the generic tracker was installed before the drawn
			// arc ran, so the generic loop resumes with exact verdicts.
			return e.RunUntilConverged(maxSteps)
		case stepApplied:
			if g.convergedNow() {
				g.settle()
				return e.step, true
			}
		}
		if g.reuseBail() {
			g.settle()
			g.fall()
			e.SetTracker(g.generic)
			return e.RunUntilConverged(maxSteps)
		}
	}
	g.settle()
	return e.step, false
}

// Prefill is RunUntilConverged for a warmup that fills tables another
// attached engine will replay: those fills are reused by construction, so
// the reuse guard holds its window open for the run.
func (g *InternedEngine[S]) Prefill(maxSteps uint64) {
	g.winLen = math.MaxInt
	g.RunUntilConverged(maxSteps)
	g.winSteps, g.winMisses, g.winLen = 0, 0, reuseWindowFor(g.Engine.topo.N)
}

// SampleCounts implements Accelerator: named channel counts over the
// current configuration, byte-identical to the generic RingTracker's
// CountSampler output.
func (g *InternedEngine[S]) SampleCounts(dst map[string]float64) {
	if g.prepare() {
		g.ensureMirror()
		for b, name := range g.tab.spec.ArcNames {
			if name != "" {
				dst[name] = float64(g.counts.Arc[b])
			}
		}
		for b, name := range g.tab.spec.AgentNames {
			if name != "" {
				dst[name] = float64(g.counts.Agent[b])
			}
		}
		return
	}
	if cs, ok := g.generic.(CountSampler); ok {
		cs.SampleCounts(dst)
	}
}

func next(i, n int) int {
	i++
	if i == n {
		return 0
	}
	return i
}
