package population

import (
	"testing"

	"repro/internal/xrand"
)

func TestInternerCap(t *testing.T) {
	in := NewInterner[int](3)
	for i := 0; i < 3; i++ {
		id, ok := in.Intern(i * 10)
		if !ok || id != uint32(i) {
			t.Fatalf("intern %d: got (%d, %v)", i, id, ok)
		}
	}
	// Re-interning existing states never fails, even at the cap.
	if id, ok := in.Intern(10); !ok || id != 1 {
		t.Fatalf("re-intern: got (%d, %v)", id, ok)
	}
	if _, ok := in.Intern(99); ok {
		t.Fatal("minting past the cap succeeded")
	}
	if in.Len() != 3 {
		t.Fatalf("cap overflow changed the interner: len %d", in.Len())
	}
	for i := 0; i < 3; i++ {
		if got := in.Value(uint32(i)); got != i*10 {
			t.Fatalf("Value(%d) = %d", i, got)
		}
	}
}

// TestPairTableTiers drives a pair table through dense growth and the
// dense→hashed migration, checking that every memoized value survives each
// re-layout.
func TestPairTableTiers(t *testing.T) {
	const denseMax = 64
	tab := newPairTable(denseMax)
	type cell struct{ l, r uint32 }
	want := map[cell]uint64{}
	states := 1
	put := func(l, r uint32, v uint64) {
		if int(l) >= states {
			states = int(l) + 1
		}
		if int(r) >= states {
			states = int(r) + 1
		}
		tab.put(l, r, v, states)
		want[cell{l, r}] = v
	}
	// Dense tier, growing stride several times.
	for i := uint32(0); i < 100; i++ {
		put(i, (i*7+3)%100, uint64(i)+1)
	}
	// 100 states > denseMax: the table must have migrated to hashing.
	if tab.stride != 0 || tab.slab == nil {
		t.Fatalf("table still dense at %d states (stride %d)", states, tab.stride)
	}
	// Keep inserting through hash growth.
	for i := uint32(100); i < 3000; i++ {
		put(i%500, i, uint64(i)<<20|42)
	}
	for c, v := range want {
		got, ok := tab.get(c.l, c.r)
		if !ok {
			t.Fatalf("(%d,%d) lost", c.l, c.r)
		}
		if got&^pairPresent != v {
			t.Fatalf("(%d,%d) = %#x, want %#x", c.l, c.r, got&^pairPresent, v)
		}
	}
	if _, ok := tab.get(400, 77); ok {
		t.Fatal("phantom entry")
	}
}

// toySpec is a RingSpec over uint16 states for engine-level tests: agents
// are "settled" when their low byte is zero; convergence is everyone
// settled (never reached under toyTrans, which is fine — the tests compare
// trajectories and non-hitting runs).
func toySpec() RingSpec[uint16] {
	return RingSpec[uint16]{
		ArcMask: func(l, r uint16) uint8 {
			if l == r {
				return 1
			}
			return 0
		},
		AgentMask: func(s uint16) uint8 {
			if s&0xff == 0 {
				return 1
			}
			return 0
		},
		Converged: func(c *LocalCounts, cfg []uint16) bool {
			return c.Agent[0] == len(cfg)
		},
		ArcNames:   []string{"equal_pairs"},
		AgentNames: []string{"settled"},
	}
}

// toyTrans wanders through a large state space, minting fresh states on
// almost every step, so a small interner cap is exceeded mid-run.
func toyTrans(l, r uint16) (uint16, uint16) {
	return l + 1, r + l*3 + 7
}

// toyReuseTrans cycles within 19 states, the regime interning is for: its
// 361 ordered pairs warm the pair tables up within a few hundred steps.
func toyReuseTrans(l, r uint16) (uint16, uint16) {
	return (l + 1) % 19, (r + l*3 + 7) % 19
}

// toyMixTrans cycles within 1021 states and mixes through their ~1M
// ordered pairs nearly uniformly: the run keeps missing its pair tables,
// and once it has minted more states than the dense tier holds
// (defaultDenseStates) they migrate to the hashed tier mid-run.
func toyMixTrans(l, r uint16) (uint16, uint16) {
	return (l*5 + r*3 + 1) % 1021, (r*7 + l + 2) % 1021
}

func toyLeader(s uint16) bool { return s%5 == 0 }

func newToyEngine(n int, seed uint64, trans Transition[uint16]) *Engine[uint16] {
	e := NewEngine(DirectedRing(n), trans, xrand.New(seed))
	cfg := make([]uint16, n)
	for i := range cfg {
		cfg[i] = uint16(i * 11)
	}
	e.SetStates(cfg)
	e.TrackLeaders(toyLeader)
	return e
}

func newToyPairTrans(n int, seed uint64, cap int, trans Transition[uint16]) (*Engine[uint16], *InternedEngine[uint16]) {
	gen := newToyEngine(n, seed, trans)
	ie := newToyEngine(n, seed, trans)
	acc := AttachInterned(ie, NewTables(toySpec(), toyLeader, nil, nil, InternOptions{MaxStates: cap}), nil)
	return gen, acc
}

func newToyPair(n int, seed uint64, cap int) (*Engine[uint16], *InternedEngine[uint16]) {
	return newToyPairTrans(n, seed, cap, toyTrans)
}

func assertEnginesEqual(t *testing.T, gen *Engine[uint16], ie *Engine[uint16], ctx string) {
	t.Helper()
	if gen.Steps() != ie.Steps() {
		t.Fatalf("%s: steps %d vs %d", ctx, gen.Steps(), ie.Steps())
	}
	if gen.LeaderCount() != ie.LeaderCount() || gen.LeaderChanges() != ie.LeaderChanges() || gen.LastLeaderChange() != ie.LastLeaderChange() {
		t.Fatalf("%s: leader accounting diverged: (%d,%d,%d) vs (%d,%d,%d)", ctx,
			gen.LeaderCount(), gen.LeaderChanges(), gen.LastLeaderChange(),
			ie.LeaderCount(), ie.LeaderChanges(), ie.LastLeaderChange())
	}
	a, b := gen.Snapshot(), ie.Snapshot()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: agent %d state %d vs %d", ctx, i, a[i], b[i])
		}
	}
}

// TestInternedRunMatchesGenericRun pins the interned Run loop to the
// generic engine on the same seed: a tiny cap (capacity fallback mid-run,
// including mid-batch), a run that keeps missing its tables and migrates
// them from the dense to the hashed tier, and a reusing state space. No
// flavor may lose, repeat or reorder a single drawn arc.
func TestInternedRunMatchesGenericRun(t *testing.T) {
	cases := []struct {
		name       string
		cap        int
		trans      Transition[uint16]
		wantIntern bool
		wantHashed bool
	}{
		{"capacity-fallback", 8, toyTrans, false, false},
		{"mid-cap", 64, toyTrans, false, false},
		{"hashed-tier", 1 << 20, toyMixTrans, true, true},
		{"stays-interned", 1 << 20, toyReuseTrans, true, false},
	}
	for _, tc := range cases {
		gen, acc := newToyPairTrans(16, 7, tc.cap, tc.trans)
		tab := acc.tab
		gen.Run(10_000)
		acc.Run(10_000)
		assertEnginesEqual(t, gen, acc.Engine, tc.name+": after Run")
		if acc.Interned() != tc.wantIntern {
			t.Fatalf("%s: Interned() = %v, want %v", tc.name, acc.Interned(), tc.wantIntern)
		}
		if hashed := tab.trans[0].slab != nil; hashed != tc.wantHashed {
			t.Fatalf("%s: pair table hashed = %v at %d states, want %v", tc.name, hashed, tab.States(), tc.wantHashed)
		}
		// Chunked continuation must stay on the same stream.
		for i := 0; i < 5; i++ {
			gen.Run(333)
			acc.Run(333)
		}
		assertEnginesEqual(t, gen, acc.Engine, tc.name+": after chunked Run")
	}
}

// TestNewTablesRejectsMetaSpec pins the interned layer to closure-mode
// trackers: the interned loop feeds condition bits only, so a table set
// for a spec carrying the meta-word acceleration is refused at
// construction instead of starving a meta-mode tracker of its words.
func TestNewTablesRejectsMetaSpec(t *testing.T) {
	spec := toySpec()
	spec.MetaID = func(s uint16) uint64 { return uint64(s) }
	defer func() {
		if recover() == nil {
			t.Fatal("NewTables accepted a spec with MetaID")
		}
	}()
	NewTables(spec, toyLeader, nil, nil, InternOptions{})
}

// TestSharedTablesSurviveFallback pins the sharing contract of Tables: an
// engine that falls back drops only its own pointer to the tables, so a
// second engine attached to the same Tables still reads the first one's
// fills. The second engine replays the first's seed: it stays interned up
// to the step where the first one overflowed the capacity cap, falls back
// on that same step, and is bit-identical to the generic engine throughout.
func TestSharedTablesSurviveFallback(t *testing.T) {
	const n, seed, steps = 16, 7, 10_000
	tab := NewTables(toySpec(), toyLeader, nil, nil, InternOptions{MaxStates: 64})
	attach := func() *InternedEngine[uint16] {
		return AttachInterned(newToyEngine(n, seed, toyTrans), tab, nil)
	}
	first := attach()
	for first.Interned() && first.Steps() < steps {
		first.Run(1)
	}
	if first.Interned() {
		t.Fatal("the minting run did not overflow the capacity cap")
	}
	fell := first.Steps()
	first.Run(steps - fell)
	minted := tab.States()
	if minted <= n {
		t.Fatalf("tables hold %d states after the first run; want its mints beyond the %d initial states", minted, n)
	}

	second := attach()
	second.SetTracker(NewRingTracker(toySpec()))
	gen := newToyEngine(n, seed, toyTrans)
	gen.SetTracker(NewRingTracker(toySpec()))
	for _, budget := range []uint64{fell - 1, steps} {
		genStep, genOK := gen.RunUntilConverged(budget)
		step, ok := second.RunUntilConverged(budget)
		if step != genStep || ok != genOK {
			t.Fatalf("budget %d: second engine (%d, %v) vs generic (%d, %v)", budget, step, ok, genStep, genOK)
		}
		assertEnginesEqual(t, gen, second.Engine, "second engine over the shared tables")
		if budget < steps && !second.Interned() {
			t.Fatalf("second engine missed the first engine's fills and fell back before step %d", fell)
		}
	}
	if second.Interned() {
		t.Fatal("second engine stayed interned past the first engine's fills")
	}
	if tab.States() < minted {
		t.Fatalf("tables shrank from %d to %d states", minted, tab.States())
	}
}

// TestInternedSetStatesReinterns pins install handling: a SetStates (and a
// SetState) between interned runs must re-intern the configuration and
// keep the install-time leader-change recording identical to the generic
// engine.
func TestInternedSetStatesReinterns(t *testing.T) {
	gen, acc := newToyPair(12, 3, 1<<20)
	gen.Run(1000)
	acc.Run(1000)
	burst := gen.Snapshot()
	for i := 0; i < 4; i++ {
		burst[i*3] = uint16(40000 + i) // includes fresh, never-interned states
	}
	gen.SetStates(burst)
	acc.Engine.SetStates(burst)
	gen.SetState(5, 12345)
	acc.Engine.SetState(5, 12345)
	assertEnginesEqual(t, gen, acc.Engine, "after installs")
	gen.Run(5000)
	acc.Run(5000)
	assertEnginesEqual(t, gen, acc.Engine, "after post-install Run")
}

// TestInternedObserverDelegationInvalidatesMirror pins the mirror across
// observer-forced generic delegation: a pure protocol with an observer
// runs generically (states advance past the ID mirror), and a later
// interned run after the observer is removed must re-intern the current
// configuration instead of resuming from stale IDs.
func TestInternedObserverDelegationInvalidatesMirror(t *testing.T) {
	gen, acc := newToyPairTrans(12, 9, 1<<20, toyReuseTrans)
	gen.Run(2000)
	acc.Run(2000) // interned; builds the ID mirror
	obs := func(int, uint16, uint16) {}
	gen.SetObserver(obs)
	acc.Engine.SetObserver(obs)
	gen.Run(1000)
	acc.Run(1000) // observer + env==nil: delegated to the generic engine
	gen.SetObserver(nil)
	acc.Engine.SetObserver(nil)
	gen.Run(2000)
	acc.Run(2000) // interned again: must see the post-delegation states
	assertEnginesEqual(t, gen, acc.Engine, "after observer delegation round-trip")
}

// TestInternedEnvFallbackKeepsCounters is the regression test for the
// capacity fallback of an EnvSpec protocol: the interaction that trips
// the cap is executed generically, and it must dispatch the engine
// observer (the census maintainer of the generic path) so the oracle
// counters never miss a delta — the generic and interned engines must
// agree on the counter and the trajectory across the fallback boundary.
func TestInternedEnvFallbackKeepsCounters(t *testing.T) {
	// A toy oracle protocol: the environment is "some agent state is even"
	// (sign of a global even-state counter), and the transition's low bit
	// depends on it, so a counter desync changes trajectories.
	type runner struct {
		even int
	}
	mk := func() (*Engine[uint16], *runner) {
		ru := &runner{}
		trans := func(l, r uint16) (uint16, uint16) {
			bump := uint16(1)
			if ru.even == 0 {
				bump = 2
			}
			return l + bump, r + l*3 + 7
		}
		e := NewEngine(DirectedRing(12), trans, xrand.New(5))
		e.SetObserver(func(_ int, before, after uint16) {
			if before%2 == 0 {
				ru.even--
			}
			if after%2 == 0 {
				ru.even++
			}
		})
		cfg := make([]uint16, 12)
		for i := range cfg {
			cfg[i] = uint16(i * 13)
		}
		e.SetStates(cfg)
		for _, s := range cfg {
			if s%2 == 0 {
				ru.even++
			}
		}
		e.TrackLeaders(toyLeader)
		return e, ru
	}
	btoi := func(b bool) uint32 {
		if b {
			return 1
		}
		return 0
	}
	gen, genRu := mk()
	ie, ieRu := mk()
	env := &EnvSpec[uint16]{
		Keys: 2,
		Key: func() uint32 {
			if ieRu.even > 0 {
				return 1
			}
			return 0
		},
		Delta: func(lb, rb, la, ra uint16) uint32 {
			d := int(btoi(la%2 == 0)) - int(btoi(lb%2 == 0)) +
				int(btoi(ra%2 == 0)) - int(btoi(rb%2 == 0))
			return uint32(d + 2)
		},
		Apply: func(d uint32) { ieRu.even += int(d) - 2 },
	}
	// A cap of 40 forces the capacity fallback within the run.
	acc := AttachInterned(ie, NewTables(toySpec(), toyLeader, nil, env, InternOptions{MaxStates: 40}), env)
	gen.Run(5000)
	acc.Run(5000)
	if acc.Interned() {
		t.Fatal("cap 40 did not force fallback")
	}
	if genRu.even != ieRu.even {
		t.Fatalf("oracle counter desynced across fallback: generic %d vs interned %d", genRu.even, ieRu.even)
	}
	assertEnginesEqual(t, gen, acc.Engine, "env fallback")
}

// TestInternedRunUntilConvergedMatches pins the interned convergence loop
// (mirrored tracker, witness-free toy spec) to the generic tracked engine:
// same non-hit at the budget, same counts sampled, and identical
// trajectories across a fallback boundary.
func TestInternedRunUntilConvergedMatches(t *testing.T) {
	for _, cap := range []int{16, 1 << 20} {
		gen, acc := newToyPair(8, 11, cap)
		gen.SetTracker(NewRingTracker(toySpec()))
		atr := NewRingTracker(toySpec())
		acc.SetTracker(atr)
		genStep, genOK := gen.RunUntilConverged(4000)
		intStep, intOK := acc.RunUntilConverged(4000)
		if genStep != intStep || genOK != intOK {
			t.Fatalf("cap %d: converged (%d,%v) vs (%d,%v)", cap, genStep, genOK, intStep, intOK)
		}
		assertEnginesEqual(t, gen, acc.Engine, "after RunUntilConverged")
		genCounts := map[string]float64{}
		intCounts := map[string]float64{}
		gtr := NewRingTracker(toySpec())
		gtr.Reset(gen.Config())
		gtr.SampleCounts(genCounts)
		atr.SampleCounts(intCounts)
		for k, v := range genCounts {
			if intCounts[k] != v {
				t.Fatalf("cap %d: channel %q = %v vs %v", cap, k, intCounts[k], v)
			}
		}
	}
}

// toyWitnessSpec is toySpec with a Gate/Residual split whose verdict flips
// often under toyReuseTrans: the gate wants an equal adjacent pair, the
// residual an even agent 0, witnessed at position 0 alone.
func toyWitnessSpec() RingSpec[uint16] {
	spec := toySpec()
	spec.Gate = func(c *LocalCounts) bool { return c.Arc[0] > 0 }
	spec.Residual = func(_ *LocalCounts, cfg []uint16) (bool, Witness) {
		return cfg[0]%2 == 0, Witness{Lo: 0, Hi: 0, Anchor: -1}
	}
	spec.Converged = func(c *LocalCounts, cfg []uint16) bool { return c.Arc[0] > 0 && cfg[0]%2 == 0 }
	return spec
}

// TestInternedFeedMatchesFreshTracker pins the interned loop's tracker
// feed: after every step of an interned toyReuseTrans run, the installed
// tracker's counts and verdict equal those of a fresh tracker reset on the
// configuration — on a directed ring (the fused arc mask and the two side
// arcs), on an undirected ring (reversed arcs re-evaluate every incident
// arc), and across a capacity fallback to the generic feed.
func TestInternedFeedMatchesFreshTracker(t *testing.T) {
	cases := []struct {
		name       string
		topo       Topology
		cap        int
		wantIntern bool
	}{
		{"directed", DirectedRing(16), 1 << 20, true},
		{"undirected", UndirectedRing(16), 1 << 20, true},
		// The 16 initial states plus the 19 of the cycle overflow a cap of
		// 32 a few dozen steps in.
		{"capacity-fallback", DirectedRing(16), 32, false},
	}
	for _, tc := range cases {
		for _, spec := range []RingSpec[uint16]{toySpec(), toyWitnessSpec()} {
			e := NewEngine(tc.topo, toyReuseTrans, xrand.New(17))
			cfg := make([]uint16, tc.topo.N)
			for i := range cfg {
				cfg[i] = uint16(i * 11)
			}
			e.SetStates(cfg)
			e.TrackLeaders(toyLeader)
			acc := AttachInterned(e, NewTables(spec, toyLeader, nil, nil, InternOptions{MaxStates: tc.cap}), nil)
			tr := NewRingTracker(spec)
			acc.SetTracker(tr)
			verdicts, internedSteps := 0, 0
			for step := 0; step < 3000; step++ {
				if acc.Interned() {
					internedSteps++
				}
				acc.Run(1)
				fresh := NewRingTracker(spec)
				fresh.Reset(acc.Config())
				if got, want := tr.Counts(), fresh.Counts(); got != want {
					t.Fatalf("%s: step %d: counts %+v, fresh tracker %+v", tc.name, acc.Steps(), got, want)
				}
				got, want := tr.Converged(), fresh.Converged()
				if got != want {
					t.Fatalf("%s: step %d: verdict %v, fresh tracker %v", tc.name, acc.Steps(), got, want)
				}
				if got {
					verdicts++
				}
			}
			if acc.Interned() != tc.wantIntern || internedSteps < 20 {
				t.Fatalf("%s: Interned() = %v after %d interned steps, want %v after at least 20", tc.name, acc.Interned(), internedSteps, tc.wantIntern)
			}
			if spec.Gate != nil && (verdicts == 0 || verdicts == 3000) {
				t.Fatalf("%s: the witness spec's verdict never flipped (%d of 3000 steps true)", tc.name, verdicts)
			}
		}
	}
}
