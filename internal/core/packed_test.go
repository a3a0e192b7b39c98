package core

import (
	"fmt"
	"testing"

	"repro/internal/population"
	"repro/internal/xrand"
)

// reachableSample returns a mixed sample of P_PL states under p: random
// valid states (a superset of reachable) plus states actually reached by
// evolving every initial-configuration class under the real transition, so
// the codec and meta tests cover both the declared domain and the states
// executions visit.
func reachableSample(t *testing.T, p Params, seed uint64) []State {
	t.Helper()
	rng := xrand.New(seed)
	var out []State
	for i := 0; i < 1000; i++ {
		s := p.RandomState(rng)
		if !p.ValidState(s) {
			t.Fatalf("RandomState produced invalid state %+v", s)
		}
		out = append(out, s)
	}
	pr := New(p)
	for _, class := range []string{"random", "noleader", "allleaders", "corrupted"} {
		cfg := p.InitConfig(class, seed)
		out = append(out, cfg...)
		for step := 0; step < 200*p.N; step++ {
			i := rng.Intn(p.N)
			j := (i + 1) % p.N
			cfg[i], cfg[j] = pr.Step(cfg[i], cfg[j])
			if step%7 == 0 {
				out = append(out, cfg[i], cfg[j])
			}
		}
	}
	return out
}

// TestCodecRoundTrip pins the packed codec over random valid states and
// transition-reachable states across ring sizes: Dec(Enc(s)) == s, Enc
// stays under the declared width, and Enc is injective.
func TestCodecRoundTrip(t *testing.T) {
	for _, n := range []int{4, 16, 33, 64, 256} {
		p := NewParams(n)
		c, ok := p.Codec()
		if !ok {
			t.Fatalf("n=%d: canonical parameters must have a codec", n)
		}
		if c.Bits < 1 || c.Bits > 63 {
			t.Fatalf("n=%d: codec width %d outside [1, 63]", n, c.Bits)
		}
		seen := make(map[uint64]State)
		for _, s := range reachableSample(t, p, uint64(n)) {
			v := c.Enc(s)
			if v >= 1<<c.Bits {
				t.Fatalf("n=%d: Enc(%+v) = %#x exceeds %d bits", n, s, v, c.Bits)
			}
			if got := c.Dec(v); got != s {
				t.Fatalf("n=%d: round trip: %+v -> %#x -> %+v", n, s, v, got)
			}
			if prev, dup := seen[v]; dup && prev != s {
				t.Fatalf("n=%d: collision: %+v and %+v both pack to %#x", n, prev, s, v)
			}
			seen[v] = s
		}
	}
}

// TestCodecRejectsOversized pins the fallback contract: parameterizations
// whose packed form would not fit the interner's 63-bit ceiling return no
// codec instead of a truncating one.
func TestCodecRejectsOversized(t *testing.T) {
	p := Params{N: 1 << 20, Psi: 60, KappaMax: 1 << 30}
	if _, ok := p.Codec(); ok {
		t.Fatal("oversized parameterization produced a codec")
	}
	if _, ok := NewParams(64).Codec(); !ok {
		t.Fatal("canonical n=64 parameters must produce a codec")
	}
}

// TestPackedInternerCollisionFree feeds a reachable-state sample through
// the packed interner: one distinct ID per distinct state, stable on
// re-intern, with Value and Packed inverting the mint.
func TestPackedInternerCollisionFree(t *testing.T) {
	p := NewParams(64)
	c, _ := p.Codec()
	in := population.NewPackedInterner(c, population.DefaultMaxStates)
	distinct := make(map[State]uint32)
	for _, s := range reachableSample(t, p, 7) {
		id, ok := in.Intern(s)
		if !ok {
			t.Fatalf("intern %+v failed below cap", s)
		}
		if prev, dup := distinct[s]; dup {
			if id != prev {
				t.Fatalf("re-intern of %+v moved ID %d -> %d", s, prev, id)
			}
			continue
		}
		distinct[s] = id
		if in.Value(id) != s || in.Packed(id) != c.Enc(s) {
			t.Fatalf("mint %d does not invert for %+v", id, s)
		}
	}
	if in.Len() != len(distinct) {
		t.Fatalf("interner minted %d IDs for %d distinct states", in.Len(), len(distinct))
	}
}

// TestMetaSpecEquivalence pins the meta-word callbacks bit-for-bit against
// their State-level counterparts over reachable samples: the per-arc mask,
// and the per-agent mask derived from a single meta word (the
// AgentMaskMeta fast path of the interned engine's mirror update). It also
// pins MaskMetaBits, which lets the generic tracker skip mask refreshes:
// flipping any meta bit outside it, on either side of an arc, moves
// neither mask.
func TestMetaSpecEquivalence(t *testing.T) {
	for _, n := range []int{8, 33, 64} {
		p := NewParams(n)
		spec := p.SafetySpec()
		if spec.MetaID == nil || spec.ArcMaskMeta == nil || spec.AgentMaskMeta == nil {
			t.Fatalf("n=%d: meta acceleration not attached", n)
		}
		sample := reachableSample(t, p, uint64(100+n))
		for _, s := range sample {
			if got, want := spec.AgentMaskMeta(spec.MetaID(s)), spec.AgentMask(s); got != want {
				t.Fatalf("n=%d: AgentMaskMeta(%+v) = %#x, AgentMask = %#x", n, s, got, want)
			}
		}
		for i := 0; i+1 < len(sample); i += 2 {
			l, r := sample[i], sample[i+1]
			got := spec.ArcMaskMeta(spec.MetaID(l), spec.MetaID(r))
			if want := spec.ArcMask(l, r); got != want {
				t.Fatalf("n=%d: ArcMaskMeta(%+v, %+v) = %#x, ArcMask = %#x", n, l, r, got, want)
			}
		}
		if spec.MaskMetaBits == 0 {
			t.Fatalf("n=%d: MaskMetaBits not set", n)
		}
		for i := 0; i+1 < len(sample); i += 2 {
			l, r := spec.MetaID(sample[i]), spec.MetaID(sample[i+1])
			agent, arc := spec.AgentMaskMeta(l), spec.ArcMaskMeta(l, r)
			for b := 0; b < 64; b++ {
				flip := uint64(1) << b
				if spec.MaskMetaBits&flip != 0 {
					continue
				}
				if got := spec.AgentMaskMeta(l ^ flip); got != agent {
					t.Fatalf("n=%d: flipping meta bit %d outside MaskMetaBits moved AgentMaskMeta(%#x): %#x -> %#x", n, b, l, agent, got)
				}
				if got := spec.ArcMaskMeta(l^flip, r); got != arc {
					t.Fatalf("n=%d: flipping left meta bit %d outside MaskMetaBits moved ArcMaskMeta(%#x, %#x): %#x -> %#x", n, b, l, r, arc, got)
				}
				if got := spec.ArcMaskMeta(l, r^flip); got != arc {
					t.Fatalf("n=%d: flipping right meta bit %d outside MaskMetaBits moved ArcMaskMeta(%#x, %#x): %#x -> %#x", n, b, l, r, arc, got)
				}
			}
		}
	}
}

// residualCounts builds the LocalCounts slice of the residual's contract —
// exactly one leader at a known index plus the live-bullet census — for a
// configuration with a unique leader.
func residualCounts(t *testing.T, cfg []State) population.LocalCounts {
	t.Helper()
	var c population.LocalCounts
	for i, s := range cfg {
		if s.Leader {
			c.Agent[0]++
			c.AgentPos[0] = i
		}
		if s.War.Bullet == 2 { // war.Live
			c.Agent[2]++
		}
	}
	if c.Agent[0] != 1 {
		t.Fatalf("residual configs need exactly one leader, got %d", c.Agent[0])
	}
	return c
}

// TestMetaResidualEquivalence pins ResidualMeta against the State-level
// Residual — verdict and witness — on the full spectrum of single-leader
// configurations: perfect (true verdict), lightly corrupted (token and
// segment failures) and heavily corrupted. Each comparison uses a fresh
// spec so the meta side's hint memo is cold and the witnesses must agree
// exactly; a second call on the same failing configuration then exercises
// the hint path, which may witness a different failing pair but must keep
// the verdict.
func TestMetaResidualEquivalence(t *testing.T) {
	for _, n := range []int{16, 33, 64} {
		p := NewParams(n)
		for seed := uint64(1); seed <= 5; seed++ {
			rng := xrand.New(seed)
			for _, corrupt := range []int{0, 1, 3, n / 2} {
				cfg := p.PerfectConfig(rng.Intn(n), uint64(rng.Intn(1<<p.Psi)))
				for f := 0; f < corrupt; f++ {
					i := rng.Intn(n)
					r := p.RandomState(rng)
					// Keep the leader set intact: the residual's contract
					// assumes a unique leader at counts.AgentPos[0].
					r.Leader = cfg[i].Leader
					cfg[i] = r
				}
				name := fmt.Sprintf("n=%d/seed=%d/corrupt=%d", n, seed, corrupt)
				spec := p.SafetySpec()
				counts := residualCounts(t, cfg)
				meta := make([]uint64, n)
				for i, s := range cfg {
					meta[i] = spec.MetaID(s)
				}
				wantOK, wantW := spec.Residual(&counts, cfg)
				gotOK, gotW := spec.ResidualMeta(&counts, meta)
				if gotOK != wantOK || gotW != wantW {
					t.Fatalf("%s: ResidualMeta = (%v, %+v), Residual = (%v, %+v)",
						name, gotOK, gotW, wantOK, wantW)
				}
				if corrupt == 0 && !wantOK {
					t.Fatalf("%s: perfect configuration failed the residual", name)
				}
				// Hint path: re-evaluating the same failing configuration
				// must keep the verdict (the witness may legally move to a
				// later failing pair).
				if !wantOK {
					if againOK, _ := spec.ResidualMeta(&counts, meta); againOK {
						t.Fatalf("%s: hint-path re-evaluation flipped the verdict", name)
					}
				}
			}
		}
	}
}

// FuzzCodecRoundTrip drives the P_PL round trip from raw fuzzed fields,
// canonicalized into the valid domain of the n=64 parameters.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0))
	f.Add(uint64(0xdeadbeef), uint64(42))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		p := NewParams(64)
		rng := xrand.New(a ^ b*0x9e3779b97f4a7c15)
		s := p.RandomState(rng)
		if !p.ValidState(s) {
			t.Fatalf("RandomState produced invalid state %+v", s)
		}
		c, ok := p.Codec()
		if !ok {
			t.Fatal("n=64 parameters must have a codec")
		}
		v := c.Enc(s)
		if v >= 1<<c.Bits {
			t.Fatalf("Enc(%+v) = %#x exceeds %d bits", s, v, c.Bits)
		}
		if got := c.Dec(v); got != s {
			t.Fatalf("round trip: %+v -> %#x -> %+v", s, v, got)
		}
	})
}
