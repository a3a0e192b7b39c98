package yokota

import (
	"testing"

	"repro/internal/population"
	"repro/internal/war"
	"repro/internal/xrand"
)

// domainStates enumerates the full state domain for upper bound N when it
// is small enough, and falls back to boundary values plus a random sweep
// for large N. The domain — Dist ∈ [0, N], both leader bits, all 12 war
// states — is a strict superset of every reachable configuration.
func domainStates(p *Protocol, rng *xrand.RNG) []State {
	var dists []uint32
	if p.UpperBound <= 256 {
		for d := 0; d <= p.UpperBound; d++ {
			dists = append(dists, uint32(d))
		}
	} else {
		dists = []uint32{0, 1, uint32(p.UpperBound / 2), uint32(p.UpperBound - 1), uint32(p.UpperBound)}
		for i := 0; i < 500; i++ {
			dists = append(dists, uint32(rng.Intn(p.UpperBound+1)))
		}
	}
	var out []State
	for _, d := range dists {
		for l := 0; l < 2; l++ {
			for b := war.None; b <= war.Live; b++ {
				for sh := 0; sh < 2; sh++ {
					for sg := 0; sg < 2; sg++ {
						out = append(out, State{
							Leader: l == 1,
							Dist:   d,
							War:    war.State{Bullet: b, Shield: sh == 1, Signal: sg == 1},
						})
					}
				}
			}
		}
	}
	return out
}

// TestCodecRoundTrip pins the packed codec across upper bounds spanning
// both enumeration regimes and the acceptance sizes: Dec(Enc(s)) == s,
// Enc stays under the declared width, and Enc is injective.
func TestCodecRoundTrip(t *testing.T) {
	for _, ub := range []int{2, 5, 64, 128, 2048, 1 << 16} {
		p := New(ub)
		c := p.Codec()
		if c.Bits < 1 || c.Bits > 63 {
			t.Fatalf("N=%d: codec width %d outside [1, 63]", ub, c.Bits)
		}
		rng := xrand.New(uint64(ub))
		seen := make(map[uint64]State)
		for _, s := range domainStates(p, rng) {
			v := c.Enc(s)
			if v >= 1<<c.Bits {
				t.Fatalf("N=%d: Enc(%+v) = %#x exceeds %d bits", ub, s, v, c.Bits)
			}
			if got := c.Dec(v); got != s {
				t.Fatalf("N=%d: round trip: %+v -> %#x -> %+v", ub, s, v, got)
			}
			if prev, dup := seen[v]; dup && prev != s {
				t.Fatalf("N=%d: collision: %+v and %+v both pack to %#x", ub, prev, s, v)
			}
			seen[v] = s
		}
	}
}

// TestPackedInternerCollisionFree feeds the N=64 full domain through the
// packed interner: one distinct ID per distinct state, stable on
// re-intern. The O(n)-state domain exercises the open-table growth path.
func TestPackedInternerCollisionFree(t *testing.T) {
	p := New(64)
	c := p.Codec()
	in := population.NewPackedInterner(c, population.MaxInternStates)
	states := domainStates(p, xrand.New(1))
	ids := make([]uint32, len(states))
	for i, s := range states {
		id, ok := in.Intern(s)
		if !ok {
			t.Fatalf("intern %+v failed below cap", s)
		}
		if in.Value(id) != s || in.Packed(id) != c.Enc(s) {
			t.Fatalf("mint %d does not invert for %+v", id, s)
		}
		ids[i] = id
	}
	if in.Len() != len(states) {
		t.Fatalf("interner minted %d IDs for %d distinct states", in.Len(), len(states))
	}
	for i, s := range states {
		if id, _ := in.Intern(s); id != ids[i] {
			t.Fatalf("re-intern of %+v moved ID %d -> %d", s, ids[i], id)
		}
	}
}

// FuzzCodecRoundTrip drives the round trip from raw fuzzed values,
// canonicalized into the valid domain of a fuzz-chosen upper bound.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint16(2), uint32(0), uint8(0), uint8(0))
	f.Add(uint16(2048), uint32(2048), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, ubRaw uint16, dist uint32, flags, bullet uint8) {
		ub := int(ubRaw)
		if ub < 2 {
			ub = 2
		}
		s := State{
			Leader: flags&1 != 0,
			Dist:   dist % uint32(ub+1),
			War: war.State{
				Bullet: war.Bullet(bullet % 3),
				Shield: flags&2 != 0,
				Signal: flags&4 != 0,
			},
		}
		c := New(ub).Codec()
		v := c.Enc(s)
		if v >= 1<<c.Bits {
			t.Fatalf("N=%d: Enc(%+v) = %#x exceeds %d bits", ub, s, v, c.Bits)
		}
		if got := c.Dec(v); got != s {
			t.Fatalf("N=%d: round trip: %+v -> %#x -> %+v", ub, s, v, got)
		}
	})
}
