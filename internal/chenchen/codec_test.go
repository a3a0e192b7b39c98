package chenchen

import (
	"testing"

	"repro/internal/population"
	"repro/internal/war"
)

// allStates enumerates the full state domain — 2⁴ flag combinations × the
// 12 valid war states = 192 states, a strict superset of every reachable
// configuration, so exhaustive checks here subsume reachable-state
// coverage.
func allStates() []State {
	var out []State
	for f := 0; f < 16; f++ {
		for b := war.None; b <= war.Live; b++ {
			for sh := 0; sh < 2; sh++ {
				for sg := 0; sg < 2; sg++ {
					out = append(out, State{
						Leader:  f&1 != 0,
						Anchor:  f&2 != 0,
						Walker:  f&4 != 0,
						Retract: f&8 != 0,
						War:     war.State{Bullet: b, Shield: sh == 1, Signal: sg == 1},
					})
				}
			}
		}
	}
	return out
}

// TestCodecRoundTrip pins the packed codec over the whole state domain:
// Dec(Enc(s)) == s, Enc stays under the declared width, and Enc is
// injective (no two distinct states share a packed form).
func TestCodecRoundTrip(t *testing.T) {
	c := Codec()
	if c.Bits < 1 || c.Bits > 63 {
		t.Fatalf("codec width %d outside [1, 63]", c.Bits)
	}
	seen := make(map[uint64]State)
	for _, s := range allStates() {
		v := c.Enc(s)
		if v >= 1<<c.Bits {
			t.Fatalf("Enc(%+v) = %#x exceeds %d bits", s, v, c.Bits)
		}
		if got := c.Dec(v); got != s {
			t.Fatalf("round trip: %+v -> %#x -> %+v", s, v, got)
		}
		if prev, dup := seen[v]; dup {
			t.Fatalf("collision: %+v and %+v both pack to %#x", prev, s, v)
		}
		seen[v] = s
	}
}

// TestPackedInternerCollisionFree feeds the full domain through the packed
// interner and asserts collision-freedom end to end: one distinct ID per
// distinct state, stable on re-intern, with Value and Packed inverting the
// mint.
func TestPackedInternerCollisionFree(t *testing.T) {
	c := Codec()
	in := population.NewPackedInterner(c, population.MaxInternStates)
	states := allStates()
	ids := make([]uint32, len(states))
	for i, s := range states {
		id, ok := in.Intern(s)
		if !ok {
			t.Fatalf("intern %+v failed below cap", s)
		}
		if in.Value(id) != s {
			t.Fatalf("Value(%d) = %+v, interned %+v", id, in.Value(id), s)
		}
		if in.Packed(id) != c.Enc(s) {
			t.Fatalf("Packed(%d) = %#x, Enc = %#x", id, in.Packed(id), c.Enc(s))
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

// FuzzCodecRoundTrip drives the round trip from raw fuzzed bytes,
// canonicalized into the valid domain.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(0))
	f.Add(uint8(0xff), uint8(2))
	f.Add(uint8(0b1010), uint8(1))
	f.Fuzz(func(t *testing.T, flags, bullet uint8) {
		s := State{
			Leader:  flags&1 != 0,
			Anchor:  flags&2 != 0,
			Walker:  flags&4 != 0,
			Retract: flags&8 != 0,
			War: war.State{
				Bullet: war.Bullet(bullet % 3),
				Shield: flags&16 != 0,
				Signal: flags&32 != 0,
			},
		}
		c := Codec()
		v := c.Enc(s)
		if v >= 1<<c.Bits {
			t.Fatalf("Enc(%+v) = %#x exceeds %d bits", s, v, c.Bits)
		}
		if got := c.Dec(v); got != s {
			t.Fatalf("round trip: %+v -> %#x -> %+v", s, v, got)
		}
	})
}
