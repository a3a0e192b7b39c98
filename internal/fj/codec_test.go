package fj

import (
	"testing"

	"repro/internal/population"
	"repro/internal/war"
)

// allStates enumerates the full 24-state domain — a strict superset of
// every reachable configuration.
func allStates() []State {
	var out []State
	for f := 0; f < 8; f++ {
		for b := war.None; b <= war.Live; b++ {
			out = append(out, State{
				Leader:  f&1 != 0,
				Waiting: f&2 != 0,
				Shield:  f&4 != 0,
				Bullet:  b,
			})
		}
	}
	return out
}

// TestCodecRoundTrip pins the packed codec over the whole state domain:
// Dec(Enc(s)) == s, Enc stays under the declared width, and Enc is
// injective.
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
// interner: one distinct ID per distinct state, stable on re-intern.
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

// FuzzCodecRoundTrip drives the round trip from raw fuzzed bytes,
// canonicalized into the valid domain.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(0))
	f.Add(uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, flags, bullet uint8) {
		s := State{
			Leader:  flags&1 != 0,
			Waiting: flags&2 != 0,
			Shield:  flags&4 != 0,
			Bullet:  war.Bullet(bullet % 3),
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
