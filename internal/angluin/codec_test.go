package angluin

import (
	"testing"

	"repro/internal/population"
	"repro/internal/war"
)

// allStates enumerates the full state domain at the maximum modulus
// k = 250: 250 labels × 2² flag combinations × 12 war states = 12000
// states. Every smaller modulus reaches a subset, so exhaustive checks
// here subsume reachable-state coverage for every valid k.
func allStates() []State {
	var out []State
	for c := 0; c < 250; c++ {
		for f := 0; f < 4; f++ {
			for b := war.None; b <= war.Live; b++ {
				for sh := 0; sh < 2; sh++ {
					for sg := 0; sg < 2; sg++ {
						out = append(out, State{
							C:      uint8(c),
							Leader: f&1 != 0,
							Repair: f&2 != 0,
							War:    war.State{Bullet: b, Shield: sh == 1, Signal: sg == 1},
						})
					}
				}
			}
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
// interner: one distinct ID per distinct state, stable on re-intern. At
// 12000 states this also exercises the interner's open-table growth path.
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
	f.Add(uint8(0), uint8(0), uint8(0))
	f.Add(uint8(249), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, label, flags, bullet uint8) {
		s := State{
			C:      label % 250,
			Leader: flags&1 != 0,
			Repair: flags&2 != 0,
			War: war.State{
				Bullet: war.Bullet(bullet % 3),
				Shield: flags&4 != 0,
				Signal: flags&8 != 0,
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
