package orient

import (
	"testing"

	"repro/internal/population"
	"repro/internal/xrand"
)

// sampleStates returns a mixed exhaustive/random state sample: every
// combination over a small structured palette that includes NoColor (the
// adversarial empty-memory value), then a uniform random sweep of the full
// 2³³ domain. The codec's contract is injectivity over the whole domain,
// so sampling plus the structured corner set is the practical stand-in for
// enumeration.
func sampleStates() []State {
	palette := []uint8{0, 1, 2, 7, 0xfe, NoColor}
	var out []State
	for _, c := range palette {
		for _, d := range palette {
			for _, m1 := range palette {
				for _, m2 := range palette {
					for st := 0; st < 2; st++ {
						out = append(out, State{Color: c, Dir: d, M1: m1, M2: m2, Strong: st == 1})
					}
				}
			}
		}
	}
	rng := xrand.New(42)
	for i := 0; i < 50000; i++ {
		w := rng.Uint64()
		out = append(out, State{
			Color:  uint8(w),
			Dir:    uint8(w >> 8),
			M1:     uint8(w >> 16),
			M2:     uint8(w >> 24),
			Strong: w>>32&1 != 0,
		})
	}
	return out
}

// TestCodecRoundTrip pins the packed codec over the structured corner set
// and a random sweep: Dec(Enc(s)) == s, Enc stays under the declared
// width, and Enc is injective over the sample.
func TestCodecRoundTrip(t *testing.T) {
	c := Codec()
	if c.Bits < 1 || c.Bits > 63 {
		t.Fatalf("codec width %d outside [1, 63]", c.Bits)
	}
	seen := make(map[uint64]State)
	for _, s := range sampleStates() {
		v := c.Enc(s)
		if v >= 1<<c.Bits {
			t.Fatalf("Enc(%+v) = %#x exceeds %d bits", s, v, c.Bits)
		}
		if got := c.Dec(v); got != s {
			t.Fatalf("round trip: %+v -> %#x -> %+v", s, v, got)
		}
		if prev, dup := seen[v]; dup && prev != s {
			t.Fatalf("collision: %+v and %+v both pack to %#x", prev, s, v)
		}
		seen[v] = s
	}
}

// TestPackedInternerCollisionFree feeds the sample through the packed
// interner: one distinct ID per distinct state, stable on re-intern.
func TestPackedInternerCollisionFree(t *testing.T) {
	c := Codec()
	in := population.NewPackedInterner(c, population.MaxInternStates)
	distinct := make(map[State]uint32)
	for _, s := range sampleStates() {
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

// FuzzCodecRoundTrip drives the round trip from raw fuzzed bytes; every
// field combination is a valid state.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), false)
	f.Add(NoColor, NoColor, NoColor, NoColor, true)
	f.Add(uint8(3), uint8(1), uint8(2), NoColor, true)
	f.Fuzz(func(t *testing.T, color, dir, m1, m2 uint8, strong bool) {
		s := State{Color: color, Dir: dir, M1: m1, M2: m2, Strong: strong}
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
