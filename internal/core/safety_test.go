package core

import (
	"strings"
	"testing"

	"repro/internal/war"
	"repro/internal/xrand"
)

func TestPerfectConfigIsSafe(t *testing.T) {
	for _, n := range []int{4, 5, 8, 12, 15, 16, 17, 31, 32, 33, 64, 100} {
		p := NewParams(n)
		for _, leaderAt := range []int{0, 1, n / 2, n - 1} {
			cfg := p.PerfectConfig(leaderAt, 0)
			if got := LeaderCount(cfg); got != 1 {
				t.Fatalf("n=%d leaderAt=%d: %d leaders", n, leaderAt, got)
			}
			if LeaderIndex(cfg) != leaderAt {
				t.Fatalf("n=%d: leader at %d, want %d", n, LeaderIndex(cfg), leaderAt)
			}
			if !p.DistConsistent(cfg) {
				t.Fatalf("n=%d leaderAt=%d: distances inconsistent", n, leaderAt)
			}
			if !p.IsPerfect(cfg) {
				t.Fatalf("n=%d leaderAt=%d: not perfect", n, leaderAt)
			}
			if !p.InCPB(cfg) || !p.InCDL(cfg) {
				t.Fatalf("n=%d leaderAt=%d: not in C_PB/C_DL", n, leaderAt)
			}
			if !p.IsSafe(cfg) {
				t.Fatalf("n=%d leaderAt=%d: not in S_PL", n, leaderAt)
			}
		}
	}
}

func TestPerfectConfigAnyFirstID(t *testing.T) {
	p := NewParams(24)
	for id := uint64(0); id < 1<<uint(p.Psi); id += 7 {
		if !p.IsSafe(p.PerfectConfig(3, id)) {
			t.Fatalf("firstID=%d not safe", id)
		}
	}
}

// TestLemma32 checks Lemma 3.2: a configuration without a leader is never
// perfect. We enumerate adversarial b assignments over dist-consistent
// leaderless rings and confirm at least one segment violates condition (2).
func TestLemma32(t *testing.T) {
	// 2ψ | n so that a leaderless ring can be fully dist-consistent — the
	// adversary's best case.
	for _, n := range []int{8, 16, 24} {
		p := NewParams(n)
		if n%p.TwoPsi() != 0 {
			p = Params{N: n, Psi: 4, KappaMax: 32}
			if n%p.TwoPsi() != 0 {
				t.Fatalf("test setup: pick n divisible by 2ψ (n=%d ψ=%d)", n, p.Psi)
			}
		}
		rng := xrand.New(uint64(n))
		for trial := 0; trial < 200; trial++ {
			cfg := make([]State, n)
			for i := range cfg {
				cfg[i] = State{
					Dist: uint16(i % p.TwoPsi()),
					B:    uint8(rng.Intn(2)),
				}
			}
			if p.IsPerfect(cfg) {
				t.Fatalf("n=%d trial %d: leaderless perfect configuration exists — contradicts Lemma 3.2", n, trial)
			}
		}
	}
}

// TestLemma32Exhaustive enumerates every b assignment for small rings with
// valid knowledge (2^ψ ≥ n) — no leaderless perfect configuration may exist
// at all.
func TestLemma32Exhaustive(t *testing.T) {
	for _, p := range []Params{
		{N: 8, Psi: 4, KappaMax: 32},  // 2ψ=8 divides 8, 2 segments
		{N: 16, Psi: 4, KappaMax: 32}, // 2ψ=8 divides 16, 4 segments
	} {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		n := p.N
		for bits := 0; bits < 1<<uint(n); bits++ {
			cfg := make([]State, n)
			for i := range cfg {
				cfg[i] = State{
					Dist: uint16(i % p.TwoPsi()),
					B:    uint8((bits >> uint(i)) & 1),
				}
			}
			if p.IsPerfect(cfg) {
				t.Fatalf("n=%d ψ=%d: leaderless perfect configuration found: bits=%b", n, p.Psi, bits)
			}
		}
	}
}

// TestLemma32NeedsKnowledge documents that the knowledge assumption
// 2^ψ ≥ n is necessary: with ψ too small for the ring, leaderless perfect
// configurations exist (segment IDs can wrap consistently around the ring),
// so the absence of a leader would be undetectable.
func TestLemma32NeedsKnowledge(t *testing.T) {
	p := Params{N: 8, Psi: 2, KappaMax: 16} // invalid: 2^ψ = 4 < 8
	if p.Validate() == nil {
		t.Fatal("test premise: params must be invalid")
	}
	// IDs 1,2,3,0 around the ring wrap consistently mod 2^ψ = 4.
	bits := []uint8{1, 0, 0, 1, 1, 1, 0, 0}
	cfg := make([]State, p.N)
	for i := range cfg {
		cfg[i] = State{Dist: uint16(i % p.TwoPsi()), B: bits[i]}
	}
	if !p.IsPerfect(cfg) {
		t.Fatal("expected a leaderless perfect configuration under broken knowledge")
	}
}

func TestIsPerfectDetectsIDViolation(t *testing.T) {
	p := NewParams(16)
	cfg := p.PerfectConfig(0, 0)
	// Corrupt a bit in segment S_1 (an interior, non-exempt segment needs
	// ζ ≥ 4; n=16, ψ=4 gives ζ=4, so S_1 and S_2 are both constrained).
	cfg[p.Psi].B ^= 1
	if p.IsPerfect(cfg) {
		t.Fatal("corrupted segment ID still perfect")
	}
	if p.IsSafe(cfg) {
		t.Fatal("corrupted segment ID still safe")
	}
}

func TestIsPerfectExemptsLeaderSegments(t *testing.T) {
	p := NewParams(16)
	cfg := p.PerfectConfig(0, 0)
	// The last segment (ending at the leader) is exempt from condition (2).
	for i := p.N - p.Psi; i < p.N; i++ {
		cfg[i].B ^= 1
	}
	if !p.IsPerfect(cfg) {
		t.Fatal("last segment should be exempt from condition (2)")
	}
}

// TestSegmentIDRolling pins the modulo-free segmentID walk to the per-bit
// (start+t) mod n definition of ι(S) on random configurations, for every
// start and length — including segments that wrap past agent n−1.
func TestSegmentIDRolling(t *testing.T) {
	rng := xrand.New(4)
	for _, n := range []int{3, 8, 33, 64} {
		p := NewParams(n)
		for trial := 0; trial < 5; trial++ {
			cfg := p.RandomConfig(rng)
			for start := 0; start < n; start++ {
				for length := 1; length <= n; length++ {
					var want uint64
					for t := 0; t < length; t++ {
						want |= uint64(cfg[(start+t)%n].B) << uint(t)
					}
					if got := segmentID(cfg, start, length); got != want {
						t.Fatalf("n=%d start=%d length=%d: segmentID = %#x, want %#x", n, start, length, got, want)
					}
				}
			}
		}
	}
}

func TestDistConsistentDetectsViolation(t *testing.T) {
	p := NewParams(16)
	cfg := p.PerfectConfig(0, 0)
	cfg[5].Dist = (cfg[5].Dist + 1) % uint16(p.TwoPsi())
	if p.DistConsistent(cfg) {
		t.Fatal("distance corruption not detected")
	}
}

func TestInCDLRequiresExactLast(t *testing.T) {
	p := NewParams(16)
	cfg := p.PerfectConfig(0, 0)
	cfg[2].Last = true // interior agent wrongly marked last
	if p.InCDL(cfg) {
		t.Fatal("wrong last bit accepted by InCDL")
	}
}

func TestInCPBRejectsHostileBullet(t *testing.T) {
	p := NewParams(16)
	cfg := p.PerfectConfig(0, 0)
	cfg[0].War.Shield = false
	cfg[5].War.Bullet = war.Live // live bullet with unshielded left leader
	if p.InCPB(cfg) {
		t.Fatal("non-peaceful live bullet accepted")
	}
	if p.IsSafe(cfg) {
		t.Fatal("non-peaceful live bullet is not safe")
	}
}

func TestInCPBAcceptsPeacefulBullet(t *testing.T) {
	p := NewParams(16)
	cfg := p.PerfectConfig(0, 0) // leader shielded by construction
	cfg[5].War.Bullet = war.Live
	if !p.InCPB(cfg) {
		t.Fatal("peaceful live bullet rejected")
	}
}

func TestIsSafeRejectsZeroOrManyLeaders(t *testing.T) {
	p := NewParams(16)
	cfg := p.PerfectConfig(0, 0)
	cfg[0].Leader = false
	if p.IsSafe(cfg) || p.InCDL(cfg) {
		t.Fatal("leaderless configuration judged safe")
	}
	cfg = p.PerfectConfig(0, 0)
	cfg[8].Leader = true
	if p.IsSafe(cfg) {
		t.Fatal("two-leader configuration judged safe")
	}
}

func TestIsSafeTokenJudgments(t *testing.T) {
	p := NewParams(16) // ψ=4, ζ=4
	psi := int16(p.Psi)

	put := func(mut func(cfg []State)) []State {
		cfg := p.PerfectConfig(0, 0)
		mut(cfg)
		return cfg
	}

	tests := []struct {
		name string
		cfg  []State
		want bool
	}{
		{
			name: "fresh black token at black border",
			cfg: put(func(cfg []State) {
				// ι(S_0)=0 ⇒ b=0 at u_0 ⇒ fresh token (ψ, 1, 0).
				cfg[0].TokB = Token{Pos: psi, Bit: 1, Carry: 0}
			}),
			want: true,
		},
		{
			name: "fresh white token at white border",
			cfg: put(func(cfg []State) {
				// ι(S_1)=1 ⇒ b=1 at u_ψ ⇒ fresh token (ψ, 0, 1).
				cfg[p.Psi].TokW = Token{Pos: psi, Bit: 0, Carry: 1}
			}),
			want: true,
		},
		{
			name: "black token with wrong bit",
			cfg: put(func(cfg []State) {
				cfg[0].TokB = Token{Pos: psi, Bit: 0, Carry: 0}
			}),
			want: false,
		},
		{
			name: "black token with wrong carry",
			cfg: put(func(cfg []State) {
				cfg[0].TokB = Token{Pos: psi, Bit: 1, Carry: 1}
			}),
			want: false,
		},
		{
			name: "white token at black border (color mismatch)",
			cfg: put(func(cfg []State) {
				cfg[0].TokW = Token{Pos: psi, Bit: 1, Carry: 0}
			}),
			want: false,
		},
		{
			name: "token in last segment",
			cfg: put(func(cfg []State) {
				cfg[p.N-1].TokB = Token{Pos: 1, Bit: 0, Carry: 0}
			}),
			want: false,
		},
		{
			name: "left-moving token wrapping past the leader",
			cfg: put(func(cfg []State) {
				cfg[1].TokW = Token{Pos: -2, Bit: 0, Carry: 0}
			}),
			want: false,
		},
		{
			name: "mid-flight correct black token",
			cfg: put(func(cfg []State) {
				// Token from S_0 (ι=0, bits 0000): round 0 payload is
				// bit=1, carry=0; after two moves it sits at u_2 with Pos
				// ψ-2 targeting u_ψ.
				cfg[2].TokB = Token{Pos: psi - 2, Bit: 1, Carry: 0}
			}),
			want: true,
		},
		{
			name: "left-moving correct black token",
			cfg: put(func(cfg []State) {
				// Returning toward u_1 (round 0 left target) with the same
				// payload it delivered.
				cfg[3].TokB = Token{Pos: -2, Bit: 1, Carry: 0}
			}),
			want: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := p.IsSafe(tt.cfg); got != tt.want {
				t.Fatalf("IsSafe = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestLeaderHelpers(t *testing.T) {
	cfg := []State{{Leader: true}, {}, {Leader: true}}
	if LeaderCount(cfg) != 2 {
		t.Fatal("LeaderCount broken")
	}
	if LeaderIndex(cfg) != -1 {
		t.Fatal("LeaderIndex must be -1 for two leaders")
	}
	if LeaderIndex(cfg[:2]) != 0 {
		t.Fatal("LeaderIndex broken for unique leader")
	}
	if LeaderIndex([]State{{}, {}}) != -1 {
		t.Fatal("LeaderIndex must be -1 for no leader")
	}
}

func TestNoLeaderAlignedShape(t *testing.T) {
	p := NewParams(16)
	cfg := p.NoLeaderAligned()
	if LeaderCount(cfg) != 0 {
		t.Fatal("NoLeaderAligned has a leader")
	}
	if !p.DistConsistent(cfg) {
		t.Fatal("NoLeaderAligned distances must be consistent when 2ψ | n")
	}
	if p.IsPerfect(cfg) {
		t.Fatal("NoLeaderAligned must not be perfect (Lemma 3.2)")
	}
	for i, s := range cfg {
		if p.Mode(s) != Detect {
			t.Fatalf("agent %d not in detection mode", i)
		}
	}
}

func TestRandomConfigIsValid(t *testing.T) {
	p := NewParams(32)
	rng := xrand.New(9)
	for trial := 0; trial < 50; trial++ {
		for i, s := range p.RandomConfig(rng) {
			if !p.ValidState(s) {
				t.Fatalf("trial %d agent %d: invalid random state %+v", trial, i, s)
			}
		}
	}
}

func TestRandomTokenCoversDomain(t *testing.T) {
	p := NewParams(8) // ψ=3: positions {-2,-1,1,2,3}
	rng := xrand.New(1)
	seen := make(map[Token]bool)
	for i := 0; i < 20000; i++ {
		seen[p.randomToken(rng)] = true
	}
	// ⊥ plus 5 positions × 2 bits × 2 carries = 21 distinct tokens.
	if len(seen) != 21 {
		t.Fatalf("random tokens covered %d values, want 21", len(seen))
	}
	for tok := range seen {
		if !p.validToken(tok) {
			t.Fatalf("random token %v outside domain", tok)
		}
	}
}

func TestFormatRing(t *testing.T) {
	p := NewParams(16)
	out := p.FormatRing(p.PerfectConfig(0, 5))
	if out == "" {
		t.Fatal("empty rendering")
	}
	// The leader's segment and increasing IDs must be visible.
	for _, want := range []string{"id=5", "id=6", "[L at u0]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering lacks %q:\n%s", want, out)
		}
	}
}
