package core

import (
	"repro/internal/population"
	"repro/internal/war"
)

// Condition channels of SafetySpec (see LocalCounts): arc channels count
// violations, agent channels count feature occurrences.
const (
	// safeArcDist marks an arc violating condition (1) of Section 3.1 in
	// its leader-anchored form: a leader responder must have dist 0, a
	// follower responder its initiator's dist plus one mod 2ψ.
	safeArcDist = 1 << iota
	// safeArcLastDrop marks an arc where the last-segment flag drops
	// without reaching a leader: l.last ∧ ¬r.last ∧ ¬r.leader. In C_DL the
	// last-flag block must end exactly at the leader.
	safeArcLastDrop
)

const (
	safeAgentLeader = 1 << iota
	safeAgentLast
	safeAgentLiveBullet
)

// LeaderCount returns the number of agents outputting L.
func LeaderCount(cfg []State) int {
	n := 0
	for _, s := range cfg {
		if s.Leader {
			n++
		}
	}
	return n
}

// LeaderIndex returns the index of the unique leader, or -1 when the number
// of leaders differs from one.
func LeaderIndex(cfg []State) int {
	idx := -1
	for i, s := range cfg {
		if s.Leader {
			if idx >= 0 {
				return -1
			}
			idx = i
		}
	}
	return idx
}

// DistConsistent reports whether condition (1) of Section 3.1 holds: every
// leader has dist 0 and every follower's dist is its left neighbor's plus
// one, modulo 2ψ.
func (p Params) DistConsistent(cfg []State) bool {
	n := len(cfg)
	two := uint16(p.TwoPsi())
	for i := 0; i < n; i++ {
		want := uint16(0)
		if !cfg[i].Leader {
			want = cfg[(i-1+n)%n].Dist + 1
			if want == two {
				want = 0
			}
		}
		if cfg[i].Dist != want {
			return false
		}
	}
	return true
}

// borders returns the indices of border agents (dist ∈ {0, ψ}) in ring
// order.
func (p Params) borders(cfg []State) []int {
	var out []int
	for i, s := range cfg {
		if int(s.Dist) == 0 || int(s.Dist) == p.Psi {
			out = append(out, i)
		}
	}
	return out
}

// segmentID returns ι(S) for the segment starting at agent `start` (in
// [0, n)) with the given length: the little-endian integer over the agents'
// b bits. The walk wraps past agent n−1 without a per-bit modulo: the
// generic engine's P_PL residual calls it once per segment.
func segmentID(cfg []State, start, length int) uint64 {
	var id uint64
	i := start
	for t := 0; t < length; t++ {
		id |= uint64(cfg[i].B) << uint(t)
		if i++; i == len(cfg) {
			i = 0
		}
	}
	return id
}

// IsPerfect reports whether the configuration is perfect (Section 3.1):
// condition (1) holds everywhere and every segment's ID is its
// predecessor's plus one mod 2^ψ, except segments that begin or end at a
// leader.
func (p Params) IsPerfect(cfg []State) bool {
	if !p.DistConsistent(cfg) {
		return false
	}
	bs := p.borders(cfg)
	if len(bs) < 2 {
		// At most one segment; condition (2) constrains nothing.
		return true
	}
	n := len(cfg)
	mask := (uint64(1) << uint(p.Psi)) - 1
	m := len(bs)
	ids := make([]uint64, m)
	for j := 0; j < m; j++ {
		length := (bs[(j+1)%m] - bs[j] + n) % n
		if length == 0 {
			length = n
		}
		ids[j] = segmentID(cfg, bs[j], length)
	}
	for j := 0; j < m; j++ {
		prev := (j - 1 + m) % m
		if cfg[bs[j]].Leader || cfg[bs[(j+1)%m]].Leader {
			continue // the first and last segments are exempt
		}
		if ids[j] != (ids[prev]+1)&mask {
			return false
		}
	}
	return true
}

// InCPB reports membership in C_PB: at least one leader and every live
// bullet peaceful (Section 4.1). C_PB is closed and executions inside it
// never lose their last leader.
func (p Params) InCPB(cfg []State) bool {
	leaders := make([]bool, len(cfg))
	states := make([]war.State, len(cfg))
	for i, s := range cfg {
		leaders[i] = s.Leader
		states[i] = s.War
	}
	return war.AllLiveBulletsPeaceful(leaders, states)
}

// InCDL reports membership in C_DL: C_PB with exactly one leader and dist
// and last exactly computed with respect to it.
func (p Params) InCDL(cfg []State) bool {
	k := LeaderIndex(cfg)
	if k < 0 || !p.InCPB(cfg) {
		return false
	}
	n := len(cfg)
	two := p.TwoPsi()
	lastFrom := p.Psi * (p.Zeta() - 1)
	for i := 0; i < n; i++ {
		v := cfg[(k+i)%n]
		if int(v.Dist) != i%two {
			return false
		}
		if v.Last != (i >= lastFrom) {
			return false
		}
	}
	return true
}

// IsSafe reports membership in S_PL (Definition 4.6): C_DL, consecutive
// segment IDs ι(S_{i+1}) = ι(S_i)+1 mod 2^ψ for i ∈ [0, ζ−3], and every
// token valid and correct. S_PL is closed and every configuration in it is
// safe (Lemma 4.7), so the first observation of IsSafe certifies
// convergence.
func (p Params) IsSafe(cfg []State) bool {
	if !p.InCDL(cfg) {
		return false
	}
	return p.safeTail(cfg, LeaderIndex(cfg))
}

// safeTail checks the non-local remainder of S_PL beyond C_DL — the
// segment-ID chain and token soundness — given a configuration whose
// unique leader sits at k. It is shared by the scan predicate IsSafe and
// the incremental tracker's residual (SafetySpec).
func (p Params) safeTail(cfg []State, k int) bool {
	ok, _ := p.safeTailWitness(cfg, k)
	return ok
}

// safeTailWitness is safeTail with a failure witness: the returned interval
// covers every agent the first failing check read (a consecutive segment
// pair's b bits, or a token plus its working pair's b bits), anchored at
// the leader. While those agents are untouched and the leader stays put,
// the check — and therefore safeTail — keeps failing, which is what lets
// the incremental tracker skip the O(n) re-scan on almost every step of
// the long construction phase.
func (p Params) safeTailWitness(cfg []State, k int) (bool, population.Witness) {
	n := len(cfg)
	psi := p.Psi
	zeta := p.Zeta()
	mask := (uint64(1) << uint(psi)) - 1

	// Segment IDs of the full segments S_0 .. S_{ζ-2}, leader-relative. A
	// failing pair (S_j, S_{j+1}) read the b bits of the 2ψ agents at
	// leader-relative positions [jψ, (j+2)ψ). Each ID carries over as the
	// next pair's left ID.
	a := segmentID(cfg, k, psi)
	for j := 0; j+1 <= zeta-2; j++ {
		b := segmentID(cfg, (k+(j+1)*psi)%n, psi)
		if b != (a+1)&mask {
			return false, population.IntervalWitness(n, k+j*psi, 2*psi-1, k)
		}
		a = b
	}

	for i := 0; i < n; i++ {
		v := cfg[(k+i)%n]
		if !v.TokB.None() {
			if ok, lo, hi := p.tokenSoundSpan(cfg, k, i, v.TokB, 0); !ok {
				return false, population.IntervalWitness(n, k+lo, hi-lo, k)
			}
		}
		if !v.TokW.None() {
			if ok, lo, hi := p.tokenSoundSpan(cfg, k, i, v.TokW, psi); !ok {
				return false, population.IntervalWitness(n, k+lo, hi-lo, k)
			}
		}
	}
	return true, population.Witness{}
}

// tokenSoundSpan reports whether a token held by the agent at
// leader-relative index i is valid (on its trajectory, Definition 3.3
// corrected), attributable to a working segment pair (S_j, S_{j+1}), and
// correct (Definition 4.3 / Lemma 4.4: its payload matches the sum bit and
// carry of ι(S_j)+1 at its current round). d is 0 for black tokens and ψ
// for white. The configuration must be in C_DL and k must be the leader
// index.
//
// On failure the returned [lo, hi] (leader-relative, inclusive) covers
// every agent the verdict read: always the token holder i, plus — once the
// working pair is determined — the b bits of S_j the payload was checked
// against. Structural failures (off-trajectory, no working pair) depend on
// the token alone, so their span is just {i}.
func (p Params) tokenSoundSpan(cfg []State, k, i int, t Token, d int) (bool, int, int) {
	n := len(cfg)
	psi := p.Psi
	zeta := p.Zeta()
	if i >= psi*(zeta-1) {
		return false, i, i // tokens must not sit in the last segment
	}

	var j, x int // working pair (S_j, S_{j+1}), round x
	if t.Pos > 0 {
		target := i + int(t.Pos)
		if target < psi || target >= n {
			return false, i, i
		}
		x = (target - psi) % psi
		j = (target - psi - x) / psi
	} else {
		target := i + int(t.Pos)
		if target < 0 {
			return false, i, i
		}
		off := target % psi
		if off == 0 {
			return false, i, i // left targets are interior to a segment
		}
		j = target / psi
		x = off - 1
	}
	if j < 0 || j > zeta-2 {
		return false, i, i
	}
	if (j%2 == 0) != (d == 0) {
		return false, i, i // segment color must match token color
	}

	// Expected payload: the round-x sum bit and carry of ι(S_j) + 1, read
	// from the b bits at leader-relative [jψ, jψ+x].
	carryIn := uint8(1)
	for tt := 0; tt < x; tt++ {
		if cfg[(k+j*psi+tt)%n].B == 0 {
			carryIn = 0
			break
		}
	}
	bx := cfg[(k+j*psi+x)%n].B
	expBit := bx ^ carryIn
	expCarry := carryIn & bx
	if t.Bit == expBit && t.Carry == expCarry {
		return true, 0, 0
	}
	lo, hi := j*psi, j*psi+x
	if i < lo {
		lo = i
	}
	if i > hi {
		hi = i
	}
	return false, lo, hi
}

// SafetySpec is the delta-decomposed form of IsSafe for incremental
// convergence tracking (population.RingTracker): the locally checkable
// part of S_PL — exactly one leader, the distance chain of condition (1),
// and the last-segment flag forming one block of the right size ending at
// the leader — is maintained as O(1) per-interaction counters, and only
// when every one of those conditions already holds does the verdict run
// the non-local residual (C_PB war peacefulness, the segment-ID chain and
// token soundness, via safeTail). The verdict equals IsSafe at every
// configuration, so hitting times are exact; before convergence the local
// counters are almost always non-zero, so the hot path never scans.
func (p Params) SafetySpec() population.RingSpec[State] {
	two := uint16(p.TwoPsi())
	expectLast := p.N - p.Psi*(p.Zeta()-1) // size of the last-flag block in C_DL
	if expectLast < 0 {
		expectLast = 0
	}
	spec := population.RingSpec[State]{
		ArcMask: func(l, r State) uint8 {
			var m uint8
			if r.Leader {
				if r.Dist != 0 {
					m |= safeArcDist
				}
			} else {
				want := l.Dist + 1
				if want == two {
					want = 0
				}
				if r.Dist != want {
					m |= safeArcDist
				}
				if l.Last && !r.Last {
					m |= safeArcLastDrop
				}
			}
			return m
		},
		AgentMask: func(s State) uint8 {
			var m uint8
			if s.Leader {
				m |= safeAgentLeader
			}
			if s.Last {
				m |= safeAgentLast
			}
			if s.War.Bullet == war.Live {
				m |= safeAgentLiveBullet
			}
			return m
		},
		Gate: func(c *population.LocalCounts) bool {
			// With exactly one leader, an intact distance chain and a single
			// correctly sized last-flag block ending at the leader, the
			// configuration is in C_DL up to peacefulness.
			return c.Agent[0] == 1 && c.Arc[0] == 0 && c.Arc[1] == 0 && c.Agent[1] == expectLast
		},
		Residual: func(c *population.LocalCounts, cfg []State) (bool, population.Witness) {
			// c.AgentPos[0] names the unique leader in O(1).
			k := c.AgentPos[0]
			if c.Agent[2] > 0 {
				if ok, off := war.PeacefulPrefix(cfg, k, func(s State) war.State { return s.War }); !ok {
					// The peacefulness walk read offsets 0..off from the
					// leader and the leader's shield.
					return false, population.IntervalWitness(len(cfg), k, off, k)
				}
			}
			return p.safeTailWitness(cfg, k)
		},
		Converged: func(c *population.LocalCounts, cfg []State) bool {
			if c.Agent[0] != 1 || c.Arc[0] != 0 || c.Arc[1] != 0 || c.Agent[1] != expectLast {
				return false
			}
			k := c.AgentPos[0]
			if c.Agent[2] > 0 && !war.PeacefulWithLeader(cfg, k, func(s State) war.State { return s.War }) {
				return false
			}
			return p.safeTail(cfg, k)
		},
		ArcNames:   []string{"dist_violations", "lastdrop_violations"},
		AgentNames: []string{"leaders", "last_flags", "live_bullets"},
	}
	// The interned engine's per-ID acceleration: a meta-word projection of
	// the mask- and residual-relevant fields (packed.go), strictly
	// equivalent to the closures above.
	p.attachMeta(&spec)
	return spec
}
