package core

// The "meta word" acceleration of the S_PL tracker: a fixed-layout packing
// of exactly the State fields SafetySpec's masks and residual read. It
// puts the RingTracker in meta mode, so the convergence verdict's hot
// scans (the segment-ID chain, token soundness, war peacefulness) run over
// a flat per-agent []uint64 instead of chasing 40-byte State structs. The
// meta callbacks are a pure re-encoding, pinned equal to their State-level
// counterparts (TestMetaSpecEquivalence).

import (
	"repro/internal/population"
	"repro/internal/war"
)

// Meta word layout: the SafetySpec-relevant projection of a State, at
// fixed shifts (Validate caps ψ at 60, so dist < 120 fits 8 bits and the
// token position field Pos+ψ ∈ [1, 120] fits 7). Clock, hits and signalR
// are deliberately absent — neither the arc mask nor the residual reads
// them.
const (
	metaLeaderBit  = uint64(1) << 0
	metaBBit       = uint64(1) << 1
	metaLastBit    = uint64(1) << 2
	metaWarShift   = 3 // 4 bits, war.Pack layout
	metaDistShift  = 8 // 8 bits
	metaTokBShift  = 16
	metaTokWShift  = 32
	metaTokMask    = uint64(1)<<9 - 1 // 7-bit position, payload bit, carry
	metaTokPosMask = uint64(1)<<7 - 1
)

// metaID projects s onto its meta word.
func (p Params) metaID(s State) uint64 {
	v := war.Pack(s.War)<<metaWarShift | uint64(s.Dist)<<metaDistShift |
		p.metaTok(s.TokB)<<metaTokBShift | p.metaTok(s.TokW)<<metaTokWShift
	if s.Leader {
		v |= metaLeaderBit
	}
	if s.B != 0 {
		v |= metaBBit
	}
	if s.Last {
		v |= metaLastBit
	}
	return v
}

func (p Params) metaTok(t Token) uint64 {
	if t.None() {
		return 0
	}
	return uint64(int(t.Pos)+p.Psi) | uint64(t.Bit)<<7 | uint64(t.Carry)<<8
}

// attachMeta installs the meta-word acceleration callbacks on SafetySpec's
// RingSpec, with the mask bits they read: each is the literal port of its
// State-level counterpart to the meta layout, and the equivalence tests pin
// them bit-for-bit (witnesses included).
func (p Params) attachMeta(spec *population.RingSpec[State]) {
	two := uint16(p.TwoPsi())
	spec.MetaID = p.metaID
	spec.ArcMaskMeta = func(l, r uint64) uint8 {
		var m uint8
		rdist := uint16(r >> metaDistShift & 0xff)
		if r&metaLeaderBit != 0 {
			if rdist != 0 {
				m |= safeArcDist
			}
		} else {
			want := uint16(l>>metaDistShift&0xff) + 1
			if want == two {
				want = 0
			}
			if rdist != want {
				m |= safeArcDist
			}
			if l&metaLastBit != 0 && r&metaLastBit == 0 {
				m |= safeArcLastDrop
			}
		}
		return m
	}
	spec.AgentMaskMeta = func(m uint64) uint8 {
		var b uint8
		if m&metaLeaderBit != 0 {
			b |= safeAgentLeader
		}
		if m&metaLastBit != 0 {
			b |= safeAgentLast
		}
		// war.Pack keeps Bullet in the nibble's low two bits; Live is 2.
		if m>>metaWarShift&3 == uint64(war.Live) {
			b |= safeAgentLiveBullet
		}
		return b
	}
	spec.ResidualMeta = p.metaResidual()
	// The two mask closures above read the leader and last bits, the war
	// bullet (the nibble's low two bits) and the dist byte.
	spec.MaskMetaBits = metaLeaderBit | metaLastBit | 3<<metaWarShift | 0xff<<metaDistShift
}

// metaResidual builds the per-agent-meta residual closure. Each closure
// instance memoizes the segment pair its last failure witnessed (hintK,
// hintJ): when the verdict is re-evaluated at the same head and that pair
// still fails, the O(n) chain walk collapses to an O(ψ) re-check. The hint
// is purely advisory — a stale hint left by another trial costs one wasted
// pair check before the full scan — so every trial a spec instance serves
// stays exact. A hint hit may witness a later failing pair than the full
// scan's first one; both pin genuinely failing checks, which is all the
// witness cache requires (see the ResidualMeta contract).
func (p Params) metaResidual() func(*population.LocalCounts, []uint64) (bool, population.Witness) {
	hintK, hintJ := -1, -1
	return func(c *population.LocalCounts, meta []uint64) (bool, population.Witness) {
		k := c.AgentPos[0]
		if c.Agent[2] > 0 {
			ok, off := war.PeacefulPrefix(meta, k, func(m uint64) war.State {
				return war.Unpack(m >> metaWarShift)
			})
			if !ok {
				return false, population.IntervalWitness(len(meta), k, off, k)
			}
		}
		ok, w, hk, hj := p.safeTailWitnessMeta(meta, k, hintK, hintJ)
		hintK, hintJ = hk, hj
		return ok, w
	}
}

// safeTailWitnessMeta is safeTailWitness over per-agent meta words:
// identical verdict, and identical witnesses except on a hint hit (see
// metaResidual). The chain walk reuses each segment ID as the next pair's
// left ID, halving the segment loads of the reference implementation.
func (p Params) safeTailWitnessMeta(meta []uint64, k, hintK, hintJ int) (bool, population.Witness, int, int) {
	n := len(meta)
	psi := p.Psi
	zeta := p.Zeta()
	mask := (uint64(1) << uint(psi)) - 1

	segID := func(start int) uint64 {
		pos := start % n
		var id uint64
		for t := 0; t < psi; t++ {
			id |= (meta[pos] >> 1 & 1) << uint(t)
			pos++
			if pos == n {
				pos = 0
			}
		}
		return id
	}

	if hintK == k && hintJ >= 0 && hintJ+1 <= zeta-2 {
		a := segID(k + hintJ*psi)
		if b := segID(k + (hintJ+1)*psi); b != (a+1)&mask {
			return false, population.IntervalWitness(n, k+hintJ*psi, 2*psi-1, k), k, hintJ
		}
	}

	if zeta >= 3 {
		a := segID(k)
		for j := 0; j+1 <= zeta-2; j++ {
			b := segID(k + (j+1)*psi)
			if b != (a+1)&mask {
				return false, population.IntervalWitness(n, k+j*psi, 2*psi-1, k), k, j
			}
			a = b
		}
	}

	pos := k
	for i := 0; i < n; i++ {
		v := meta[pos]
		pos++
		if pos == n {
			pos = 0
		}
		if tb := v >> metaTokBShift & metaTokMask; tb&metaTokPosMask != 0 {
			if ok, lo, hi := p.tokenSoundSpanMeta(meta, k, i, tb, 0); !ok {
				return false, population.IntervalWitness(n, k+lo, hi-lo, k), -1, -1
			}
		}
		if tw := v >> metaTokWShift & metaTokMask; tw&metaTokPosMask != 0 {
			if ok, lo, hi := p.tokenSoundSpanMeta(meta, k, i, tw, psi); !ok {
				return false, population.IntervalWitness(n, k+lo, hi-lo, k), -1, -1
			}
		}
	}
	return true, population.Witness{}, -1, -1
}

// tokenSoundSpanMeta is tokenSoundSpan over a meta-encoded token (see
// metaTok): same verdict, same failure span.
func (p Params) tokenSoundSpanMeta(meta []uint64, k, i int, tok uint64, d int) (bool, int, int) {
	n := len(meta)
	psi := p.Psi
	zeta := p.Zeta()
	if i >= psi*(zeta-1) {
		return false, i, i
	}

	pos := int(tok&metaTokPosMask) - psi
	var j, x int
	if pos > 0 {
		target := i + pos
		if target < psi || target >= n {
			return false, i, i
		}
		x = (target - psi) % psi
		j = (target - psi - x) / psi
	} else {
		target := i + pos
		if target < 0 {
			return false, i, i
		}
		off := target % psi
		if off == 0 {
			return false, i, i
		}
		j = target / psi
		x = off - 1
	}
	if j < 0 || j > zeta-2 {
		return false, i, i
	}
	if (j%2 == 0) != (d == 0) {
		return false, i, i
	}

	carryIn := uint8(1)
	at := (k + j*psi) % n
	for tt := 0; tt < x; tt++ {
		if meta[at]&metaBBit == 0 {
			carryIn = 0
			break
		}
		at++
		if at == n {
			at = 0
		}
	}
	bx := uint8(meta[(k+j*psi+x)%n] >> 1 & 1)
	expBit := bx ^ carryIn
	expCarry := carryIn & bx
	if uint8(tok>>7&1) == expBit && uint8(tok>>8&1) == expCarry {
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
