package repro

import (
	"repro/internal/orient"
)

// RingOrientation simulates the paper's Section 5 protocol P_OR on an
// undirected ring: starting from any direction assignment, the agents
// agree on a common orientation within O(n² log n) steps w.h.p. using O(1)
// states, given a two-hop coloring.
type RingOrientation struct {
	// te is the registered protocol's trial wiring. The façade drives its
	// generic engine directly and installs its incremental orientation
	// tracker only for the duration of RunToOriented, so plain Step stays
	// on the raw path.
	te       trialEngine[orient.State]
	maxSteps uint64
}

// NewRingOrientation builds a simulation for an undirected ring of n ≥ 3
// agents with a valid two-hop coloring and adversarial directions,
// strengths and memories.
func NewRingOrientation(n int, opts ...Option) *RingOrientation {
	o := defaultOptions()
	for _, opt := range opts {
		opt.apply(&o)
	}
	p := orientProtocol().(*ringProtocol[orient.State])
	ro := &RingOrientation{te: p.newTrial(Scenario{}, n, o.seed), maxSteps: p.MaxSteps(n)}
	ro.Scramble()
	return ro
}

// N returns the ring size.
func (o *RingOrientation) N() int { return o.te.eng.N() }

// Scramble re-randomizes directions, strengths and memories while keeping
// the coloring — a transient-fault burst for the orientation layer, drawn
// from the scheduler's RNG.
func (o *RingOrientation) Scramble() {
	eng := o.te.eng
	eng.SetStates(orient.InitialConfig(orient.Colors(eng.Config()), eng.RNG().Split()))
}

// Step executes one scheduler step.
func (o *RingOrientation) Step() { o.te.eng.Step() }

// RunToOriented runs until the ring is fully oriented (Definition 5.1
// condition (ii)) and returns the step count and success. Orientation is
// detected through an incremental per-edge tracker, so the returned step
// is the exact hitting time. maxSteps of 0 applies the paper's bound with
// a generous constant.
func (o *RingOrientation) RunToOriented(maxSteps uint64) (uint64, bool) {
	if maxSteps == 0 {
		maxSteps = o.te.eng.Steps() + o.maxSteps
	}
	o.te.eng.SetTracker(o.te.tracker)
	defer o.te.eng.SetTracker(nil)
	return o.te.eng.RunUntilConverged(maxSteps)
}

// Oriented reports whether all agents currently share a direction.
func (o *RingOrientation) Oriented() bool { return orient.Oriented(o.te.eng.Config()) }

// Clockwise reports the agreed direction; meaningful only when Oriented.
func (o *RingOrientation) Clockwise() bool { return orient.Clockwise(o.te.eng.Config()) }

// Steps returns the number of scheduler steps executed so far.
func (o *RingOrientation) Steps() uint64 { return o.te.eng.Steps() }
