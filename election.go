package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/xrand"
)

// Option configures a RingElection or RingOrientation.
type Option interface {
	apply(*options)
}

type options struct {
	seed  uint64
	slack int
	c1    int
}

func defaultOptions() options {
	return options{c1: core.DefaultC1}
}

type seedOption uint64

func (o seedOption) apply(opts *options) { opts.seed = uint64(o) }

// WithSeed fixes the scheduler's random seed, making the run reproducible.
func WithSeed(seed uint64) Option { return seedOption(seed) }

type slackOption int

func (o slackOption) apply(opts *options) { opts.slack = int(o) }

// WithSlack adds slack to the knowledge ψ = ⌈log₂ n⌉ + slack. The paper
// allows any O(1) slack; more slack costs states, never correctness.
func WithSlack(slack int) Option { return slackOption(slack) }

type c1Option int

func (o c1Option) apply(opts *options) { opts.c1 = int(o) }

// WithC1 sets the κ_max multiplier (κ_max = c1·ψ). The paper's analysis
// uses c1 ≥ 32; smaller values remain self-stabilizing but weaken the
// w.h.p. constants (see the E10 section of cmd/sweep).
func WithC1(c1 int) Option { return c1Option(c1) }

// RingElection simulates the paper's protocol P_PL on a directed ring of n
// anonymous agents under the uniformly random scheduler.
type RingElection struct {
	params core.Params
	// te is the registered protocol's trial wiring. The façade drives its
	// generic engine directly and installs its incremental S_PL tracker
	// only for the duration of RunToSafe, so plain Run/Step stay on the
	// raw hot path.
	te       trialEngine[core.State]
	maxSteps uint64
}

// NewRingElection builds a simulation for a ring of n ≥ 2 agents, starting
// from the all-zero configuration (a leaderless ring). Use InitRandom,
// InitPerfect or InjectFaults to choose the initial configuration.
func NewRingElection(n int, opts ...Option) *RingElection {
	o := defaultOptions()
	for _, opt := range opts {
		opt.apply(&o)
	}
	params := core.NewParamsSlack(n, o.slack, o.c1)
	p := PPL(o.slack, o.c1).(*ringProtocol[core.State])
	te := p.newTrial(Scenario{}, n, o.seed)
	te.eng.SetStates(make([]core.State, n))
	return &RingElection{params: params, te: te, maxSteps: p.MaxSteps(n)}
}

// N returns the ring size.
func (e *RingElection) N() int { return e.params.N }

// Psi returns the knowledge ψ in use.
func (e *RingElection) Psi() int { return e.params.Psi }

// StatesPerAgent returns the exact size of the agent state space |Q|,
// which is polylog(n).
func (e *RingElection) StatesPerAgent() uint64 { return e.params.StateCount() }

// InitRandom installs an adversarial initial configuration: every agent's
// state drawn uniformly from the full state space.
func (e *RingElection) InitRandom(seed uint64) {
	e.te.eng.SetStates(e.params.RandomConfig(xrand.New(seed)))
}

// InitPerfect installs a safe configuration with the leader at the given
// index — the converged steady state.
func (e *RingElection) InitPerfect(leaderAt int) {
	e.te.eng.SetStates(e.params.PerfectConfig(leaderAt, 0))
}

// InitNoLeader installs the hardest detection instance: a leaderless ring
// whose distance labels are fully consistent, so only the token comparison
// machinery can expose the absence of a leader.
func (e *RingElection) InitNoLeader() {
	e.te.eng.SetStates(e.params.NoLeaderAligned())
}

// InjectFaults overwrites k randomly chosen agents with uniformly random
// states — a transient-fault burst drawn from the scheduler's RNG. The
// protocol recovers because it is self-stabilizing.
func (e *RingElection) InjectFaults(k int) { e.te.burst(e.te.eng.RNG(), k) }

// Step executes one scheduler step (one pairwise interaction).
func (e *RingElection) Step() { e.te.eng.Step() }

// Run executes the given number of scheduler steps.
func (e *RingElection) Run(steps uint64) { e.te.eng.Run(steps) }

// RunToSafe runs until the configuration enters the closed safe set S_PL
// of the paper (Definition 4.6) and returns the total step count and
// whether it was reached. Safety is detected through an incremental
// tracker updated in O(1) per interaction, so the returned step is the
// exact hitting time of S_PL — not an overestimate quantized to a
// periodic scan. maxSteps of 0 applies the paper's w.h.p. bound with a
// generous constant.
func (e *RingElection) RunToSafe(maxSteps uint64) (uint64, bool) {
	if maxSteps == 0 {
		maxSteps = e.te.eng.Steps() + e.maxSteps
	}
	e.te.eng.SetTracker(e.te.tracker)
	defer e.te.eng.SetTracker(nil)
	return e.te.eng.RunUntilConverged(maxSteps)
}

// Steps returns the number of scheduler steps executed so far.
func (e *RingElection) Steps() uint64 { return e.te.eng.Steps() }

// Leader returns the index of the unique leader, if exactly one agent
// currently outputs L.
func (e *RingElection) Leader() (int, bool) {
	idx := core.LeaderIndex(e.te.eng.Config())
	return idx, idx >= 0
}

// LeaderCount returns the number of agents currently outputting L.
func (e *RingElection) LeaderCount() int { return e.te.eng.LeaderCount() }

// Safe reports whether the current configuration is in S_PL: exactly one
// leader, and the embedded distance/segment-ID structure proves no new
// leader will ever be created and the current one never killed.
func (e *RingElection) Safe() bool { return e.params.IsSafe(e.te.eng.Config()) }

// LastOutputChange returns the step at which the set of leaders last
// changed (0 if never) — the output stabilization time once a run has been
// certified safe.
func (e *RingElection) LastOutputChange() uint64 { return e.te.eng.LastLeaderChange() }

// Describe renders the current configuration as a Figure 1 style segment
// diagram.
func (e *RingElection) Describe() string {
	return fmt.Sprintf("ring n=%d ψ=%d κ_max=%d |Q|=%d\n%s",
		e.params.N, e.params.Psi, e.params.KappaMax, e.params.StateCount(),
		e.params.FormatRing(e.te.eng.Config()))
}
