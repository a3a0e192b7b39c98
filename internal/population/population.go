// Package population implements the population protocol model used by the
// paper: a fixed set of anonymous agents, a set of directed arcs describing
// which ordered pairs may interact, and a scheduler that picks one arc per
// step — uniformly random by default, or any ArcScheduler (biased arc
// distributions, periodic eclipses; see internal/sched). Protocols are
// deterministic pairwise transition functions over an arbitrary state type.
//
// The engine is generic over the agent state type so each protocol gets a
// monomorphized, allocation-free simulation loop. Time is measured in steps
// (scheduler picks), exactly as in the paper.
package population

import (
	"fmt"

	"repro/internal/xrand"
)

// Arc is an ordered pair of agent indices: Arc[0] is the initiator (the
// "left" agent in the paper's ring notation) and Arc[1] the responder.
type Arc [2]int32

// Topology is the interaction graph of a population: n agents and the list
// of arcs the scheduler draws from uniformly.
type Topology struct {
	N    int
	Arcs []Arc
}

// DirectedRing returns the topology of the paper's Section 2: agents
// u_0..u_{n-1} with arcs (u_i, u_{i+1 mod n}). Interactions flow left to
// right only.
func DirectedRing(n int) Topology {
	if n < 2 {
		panic(fmt.Sprintf("population: directed ring needs n >= 2, got %d", n))
	}
	arcs := make([]Arc, n)
	for i := 0; i < n; i++ {
		arcs[i] = Arc{int32(i), int32((i + 1) % n)}
	}
	return Topology{N: n, Arcs: arcs}
}

// UndirectedRing returns the topology of Section 5: both (u_i, u_{i+1}) and
// (u_{i+1}, u_i) are arcs, so either endpoint of an edge can initiate.
func UndirectedRing(n int) Topology {
	if n < 3 {
		panic(fmt.Sprintf("population: undirected ring needs n >= 3, got %d", n))
	}
	arcs := make([]Arc, 0, 2*n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		arcs = append(arcs, Arc{int32(i), int32(j)}, Arc{int32(j), int32(i)})
	}
	return Topology{N: n, Arcs: arcs}
}

// Transition computes the post-interaction states of an initiator/responder
// pair from their pre-interaction states. It must be deterministic.
type Transition[S any] func(l, r S) (S, S)

// ArcScheduler is the arc-draw distribution of an engine. The default
// (no scheduler installed) is the uniform-random scheduler on the
// engine's own RNG; installing one replaces the distribution while
// keeping the batched-draw discipline. The contract (implemented by
// internal/sched) is step-indexed and serial: Fill writes arc indices
// for the consecutive steps [step, step+len(out)), consuming the RNG
// serially so batch boundaries never change the stream, and the engine
// clamps batches so no Fill straddles a NextTransition boundary.
// NextTransition returns the smallest step index > step at which the
// distribution changes (math.MaxUint64 if it never does); Phase reports
// the epoch ordinal in effect at step (0 before the first transition)
// and whether that phase is an eclipse (some arcs are dead).
type ArcScheduler interface {
	Fill(rng *xrand.RNG, step uint64, out []int32)
	NextTransition(step uint64) uint64
	Phase(step uint64) (epoch int, eclipsed bool)
}

// Observer is notified after each interaction with the index of a touched
// agent and its states before and after it — after is the state the
// engine wrote, so a stuck agent's after equals its before. It is invoked
// for both participants of every interaction, initiator first.
type Observer[S any] func(agent int, before, after S)

// Engine simulates one execution of a protocol on a topology.
type Engine[S any] struct {
	topo   Topology
	states []S
	step   uint64
	rng    *xrand.RNG
	trans  Transition[S]

	isLeader         func(S) bool
	leaderCount      int
	leaderDirty      bool
	lastLeaderChange uint64
	leaderChanges    uint64

	tracker      *RingTracker[S]
	trackerDirty bool

	// installGen counts bulk/single state installs. The interned execution
	// layer (interned.go) compares it against the generation its per-agent
	// IDs were interned at, so fault bursts installed through
	// SetStates/SetState are re-interned before the next interned step.
	installGen uint64

	leaderHook func(step uint64, leaders int)

	// sched is the installed arc scheduler, nil for the default uniform
	// distribution. refillPending branches on nil once per batch.
	// schedNext caches sched.NextTransition so batch clamping is a
	// subtraction, not an interface call.
	sched     ArcScheduler
	schedNext uint64
	// epochHook, when installed, fires once per scheduler phase
	// transition (an eclipse opening or closing) with the boundary step
	// and the new phase. It consumes no RNG draws.
	epochHook func(step uint64, epoch int, eclipsed bool)

	// frozen marks stuck agents: a frozen agent keeps its pre-interaction
	// state in both the initiator and responder role (its partner still
	// updates normally). nil when no agents are stuck.
	frozen []bool

	// pending holds arc draws made by refillPending's batched RNG calls
	// but not yet executed (a run converged mid-batch). The draw loop
	// consumes them before touching the RNG again, so the arc sequence an
	// engine executes is always the serial Intn stream of its seed —
	// convergence detection never perturbs later draws.
	pendBuf            [arcBatch]int32
	pendStart, pendEnd int

	observer Observer[S]
}

// NewEngine creates an engine over topo with all agents in their zero state.
// Use SetStates or SetState to install an initial configuration.
func NewEngine[S any](topo Topology, trans Transition[S], rng *xrand.RNG) *Engine[S] {
	if rng == nil {
		rng = xrand.New(0)
	}
	return &Engine[S]{
		topo:   topo,
		states: make([]S, topo.N),
		rng:    rng,
		trans:  trans,
	}
}

// N returns the number of agents.
func (e *Engine[S]) N() int { return e.topo.N }

// Steps returns the number of scheduler steps executed so far.
func (e *Engine[S]) Steps() uint64 { return e.step }

// State returns agent i's current state.
func (e *Engine[S]) State(i int) S { return e.states[i] }

// RNG returns the scheduler RNG. A caller that draws from it between runs
// shifts every later arc draw.
func (e *Engine[S]) RNG() *xrand.RNG { return e.rng }

// Snapshot returns a copy of the full configuration.
func (e *Engine[S]) Snapshot() []S {
	out := make([]S, len(e.states))
	copy(out, e.states)
	return out
}

// Config returns the live configuration slice. It is shared with the
// engine: callers must treat it as read-only. Predicates on hot paths use
// this to avoid per-check copies.
func (e *Engine[S]) Config() []S { return e.states }

// SetStates installs a full initial configuration (copied). When leader
// tracking is enabled and the installed configuration changes the leader
// set — a mid-run fault burst flipping leader bits, say — the change is
// recorded at the current step, exactly as an interaction-driven change
// would be; without this, a trial whose faults rewrite the leader set could
// report a pre-fault stabilization step.
func (e *Engine[S]) SetStates(states []S) {
	if len(states) != e.topo.N {
		panic(fmt.Sprintf("population: SetStates got %d states for %d agents", len(states), e.topo.N))
	}
	if e.isLeader != nil {
		for i := range states {
			if e.isLeader(states[i]) != e.isLeader(e.states[i]) {
				e.recordLeaderChange()
				break
			}
		}
	}
	copy(e.states, states)
	e.leaderDirty = true
	e.trackerDirty = e.tracker != nil
	e.installGen++
}

// SetState installs agent i's state. The leader count is not recomputed
// eagerly — installing an n-agent configuration state-by-state is O(n), not
// O(n²) — but lazily on the next read or interaction. As with SetStates, an
// install that changes agent i's leader output is recorded as a leader-set
// change at the current step.
func (e *Engine[S]) SetState(i int, s S) {
	if e.isLeader != nil && e.isLeader(s) != e.isLeader(e.states[i]) {
		e.recordLeaderChange()
	}
	e.states[i] = s
	e.leaderDirty = true
	e.trackerDirty = e.tracker != nil
	e.installGen++
}

func (e *Engine[S]) recordLeaderChange() {
	e.lastLeaderChange = e.step
	e.leaderChanges++
}

// SetObserver installs an observer notified of every touched agent. Pass nil
// to remove it.
func (e *Engine[S]) SetObserver(obs Observer[S]) { e.observer = obs }

// SetTracker installs an incremental convergence tracker, immediately reset
// against the current configuration; pass nil to remove it. While installed
// the tracker is kept in sync by every execution path — Step, Run,
// deterministic schedules and an attached interned layer's loop alike — at
// O(1) cost per interaction, and RunUntilConverged (the engine's and the
// interned layer's) uses it to report exact hitting times. State installs
// through SetStates/SetState reset it lazily before the next interaction.
func (e *Engine[S]) SetTracker(t *RingTracker[S]) {
	e.tracker = t
	e.trackerDirty = false
	if t != nil {
		t.Reset(e.states)
	}
}

// SetLeaderHook installs fn, invoked after every interaction that changes
// the leader set with the post-interaction step count and leader count —
// the O(1) observation point probes sample leader-count trajectories from.
// It fires only for interaction-driven changes (state installs through
// SetStates/SetState are the caller's own doing and are not reported);
// leader tracking must be enabled. Pass nil to remove it. The hook adds no
// work to interactions that leave the leader set unchanged, so the hot
// paths keep their throughput.
func (e *Engine[S]) SetLeaderHook(fn func(step uint64, leaders int)) { e.leaderHook = fn }

// SetScheduler installs an arc scheduler; pass nil to restore the
// default uniform distribution. Draws already buffered from an earlier
// batch still execute first (stream continuity); fresh draws follow the
// new distribution. Schedulers hold per-trial state (alias tables,
// phase caches) and must not be shared across engines running
// concurrently.
func (e *Engine[S]) SetScheduler(s ArcScheduler) {
	e.sched = s
	if s != nil {
		e.schedNext = s.NextTransition(e.step)
	}
}

// SetEpochHook installs fn, invoked at every scheduler phase transition
// (an eclipse window opening or closing) with the boundary step index
// and the phase that begins there. Transitions are detected when the
// draw stream reaches the boundary, so a run that converges short of
// one never fires it. Pass nil to remove. The hook costs nothing on the
// default uniform path, which has no transitions.
func (e *Engine[S]) SetEpochHook(fn func(step uint64, epoch int, eclipsed bool)) {
	e.epochHook = fn
}

// SetFrozen installs the stuck-agent mask: frozen[i] means agent i
// never changes state, in either interaction role (a Byzantine agent
// that answers with its fixed state; its partners still update). Pass
// nil to unfreeze everyone. The mask is the caller's slice — it is not
// copied — and must match the current agent count.
func (e *Engine[S]) SetFrozen(frozen []bool) {
	if frozen != nil && len(frozen) != e.topo.N {
		panic(fmt.Sprintf("population: SetFrozen got %d flags for %d agents", len(frozen), e.topo.N))
	}
	e.frozen = frozen
}

// FrozenAgents returns the installed stuck-agent mask (nil when no
// agents are stuck). Shared with the engine; treat as read-only.
func (e *Engine[S]) FrozenAgents() []bool { return e.frozen }

// Arcs returns the number of arcs in the current topology — the bound
// scheduler draws are taken from.
func (e *Engine[S]) Arcs() int { return len(e.topo.Arcs) }

// SetTopology replaces the interaction graph and configuration in one
// install — the churn path: agents joined or left, the ring was
// re-spliced, and the new configuration has a different length. The
// step counter, RNG position and leader-change history carry over.
// Pending buffered draws are dropped (they index the old arc list), the
// stuck-agent mask and scheduler are cleared (both are sized to the old
// topology — the caller re-installs them against the new one), the
// tracker is reset lazily against the new configuration, and installGen
// is bumped so the interned layer re-interns. A leader-set change is
// recorded when the install changes the leader count.
func (e *Engine[S]) SetTopology(topo Topology, states []S) {
	if len(states) != topo.N {
		panic(fmt.Sprintf("population: SetTopology got %d states for %d agents", len(states), topo.N))
	}
	oldCount := 0
	if e.isLeader != nil {
		if e.leaderDirty {
			e.recountLeaders()
		}
		oldCount = e.leaderCount
	}
	e.topo = topo
	e.states = make([]S, topo.N)
	copy(e.states, states)
	e.pendStart, e.pendEnd = 0, 0
	e.frozen = nil
	e.sched = nil
	e.trackerDirty = e.tracker != nil
	e.installGen++
	if e.isLeader != nil {
		e.recountLeaders()
		if e.leaderCount != oldCount {
			e.recordLeaderChange()
		}
	} else {
		e.leaderDirty = true
	}
}

// TracksLeaders reports whether TrackLeaders has enabled leader-set
// accounting on this engine.
func (e *Engine[S]) TracksLeaders() bool { return e.isLeader != nil }

// TrackLeaders enables leader-set change accounting using the given output
// predicate. It must be called after the initial configuration is installed.
func (e *Engine[S]) TrackLeaders(isLeader func(S) bool) {
	e.isLeader = isLeader
	e.recountLeaders()
}

func (e *Engine[S]) recountLeaders() {
	e.leaderDirty = false
	if e.isLeader == nil {
		return
	}
	n := 0
	for _, s := range e.states {
		if e.isLeader(s) {
			n++
		}
	}
	e.leaderCount = n
}

// LeaderCount returns the current number of agents whose output is leader.
// Valid only after TrackLeaders.
func (e *Engine[S]) LeaderCount() int {
	if e.leaderDirty {
		e.recountLeaders()
	}
	return e.leaderCount
}

// LastLeaderChange returns the step index (1-based: the value of Steps()
// right after the interaction) at which the leader set last changed, or 0 if
// it never changed since tracking began.
func (e *Engine[S]) LastLeaderChange() uint64 { return e.lastLeaderChange }

// LeaderChanges returns how many interactions changed the leader set.
func (e *Engine[S]) LeaderChanges() uint64 { return e.leaderChanges }

// Step executes one scheduler step: the next scheduled arc interacts.
func (e *Engine[S]) Step() { e.run(e.step+1, false) }

// Run executes exactly steps scheduler steps.
func (e *Engine[S]) Run(steps uint64) { e.run(e.step+steps, false) }

// arcBatch is the number of arc indices refillPending draws per RNG call —
// large enough to amortize call overhead, small enough to stay in L1.
const arcBatch = 256

// run is the engine's one draw loop, behind Step, Run and
// RunUntilConverged: it executes scheduler steps until the step count
// reaches limit or, when converge is set, until the installed tracker
// reports convergence, and returns whether it did. Arcs come from the
// pending buffer, refilled in batches of at most the steps still owed, so
// a run never draws past its limit; only a mid-batch convergence leaves
// draws pending, and every later run executes those first. The executed
// arc sequence is therefore always the serial Intn stream of the seed
// (FillIntn draws exactly that stream), whatever mix of entry points
// drives the engine.
func (e *Engine[S]) run(limit uint64, converge bool) bool {
	for e.step < limit {
		if e.pendStart == e.pendEnd {
			e.refillPending(limit - e.step)
		}
		arc := e.topo.Arcs[e.pendBuf[e.pendStart]]
		e.pendStart++
		e.applyPair(arc[0], arc[1])
		if converge && e.tracker.Converged() {
			return true
		}
	}
	return false
}

// schedCross fires the epoch hook for every scheduler phase boundary at
// or before the current step and advances the cached next-transition
// step. Called only on scheduler-installed paths, right before drawing.
func (e *Engine[S]) schedCross() {
	for e.schedNext <= e.step {
		boundary := e.schedNext
		e.schedNext = e.sched.NextTransition(boundary)
		if e.epochHook != nil {
			epoch, eclipsed := e.sched.Phase(boundary)
			e.epochHook(boundary, epoch, eclipsed)
		}
	}
}

// refillPending refills the pending-draw buffer with up to want draws
// for the steps starting at the current step count. With no scheduler
// installed this is the uniform batch — one FillIntn over
// min(want, arcBatch) slots. With one installed, the batch is
// additionally clamped at the scheduler's next phase boundary so a single
// Fill never spans two distributions. want must be at least 1.
func (e *Engine[S]) refillPending(want uint64) {
	batch := uint64(arcBatch)
	if want < batch {
		batch = want
	}
	if e.sched == nil {
		e.rng.FillIntn(len(e.topo.Arcs), e.pendBuf[:batch])
	} else {
		e.schedCross()
		if lim := e.schedNext - e.step; lim < batch {
			batch = lim
		}
		e.sched.Fill(e.rng, e.step, e.pendBuf[:batch])
	}
	e.pendStart, e.pendEnd = 0, int(batch)
}

// ApplyArc forces the interaction on arc k of the topology. It is used by
// deterministic-schedule tests (for example, the Figure 2 trajectory).
func (e *Engine[S]) ApplyArc(k int) {
	arc := e.topo.Arcs[k]
	e.applyPair(arc[0], arc[1])
}

// applyPair executes the interaction on the arc (li, ri): the transition,
// the stuck-agent mask, the step counter, tracker and leader accounting,
// the leader hook, and last the observer, which sees each agent's
// post-freeze state. It is the engine's only per-interaction body: run,
// ApplyArc and the interned layer's generic steps all go through it.
func (e *Engine[S]) applyPair(li, ri int32) {
	if e.leaderDirty {
		e.recountLeaders()
	}
	lb, rb := e.states[li], e.states[ri]
	la, ra := e.trans(lb, rb)
	if e.frozen != nil {
		// Stuck agents keep their pre-state; the partner's update stands.
		if e.frozen[li] {
			la = lb
		}
		if e.frozen[ri] {
			ra = rb
		}
	}
	e.states[li], e.states[ri] = la, ra
	e.step++
	if e.tracker != nil {
		e.syncTracker(li, ri)
	}
	if e.isLeader != nil {
		wl, il := e.isLeader(lb), e.isLeader(la)
		wr, ir := e.isLeader(rb), e.isLeader(ra)
		if wl != il || wr != ir {
			e.leaderCount += btoi(il) - btoi(wl) + btoi(ir) - btoi(wr)
			e.lastLeaderChange = e.step
			e.leaderChanges++
			if e.leaderHook != nil {
				e.leaderHook(e.step, e.leaderCount)
			}
		}
	}
	if e.observer != nil {
		e.observer(int(li), lb, la)
		e.observer(int(ri), rb, ra)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// syncTracker brings the tracker up to date after the interaction on
// (li, ri): a pending bulk install triggers a full reset, otherwise the
// O(1) incremental update runs. Called from applyPair only when a tracker
// is installed.
func (e *Engine[S]) syncTracker(li, ri int32) {
	if e.trackerDirty {
		e.tracker.Reset(e.states)
		e.trackerDirty = false
		return
	}
	e.tracker.Update(li, ri)
}

// RunUntil runs until pred holds over the configuration, checking every
// checkEvery steps (and once before running), or until maxSteps have
// executed in total (counting steps from previous runs). It returns the
// engine step count at which pred was first observed and whether it was.
//
// If pred is a closed predicate (once true, always true — such as
// membership in the paper's S_PL), the returned step overestimates the true
// hitting time by at most checkEvery-1 steps.
func (e *Engine[S]) RunUntil(pred func([]S) bool, checkEvery int, maxSteps uint64) (uint64, bool) {
	if checkEvery < 1 {
		checkEvery = 1
	}
	if pred(e.states) {
		return e.step, true
	}
	for e.step < maxSteps {
		batch := uint64(checkEvery)
		if rem := maxSteps - e.step; rem < batch {
			batch = rem
		}
		e.Run(batch)
		if pred(e.states) {
			return e.step, true
		}
	}
	return e.step, false
}

// RunUntilConverged runs until the installed convergence tracker reports
// convergence, or until maxSteps have executed in total (counting steps
// from previous runs). It returns the engine step count at which the
// tracker first held and whether it did. Unlike RunUntil, the predicate is
// evaluated after every single step through the tracker's O(1) counters,
// so for a closed predicate the returned step is the exact hitting time —
// no checkEvery quantization. The arc sequence executed is identical to
// Run and Step for the same RNG state; on mid-batch convergence the
// remaining pre-drawn arcs stay buffered and are executed first by any
// later Step/Run call, so continued use of the engine (fault loops
// re-running to convergence, say) still follows the serial stream of the
// seed.
//
// It panics if no tracker is installed.
func (e *Engine[S]) RunUntilConverged(maxSteps uint64) (uint64, bool) {
	if e.tracker == nil {
		panic("population: RunUntilConverged without a tracker (call SetTracker)")
	}
	if e.trackerDirty {
		e.tracker.Reset(e.states)
		e.trackerDirty = false
	}
	if e.tracker.Converged() {
		return e.step, true
	}
	ok := e.run(maxSteps, true)
	return e.step, ok
}

// ScheduleSeqR returns the arc indices of the paper's seq_R(i, j) on a
// directed ring: interactions e_i, e_{i+1}, ..., e_{i+j-1}, where e_k is the
// arc (u_k, u_{k+1}).
func ScheduleSeqR(n, i, j int) []int {
	out := make([]int, j)
	for k := 0; k < j; k++ {
		out[k] = mod(i+k, n)
	}
	return out
}

// ScheduleSeqL returns the arc indices of the paper's seq_L(i, j):
// e_{i-1}, e_{i-2}, ..., e_{i-j}.
func ScheduleSeqL(n, i, j int) []int {
	out := make([]int, j)
	for k := 1; k <= j; k++ {
		out[k-1] = mod(i-k, n)
	}
	return out
}

// ApplySchedule forces the given interactions in order.
func (e *Engine[S]) ApplySchedule(arcs []int) {
	for _, k := range arcs {
		e.ApplyArc(k)
	}
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}
