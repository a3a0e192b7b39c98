package repro

import (
	"fmt"
	"sync/atomic"

	"repro/internal/angluin"
	"repro/internal/chenchen"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/orient"
	"repro/internal/population"
	"repro/internal/twohop"
	"repro/internal/xrand"
	"repro/internal/yokota"
)

// The built-in protocol catalogue: the paper's two protocols and the four
// Table 1 baselines, each behind the one Protocol contract.
func init() {
	mustRegister("ppl", func() Protocol { return PPL(0, 0) })
	mustRegister("orient", orientProtocol)
	mustRegister("yokota", yokotaProtocol)
	mustRegister("angluin", angluinProtocol)
	mustRegister("fj", fjProtocol)
	mustRegister("chenchen", chenchenProtocol)
}

// initSeedSalt decorrelates the initial-configuration RNG from the
// scheduler RNG of the same trial.
const initSeedSalt = core.InitSeedSalt

// faultSeedSalt decorrelates the fault-injection RNG from both.
const faultSeedSalt = 0xfa_17_5eed

// stuckSeedSalt decorrelates the stuck-agent selection RNG from the
// scheduler, init and fault streams of the same trial.
const stuckSeedSalt = 0x57cc_a6e7

// churnSeedSalt decorrelates the churn-splice RNG likewise.
const churnSeedSalt = 0xc4c4_2a17

// convergenceScanEvery is a test hook: when set to a positive value,
// trialEngine.run bypasses the incremental tracker and judges convergence
// with the scan-era RunUntil at that check cadence. Exactness regression
// tests set it to 1 to compare the tracked hitting times against the
// per-step brute-force scan oracle; it is atomic because trials fan out
// across worker goroutines.
var convergenceScanEvery atomic.Int64

// internedOff is a test hook: when set, trials run on the generic engine
// instead of the interned table-lookup layer. The differential regression
// tests flip it to pin the interned path bit-identical — states, steps,
// leader accounting, hitting times, probe streams — to the generic one.
var internedOff atomic.Bool

// trialEngine bundles the protocol-specific pieces the generic scenario
// runner needs: the engine, an installer that routes configuration changes
// through the protocol's oracle runner (nil for plain engines), a state
// sampler for fault injection, the incremental convergence tracker of the
// hot path, the interned layer attached to the engine (nil for a protocol
// that does not intern), and the equivalent scan predicate (the
// cross-check oracle the convergenceScanEvery hook selects).
type trialEngine[S comparable] struct {
	eng     *population.Engine[S]
	install func([]S)
	corrupt func(rng *xrand.RNG, cur S) S
	tracker *population.RingTracker[S]
	accel   *population.InternedEngine[S]
	pred    func([]S) bool
}

// applySched installs the scenario's arc scheduler and stuck-agent mask
// on a freshly built engine; every newTrial calls it after the initial
// configuration and trackers are in place. A nil or distribution-less
// spec leaves the engine on the default uniform fast path. Stuck agents
// are chosen without replacement from a salt-decorrelated RNG, clamped
// to n-1 so at least one agent stays live.
func applySched[S any](eng *population.Engine[S], sc Scenario, seed uint64) {
	spec := sc.Sched
	if spec == nil {
		return
	}
	if s := spec.compileArcSched(eng.Arcs()); s != nil {
		eng.SetScheduler(s)
	}
	if spec.Stuck > 0 {
		n := eng.N()
		k := spec.Stuck
		if k > n-1 {
			k = n - 1
		}
		rng := xrand.New(seed ^ stuckSeedSalt)
		frozen := make([]bool, n)
		for chosen := 0; chosen < k; {
			if j := rng.Intn(n); !frozen[j] {
				frozen[j] = true
				chosen++
			}
		}
		eng.SetFrozen(frozen)
	}
}

// churnStep re-splices the ring for one churn event: Remove randomly
// chosen agents leave (never shrinking below 3 agents), then Insert
// newcomers join at random positions, each initialized by corrupting its
// clockwise neighbor's state. The stuck-agent mask follows the surviving
// agents; newcomers are never stuck. The new topology installs through
// Engine.SetTopology (bumping installGen, so the interned layer
// re-interns), and the caller re-installs the scenario's scheduler
// against the new arc count. Returns how many agents actually left.
func churnStep[S any](eng *population.Engine[S], rng *xrand.RNG, ev ChurnEvent, corrupt func(*xrand.RNG, S) S) int {
	cfg := eng.Snapshot()
	frozen := eng.FrozenAgents()
	removed := 0
	for i := 0; i < ev.Remove && len(cfg) > 3; i++ {
		j := rng.Intn(len(cfg))
		cfg = append(cfg[:j], cfg[j+1:]...)
		if frozen != nil {
			frozen = append(frozen[:j], frozen[j+1:]...)
		}
		removed++
	}
	for i := 0; i < ev.Insert; i++ {
		j := rng.Intn(len(cfg) + 1)
		s := corrupt(rng, cfg[j%len(cfg)])
		cfg = append(cfg, s)
		copy(cfg[j+1:], cfg[j:])
		cfg[j] = s
		if frozen != nil {
			frozen = append(frozen, false)
			copy(frozen[j+1:], frozen[j:])
			frozen[j] = false
		}
	}
	eng.SetTopology(population.DirectedRing(len(cfg)), cfg)
	if frozen != nil {
		eng.SetFrozen(frozen)
	}
	return removed
}

// checkRingSize rejects the rings a built-in trial cannot run: fewer than
// two agents, or a size the protocol's assumption rules out, which its
// FixSize would change (angluin at a multiple of k, orient below three).
func checkRingSize(p Protocol, n int) error {
	if n < 2 {
		return fmt.Errorf("repro: %s needs a ring of at least 2 agents, got %d", p.Info().Name, n)
	}
	if fixed := p.FixSize(n); fixed != n {
		return fmt.Errorf("repro: %s cannot run a ring of %d agents (FixSize gives %d)", p.Info().Name, n, fixed)
	}
	return nil
}

// rejectChurn is the validation shared by protocols whose construction
// is pinned to a fixed ring size — P_OR's two-hop coloring and the
// oracle-census baselines cannot re-splice mid-run.
func rejectChurn(info ProtocolInfo, sc Scenario) error {
	if sc.Sched.hasChurn() {
		return fmt.Errorf("repro: %s is built for a fixed ring size and does not support churn", info.Name)
	}
	return nil
}

// stepper is what trialEngine.run drives: the interned layer or the
// generic engine.
type stepper interface {
	Run(steps uint64)
	RunUntilConverged(maxSteps uint64) (uint64, bool)
}

// stepper returns the trial's interned execution layer, or the generic
// engine when the protocol does not intern, a test hook forces it or the
// scan-era oracle runs. A layer that has fallen back delegates to the
// generic engine internally.
func (te trialEngine[S]) stepper() stepper {
	if te.accel == nil || internedOff.Load() || convergenceScanEvery.Load() > 0 {
		return te.eng
	}
	return te.accel
}

// run executes one trial under the scenario's fault and churn schedules
// and budget: each event fires at its scheduled step (events past the
// budget never fire; faults hit the pre-splice ring when both land on
// one step), and convergence is judged on the run after the last event —
// the self-stabilization question "does the protocol recover from this
// adversarial history within the budget". The trial runs on the interned
// table-lookup layer when the protocol interns (falling back to the
// generic engine transparently when its capacity cap trips) and judges
// convergence after every step, so Steps is the exact hitting time of the
// protocol's convergence predicate, not a checkEvery-quantized
// overestimate; the interned and generic paths are pinned bit-identical
// by the differential regression tests. Churn splices re-install the
// scenario's scheduler against the new arc count; TrialResult.N stays the
// starting size (the seed-derivation key), with the live count streaming
// through churn events.
//
// A non-nil probe receives the trial's typed event stream (see Probe):
// the initial leader count and every interaction-driven leader-set change
// through the engine's O(1) leader hook, each fault burst and the epoch it
// opens, each churn splice, each scheduler phase transition (eclipse
// windows opening and closing, through the engine's epoch hook), the
// convergence step, and the named tracker channel counts at the end of
// the run phase. name labels the events' protocol. Probing changes
// nothing about the trial itself — the RNG stream, hitting time and
// TrialResult are identical with probe == nil.
func (te trialEngine[S]) run(sc Scenario, n int, seed uint64, maxSteps uint64, name string, probe Probe) TrialResult {
	if probe != nil {
		probe.Begin(name, n, seed)
		if te.eng.TracksLeaders() {
			probe.Observe(TrialEvent{Kind: EventLeaderChange, Step: te.eng.Steps(), Leaders: te.eng.LeaderCount()})
			te.eng.SetLeaderHook(func(step uint64, leaders int) {
				probe.Observe(TrialEvent{Kind: EventLeaderChange, Step: step, Leaders: leaders})
			})
		}
		te.eng.SetEpochHook(func(step uint64, epoch int, eclipsed bool) {
			probe.Observe(TrialEvent{Kind: EventSchedPhase, Step: step, Epoch: epoch, Eclipsed: eclipsed})
		})
		probe.Observe(TrialEvent{Kind: EventEpoch, Step: te.eng.Steps()})
	}
	ru := te.stepper()
	var frng, crng *xrand.RNG
	epoch := 0
	faults := sc.sortedFaults()
	churns := sc.Sched.sortedChurn()
	advance := func(to uint64) {
		if to > te.eng.Steps() {
			ru.Run(to - te.eng.Steps())
		}
	}
	for len(faults) > 0 || len(churns) > 0 {
		doFault := len(faults) > 0 && (len(churns) == 0 || faults[0].AtStep <= churns[0].AtStep)
		var at uint64
		if doFault {
			at = faults[0].AtStep
		} else {
			at = churns[0].AtStep
		}
		if at >= maxSteps {
			break // events past the budget never fire
		}
		advance(at)
		if doFault {
			f := faults[0]
			faults = faults[1:]
			if frng == nil {
				frng = xrand.New(seed ^ faultSeedSalt)
			}
			te.burst(frng, f.Agents)
			if probe != nil {
				epoch++
				ev := TrialEvent{Kind: EventFault, Step: te.eng.Steps(), Agents: f.Agents, Leaders: -1}
				if te.eng.TracksLeaders() {
					ev.Leaders = te.eng.LeaderCount()
				}
				probe.Observe(ev)
				probe.Observe(TrialEvent{Kind: EventEpoch, Step: te.eng.Steps(), Epoch: epoch})
			}
			continue
		}
		ev := churns[0]
		churns = churns[1:]
		if crng == nil {
			crng = xrand.New(seed ^ churnSeedSalt)
		}
		removed := churnStep(te.eng, crng, ev, te.corrupt)
		// SetTopology cleared the scheduler (it was sized to the old arc
		// count); rebuild it against the spliced ring.
		if s := sc.Sched.compileArcSched(te.eng.Arcs()); s != nil {
			te.eng.SetScheduler(s)
		}
		if probe != nil {
			cev := TrialEvent{Kind: EventChurn, Step: te.eng.Steps(), Removed: removed, Inserted: ev.Insert, Live: te.eng.N(), Leaders: -1}
			if te.eng.TracksLeaders() {
				cev.Leaders = te.eng.LeaderCount()
			}
			probe.Observe(cev)
		}
	}
	var steps uint64
	var ok bool
	var sample func(map[string]float64)
	if every := convergenceScanEvery.Load(); every > 0 {
		steps, ok = te.eng.RunUntil(te.pred, int(every), maxSteps)
	} else {
		// The incremental tracker judges convergence after every step, fed
		// by whichever loop runs it: the interned layer's when the protocol
		// interns, the generic engine's otherwise, after a fallback or under
		// internedOff.
		te.eng.SetTracker(te.tracker)
		steps, ok = ru.RunUntilConverged(maxSteps)
		sample = te.tracker.SampleCounts
	}
	res := TrialResult{
		N: n, Seed: seed, Steps: steps,
		Stabilized: te.eng.LastLeaderChange(), Converged: ok,
	}
	if probe != nil {
		if ok {
			ev := TrialEvent{Kind: EventConverged, Step: steps, Leaders: -1}
			if te.eng.TracksLeaders() {
				ev.Leaders = te.eng.LeaderCount()
			}
			probe.Observe(ev)
		}
		if sample != nil {
			counts := make(map[string]float64)
			sample(counts)
			if len(counts) > 0 {
				probe.Observe(TrialEvent{Kind: EventChannels, Step: steps, Counts: counts})
			}
		}
		probe.End(res)
	}
	return res
}

// burst overwrites k agents drawn from rng with corrupted states — one
// transient-fault burst — and installs the result through the
// protocol's oracle runner when it has one.
func (te trialEngine[S]) burst(rng *xrand.RNG, k int) {
	cfg := te.eng.Snapshot()
	for i := 0; i < k; i++ {
		j := rng.Intn(len(cfg))
		cfg[j] = te.corrupt(rng, cfg[j])
	}
	if te.install != nil {
		te.install(cfg)
	} else {
		te.eng.SetStates(cfg)
	}
}

// benchRaw runs exactly steps scheduler steps with no convergence
// judgement at all — the raw transition-loop throughput.
func (te trialEngine[S]) benchRaw(steps uint64) { te.eng.Run(steps) }

// benchTracked runs to convergence through the incremental tracker.
func (te trialEngine[S]) benchTracked(maxSteps uint64) (uint64, bool) {
	te.eng.SetTracker(te.tracker)
	return te.eng.RunUntilConverged(maxSteps)
}

// benchInterned runs to convergence through the interned table-lookup
// layer; the extra result reports whether the run stayed interned (false
// when the capacity cap forced the generic fallback mid-run, and for a
// protocol that does not intern, whose run is the generic tracked one).
func (te trialEngine[S]) benchInterned(maxSteps uint64) (uint64, bool, bool) {
	if te.accel == nil {
		steps, ok := te.benchTracked(maxSteps)
		return steps, ok, false
	}
	te.eng.SetTracker(te.tracker)
	steps, ok := te.accel.RunUntilConverged(maxSteps)
	return steps, ok, te.accel.Interned()
}

// benchFill fills the interned tables along the run's trajectory to
// convergence for a warm replay; a no-op for a protocol that does not
// intern, which has no tables to fill.
func (te trialEngine[S]) benchFill(maxSteps uint64) {
	if te.accel != nil {
		te.eng.SetTracker(te.tracker)
		te.accel.RunUntilConverged(maxSteps)
	}
}

// stepCount returns the scheduler steps executed so far.
func (te trialEngine[S]) stepCount() uint64 { return te.eng.Steps() }

// validateElection is the scenario check shared by the four baselines:
// directed ring only, random starts only (their hand-crafted hard
// instances are not defined), any fault schedule and budget.
func validateElection(info ProtocolInfo, sc Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	if sc.Topology != TopologyDefault && sc.Topology != TopologyDirectedRing {
		return fmt.Errorf("repro: %s runs on a directed ring, not %v", info.Name, sc.Topology)
	}
	if sc.Init != InitRandom {
		return fmt.Errorf("repro: %s supports the random init class only, not %v", info.Name, sc.Init)
	}
	return nil
}

// validateFixedElection is validateElection for the oracle-census
// baselines, which cannot re-splice mid-run either.
func validateFixedElection(info ProtocolInfo, sc Scenario) error {
	if err := validateElection(info, sc); err != nil {
		return err
	}
	return rejectChurn(info, sc)
}

// ringProtocol is the one adapter between a protocol package and the
// Protocol contract. Its fields are the protocol's descriptor; its
// methods are the only copy of the trial and bench entry paths.
// Adding a protocol means one descriptor plus one mustRegister line.
type ringProtocol[S comparable] struct {
	info     ProtocolInfo
	states   func(n int) uint64
	fixSize  func(n int) int // nil: every size is admissible
	maxSteps func(n int) uint64
	validate func(info ProtocolInfo, sc Scenario) error
	// tables builds an empty interned table set for rings of n agents.
	// Every trial builds its own with the zero opts, whose cap is the ID
	// width; opts exists so a test can trip the capacity fallback inside a
	// real trial. Nil for a protocol whose state pairs rarely repeat: its
	// trials run on the generic engine from step 0.
	tables func(n int, opts population.InternOptions) *population.Tables[S]
	// trial wires one unrun trial engine over tab: initial configuration,
	// leader tracking, the scenario's scheduler and the interned layer
	// (none when tab is nil).
	trial func(sc Scenario, n int, seed uint64, tab *population.Tables[S]) trialEngine[S]
}

func (p *ringProtocol[S]) Info() ProtocolInfo { return p.info }

func (p *ringProtocol[S]) States(n int) uint64 { return p.states(n) }

func (p *ringProtocol[S]) FixSize(n int) int {
	if p.fixSize == nil {
		return n
	}
	return p.fixSize(n)
}

func (p *ringProtocol[S]) MaxSteps(n int) uint64 { return p.maxSteps(n) }

func (p *ringProtocol[S]) Validate(sc Scenario) error { return p.validate(p.info, sc) }

// newTables builds one trial's table set, or nil when the protocol does
// not intern.
func (p *ringProtocol[S]) newTables(n int) *population.Tables[S] {
	if p.tables == nil {
		return nil
	}
	return p.tables(n, population.InternOptions{})
}

// newTrial wires one trial engine over a table set of its own.
func (p *ringProtocol[S]) newTrial(sc Scenario, n int, seed uint64) trialEngine[S] {
	return p.trial(sc, n, seed, p.newTables(n))
}

func (p *ringProtocol[S]) Trial(sc Scenario, n int, seed uint64) (TrialResult, error) {
	return p.ProbedTrial(sc, n, seed, nil)
}

// ProbedTrial implements ProbedProtocol: Trial with the typed event
// stream attached.
func (p *ringProtocol[S]) ProbedTrial(sc Scenario, n int, seed uint64, probe Probe) (TrialResult, error) {
	res, _, err := p.observedTrial(sc, n, seed, probe, nil)
	return res, err
}

// observedTrial is the one trial body behind ProbedTrial and ObserveTrial:
// it wires the trial, installs a non-nil observe as the engine observer,
// runs the trial and returns its result and final configuration. An
// observer makes the interned layer decline, so it sees every interaction
// of the generic run, which the differential suites pin bit-identical to
// the interned one. Protocols whose engine observer maintains an oracle
// census (those with an install hook) refuse a second observer.
func (p *ringProtocol[S]) observedTrial(sc Scenario, n int, seed uint64, probe Probe, observe population.Observer[S]) (TrialResult, []S, error) {
	if err := p.Validate(sc); err != nil {
		return TrialResult{}, nil, err
	}
	if err := checkRingSize(p, n); err != nil {
		return TrialResult{}, nil, err
	}
	te := p.newTrial(sc, n, seed)
	if observe != nil {
		if te.install != nil {
			return TrialResult{}, nil, fmt.Errorf("repro: %s keeps its oracle census in the engine observer and cannot take another", p.info.Name)
		}
		te.eng.SetObserver(observe)
	}
	res := te.run(sc, n, seed, sc.MaxSteps(p, n), p.info.Name, probe)
	return res, te.eng.Config(), nil
}

// ObserveTrial runs one trial of a built-in protocol whose agents hold
// states of type S, exactly as ProbeTrial would — same seeds, RNG stream,
// TrialResult and probe events — while calling observe (when non-nil)
// for both agents of every interaction with their states before and
// after it. It returns the trial's final configuration, whose length is
// the live agent count after any churn. It fails when p is not a
// built-in protocol over S, and when observe is set for fj or chenchen,
// whose engine observer maintains their oracle census.
func ObserveTrial[S comparable](p Protocol, sc Scenario, n int, seed uint64, probe Probe, observe func(agent int, before, after S)) (TrialResult, []S, error) {
	rp, ok := p.(*ringProtocol[S])
	if !ok {
		return TrialResult{}, nil, fmt.Errorf("repro: %s is not a built-in protocol over %T states", p.Info().Name, *new(S))
	}
	return rp.observedTrial(sc, n, seed, probe, observe)
}

// newBench builds a fully wired, unrun trial engine for RunBenchmark to
// time.
func (p *ringProtocol[S]) newBench(sc Scenario, n int, seed uint64) (benchRunner, error) {
	if err := p.Validate(sc); err != nil {
		return nil, err
	}
	return p.newTrial(sc, n, seed), nil
}

// newBenchPair builds two trial engines for the same cell and seed over
// one shared table set, the only place two engines share one, so
// RunBenchmark can fill the tables with an untimed run and then time the
// identical trajectory through them warm.
func (p *ringProtocol[S]) newBenchPair(sc Scenario, n int, seed uint64) (warm, timed benchRunner, err error) {
	if err := p.Validate(sc); err != nil {
		return nil, nil, err
	}
	tab := p.newTables(n)
	return p.trial(sc, n, seed, tab), p.trial(sc, n, seed, tab), nil
}

// PPL returns the paper's protocol P_PL with the given ψ slack and κ_max
// multiplier c1 (κ_max = c1·ψ). Zero c1 selects the default multiplier;
// the paper allows any O(1) slack. PPL(0, 0) is the registered "ppl"
// protocol.
func PPL(slack, c1 int) Protocol {
	if c1 <= 0 {
		c1 = core.DefaultC1
	}
	params := func(n int) core.Params { return core.NewParamsSlack(n, slack, c1) }
	return &ringProtocol[core.State]{
		info: ProtocolInfo{
			Name:        "P_PL (this work)",
			Assumption:  "knowledge ψ = ⌈log n⌉+O(1)",
			PaperTime:   "O(n² log n)",
			PaperStates: "polylog(n)",
		},
		states: func(n int) uint64 { return params(n).StateCount() },
		maxSteps: func(n int) uint64 {
			return 800 * uint64(n) * uint64(n) * uint64(params(n).Psi)
		},
		validate: func(_ ProtocolInfo, sc Scenario) error {
			if err := sc.Validate(); err != nil {
				return err
			}
			if sc.Topology != TopologyDefault && sc.Topology != TopologyDirectedRing {
				return fmt.Errorf("repro: P_PL runs on a directed ring, not %v", sc.Topology)
			}
			return nil
		},
		// No tables: a P_PL trial visits ~200·n distinct states, most of
		// them once, so pair memoization has nothing to reuse and every
		// trial runs on the generic engine.
		trial: func(sc Scenario, n int, seed uint64, _ *population.Tables[core.State]) trialEngine[core.State] {
			par := params(n)
			pr := core.New(par)
			eng := population.NewEngine(population.DirectedRing(n), pr.Step, xrand.New(seed))
			eng.SetStates(par.InitConfig(sc.Init.String(), seed))
			eng.TrackLeaders(core.IsLeader)
			applySched(eng, sc, seed)
			return trialEngine[core.State]{
				eng:     eng,
				corrupt: func(rng *xrand.RNG, _ core.State) core.State { return par.RandomState(rng) },
				tracker: population.NewRingTracker(par.SafetySpec()),
				pred:    func(cfg []core.State) bool { return par.IsSafe(cfg) },
			}
		},
	}
}

// orientProtocol is the paper's Section 5 orientation protocol P_OR.
func orientProtocol() Protocol {
	return &ringProtocol[orient.State]{
		info: ProtocolInfo{
			Name:        "P_OR (Section 5)",
			Assumption:  "two-hop coloring",
			PaperTime:   "O(n² log n)",
			PaperStates: "O(1)",
		},
		states: func(n int) uint64 { return orient.StateCount(twohop.MinColors(n)) },
		fixSize: func(n int) int {
			if n < 3 {
				return 3
			}
			return n
		},
		maxSteps: func(n int) uint64 { return 4000 * uint64(n) * uint64(n) },
		validate: func(info ProtocolInfo, sc Scenario) error {
			if err := sc.Validate(); err != nil {
				return err
			}
			if sc.Topology != TopologyDefault && sc.Topology != TopologyUndirectedRing {
				return fmt.Errorf("repro: P_OR runs on an undirected ring, not %v", sc.Topology)
			}
			if sc.Init != InitRandom {
				return fmt.Errorf("repro: P_OR supports the random init class only, not %v", sc.Init)
			}
			return rejectChurn(info, sc)
		},
		tables: func(_ int, opts population.InternOptions) *population.Tables[orient.State] {
			codec := orient.Codec()
			return population.NewTables(orient.OrientedSpec(), nil, &codec, nil, opts)
		},
		trial: func(sc Scenario, n int, seed uint64, tab *population.Tables[orient.State]) trialEngine[orient.State] {
			colors := twohop.Coloring(n)
			maxColor := 0
			for _, c := range colors {
				if int(c) > maxColor {
					maxColor = int(c)
				}
			}
			pr := orient.New()
			eng := population.NewEngine(population.UndirectedRing(n), pr.Step, xrand.New(seed))
			eng.SetStates(orient.InitialConfig(colors, xrand.New(seed^initSeedSalt)))
			applySched(eng, sc, seed)
			return trialEngine[orient.State]{
				eng: eng,
				// Corruption scrambles the evolving registers but preserves
				// the coloring, which is protocol input, not state.
				corrupt: func(rng *xrand.RNG, cur orient.State) orient.State {
					return orient.State{
						Color:  cur.Color,
						Dir:    uint8(rng.Intn(maxColor + 2)),
						M1:     uint8(rng.Intn(maxColor + 2)),
						M2:     uint8(rng.Intn(maxColor + 2)),
						Strong: rng.Bool(),
					}
				},
				tracker: population.NewRingTracker(orient.OrientedSpec()),
				accel:   population.AttachInterned(eng, tab, nil),
				pred:    orient.Oriented,
			}
		},
	}
}

// yokotaProtocol is the [28] baseline with knowledge N = 2n.
func yokotaProtocol() Protocol {
	return &ringProtocol[yokota.State]{
		info: ProtocolInfo{
			Name:        "[28] Yokota et al.",
			Assumption:  "knowledge N = n+O(n)",
			PaperTime:   "Θ(n²)",
			PaperStates: "O(n)",
		},
		states:   func(n int) uint64 { return yokota.New(2 * n).StateCount() },
		maxSteps: func(n int) uint64 { return 800 * uint64(n) * uint64(n) },
		validate: validateElection,
		tables: func(n int, opts population.InternOptions) *population.Tables[yokota.State] {
			pr := yokota.New(2 * n)
			codec := pr.Codec()
			return population.NewTables(pr.StableSpec(), yokota.IsLeader, &codec, nil, opts)
		},
		trial: func(sc Scenario, n int, seed uint64, tab *population.Tables[yokota.State]) trialEngine[yokota.State] {
			pr := yokota.New(2 * n)
			eng := population.NewEngine(population.DirectedRing(n), pr.Step, xrand.New(seed))
			eng.SetStates(pr.RandomConfig(xrand.New(seed^initSeedSalt), n))
			eng.TrackLeaders(yokota.IsLeader)
			applySched(eng, sc, seed)
			return trialEngine[yokota.State]{
				eng:     eng,
				corrupt: func(rng *xrand.RNG, _ yokota.State) yokota.State { return pr.RandomState(rng) },
				tracker: population.NewRingTracker(pr.StableSpec()),
				accel:   population.AttachInterned(eng, tab, nil),
				pred:    pr.Stable,
			}
		},
	}
}

// angluinProtocol is the [5]-style mod-k baseline with k = 2; requested
// even sizes are bumped to the next odd size.
func angluinProtocol() Protocol {
	return &ringProtocol[angluin.State]{
		info: ProtocolInfo{
			Name:        "[5] Angluin et al.",
			Assumption:  "n not multiple of k=2",
			PaperTime:   "Θ(n³)",
			PaperStates: "O(1)",
		},
		states: func(int) uint64 { return angluin.New(2).StateCount() },
		fixSize: func(n int) int {
			if n%2 == 0 {
				return n + 1
			}
			return n
		},
		maxSteps: func(n int) uint64 { return 400 * uint64(n) * uint64(n) * uint64(n) },
		validate: validateElection,
		tables: func(_ int, opts population.InternOptions) *population.Tables[angluin.State] {
			codec := angluin.Codec()
			return population.NewTables(angluin.New(2).StableSpec(), angluin.IsLeader, &codec, nil, opts)
		},
		trial: func(sc Scenario, n int, seed uint64, tab *population.Tables[angluin.State]) trialEngine[angluin.State] {
			pr := angluin.New(2)
			eng := population.NewEngine(population.DirectedRing(n), pr.Step, xrand.New(seed))
			eng.SetStates(pr.RandomConfig(xrand.New(seed^initSeedSalt), n))
			eng.TrackLeaders(angluin.IsLeader)
			applySched(eng, sc, seed)
			return trialEngine[angluin.State]{
				eng:     eng,
				corrupt: func(rng *xrand.RNG, _ angluin.State) angluin.State { return pr.RandomState(rng) },
				tracker: population.NewRingTracker(pr.StableSpec()),
				accel:   population.AttachInterned(eng, tab, nil),
				pred:    pr.Stable,
			}
		},
	}
}

// fjProtocol is the [15]-style oracle baseline.
func fjProtocol() Protocol {
	return &ringProtocol[fj.State]{
		info: ProtocolInfo{
			Name:        "[15] Fischer–Jiang",
			Assumption:  "oracle Ω?",
			PaperTime:   "Θ(n³)",
			PaperStates: "O(1)",
		},
		states:   func(int) uint64 { return fj.New().StateCount() },
		maxSteps: func(n int) uint64 { return 400 * uint64(n) * uint64(n) * uint64(n) },
		validate: validateFixedElection,
		tables: func(_ int, opts population.InternOptions) *population.Tables[fj.State] {
			codec := fj.Codec()
			// Tables only read the env's shape (Keys, the pure Delta); any
			// runner's EnvSpec supplies them.
			env := fj.NewRunner(3, xrand.New(1)).InternEnv()
			return population.NewTables(fj.New().StableSpec(), fj.IsLeader, &codec, env, opts)
		},
		trial: func(sc Scenario, n int, seed uint64, tab *population.Tables[fj.State]) trialEngine[fj.State] {
			ru := fj.NewRunner(n, xrand.New(seed))
			ru.SetStates(fj.New().RandomConfig(xrand.New(seed^initSeedSalt), n))
			applySched(ru.Engine(), sc, seed)
			return trialEngine[fj.State]{
				eng:     ru.Engine(),
				install: ru.SetStates, // keep the oracle census in sync
				corrupt: func(rng *xrand.RNG, _ fj.State) fj.State { return fj.New().RandomState(rng) },
				tracker: population.NewRingTracker(fj.New().StableSpec()),
				accel:   population.AttachInterned(ru.Engine(), tab, ru.InternEnv()),
				pred:    fj.Stable,
			}
		},
	}
}

// chenchenProtocol is the [11]-style baseline. The reconstruction
// serializes detection attempts with a flag-census oracle (see
// internal/chenchen), so its measured time class is not the original's
// super-exponential bound; run it at small n only.
func chenchenProtocol() Protocol {
	return &ringProtocol[chenchen.State]{
		info: ProtocolInfo{
			Name:        "[11] Chen–Chen",
			Assumption:  "none (reconstruction: census oracle)",
			PaperTime:   "exponential",
			PaperStates: "O(1)",
		},
		states:   func(int) uint64 { return chenchen.New().StateCount() },
		maxSteps: func(n int) uint64 { return 2000 * uint64(n) * uint64(n) * uint64(n) },
		validate: validateFixedElection,
		tables: func(_ int, opts population.InternOptions) *population.Tables[chenchen.State] {
			codec := chenchen.Codec()
			env := chenchen.NewRunner(3, xrand.New(1)).InternEnv()
			return population.NewTables(chenchen.New().StableSpec(), chenchen.IsLeader, &codec, env, opts)
		},
		trial: func(sc Scenario, n int, seed uint64, tab *population.Tables[chenchen.State]) trialEngine[chenchen.State] {
			ru := chenchen.NewRunner(n, xrand.New(seed))
			ru.SetStates(chenchen.New().RandomConfig(xrand.New(seed^initSeedSalt), n))
			applySched(ru.Engine(), sc, seed)
			return trialEngine[chenchen.State]{
				eng:     ru.Engine(),
				install: ru.SetStates, // keep the flag census in sync
				corrupt: func(rng *xrand.RNG, _ chenchen.State) chenchen.State { return chenchen.New().RandomState(rng) },
				tracker: population.NewRingTracker(chenchen.New().StableSpec()),
				accel:   population.AttachInterned(ru.Engine(), tab, ru.InternEnv()),
				pred:    chenchen.Stable,
			}
		},
	}
}
