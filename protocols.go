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
	mustRegister("orient", func() Protocol { return orientProtocol{} })
	mustRegister("yokota", func() Protocol { return yokotaProtocol{} })
	mustRegister("angluin", func() Protocol { return angluinProtocol{} })
	mustRegister("fj", func() Protocol { return fjProtocol{} })
	mustRegister("chenchen", func() Protocol { return chenchenProtocol{} })
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
// hot path, and the equivalent scan predicate with its legacy check
// cadence (the cross-check oracle, also used by Bench's "scan" mode).
type trialEngine[S any] struct {
	eng     *population.Engine[S]
	install func([]S)
	corrupt func(rng *xrand.RNG, cur S) S
	tracker population.ConvergenceTracker[S]
	accel   population.Accelerator
	pred    func([]S) bool
	check   int
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

// rejectChurn is the validation shared by protocols whose construction
// is pinned to a fixed ring size — P_OR's two-hop coloring and the
// oracle-census baselines cannot re-splice mid-run.
func rejectChurn(info ProtocolInfo, sc Scenario) error {
	if sc.Sched.hasChurn() {
		return fmt.Errorf("repro: %s is built for a fixed ring size and does not support churn", info.Name)
	}
	return nil
}

// interned returns the trial's interned execution layer, or nil when the
// trial must run generically: the layer is absent, a test hook forces the
// generic engine or the scan-era oracle, or the layer has already fallen
// back (it then delegates internally, so returning it would still be
// correct — this just keeps the dispatch explicit).
func (te trialEngine[S]) interned() population.Accelerator {
	if te.accel == nil || internedOff.Load() || convergenceScanEvery.Load() > 0 {
		return nil
	}
	return te.accel
}

// run executes one trial under the scenario's fault and churn schedules
// and budget: each event fires at its scheduled step (events past the
// budget never fire; faults hit the pre-splice ring when both land on
// one step), and convergence is judged on the run after the last event —
// the self-stabilization question "does the protocol recover from this
// adversarial history within the budget". The trial runs on the interned
// table-lookup layer by default (falling back to the generic engine
// transparently when its guards trip) and judges convergence after every
// step, so Steps is the exact hitting time of the protocol's convergence
// predicate, not a checkEvery-quantized overestimate; the interned and
// generic paths are pinned bit-identical by the differential regression
// tests. Churn splices re-install the scenario's scheduler against the
// new arc count; TrialResult.N stays the starting size (the seed-derivation
// key), with the live count streaming through churn events.
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
	acc := te.interned()
	var frng, crng *xrand.RNG
	epoch := 0
	faults := sc.sortedFaults()
	churns := sc.Sched.sortedChurn()
	advance := func(to uint64) {
		if to > te.eng.Steps() {
			if acc != nil {
				acc.Run(to - te.eng.Steps())
			} else {
				te.eng.Run(to - te.eng.Steps())
			}
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
			cfg := te.eng.Snapshot()
			for i := 0; i < f.Agents; i++ {
				j := frng.Intn(len(cfg))
				cfg[j] = te.corrupt(frng, cfg[j])
			}
			if te.install != nil {
				te.install(cfg)
			} else {
				te.eng.SetStates(cfg)
			}
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
	switch every := convergenceScanEvery.Load(); {
	case every > 0 || (te.tracker == nil && acc == nil):
		check := te.check
		if every > 0 {
			check = int(every)
		}
		steps, ok = te.eng.RunUntil(te.pred, check, maxSteps)
	case acc != nil:
		// The production default: the interned table-lookup layer, which
		// judges convergence after every step through the mirrored tracker
		// (and falls back to the generic tracker transparently if the
		// interner's capacity cap is hit).
		steps, ok = acc.RunUntilConverged(maxSteps)
		sample = acc.SampleCounts
	default:
		te.eng.SetTracker(te.tracker)
		steps, ok = te.eng.RunUntilConverged(maxSteps)
		if cs, sampled := te.tracker.(population.CountSampler); sampled {
			sample = cs.SampleCounts
		}
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
// when the capacity cap forced the generic fallback mid-run).
func (te trialEngine[S]) benchInterned(maxSteps uint64) (uint64, bool, bool) {
	steps, ok := te.accel.RunUntilConverged(maxSteps)
	return steps, ok, te.accel.Interned()
}

// benchPrefill fills the interned tables along the run's trajectory to
// convergence for a warm replay (population.InternedEngine.Prefill).
func (te trialEngine[S]) benchPrefill(maxSteps uint64) {
	te.accel.(interface{ Prefill(uint64) }).Prefill(maxSteps)
}

// benchScan runs to convergence through the scan-era periodic predicate.
func (te trialEngine[S]) benchScan(maxSteps uint64) (uint64, bool) {
	return te.eng.RunUntil(te.pred, te.check, maxSteps)
}

// stepCount returns the scheduler steps executed so far.
func (te trialEngine[S]) stepCount() uint64 { return te.eng.Steps() }

// probedTrial is the one copy of the Trial/ProbedTrial entry path shared
// by every built-in protocol: validate the scenario, build the trial
// engine, run it under the scenario's budget with the probe attached.
func probedTrial[S any](p Protocol, newTrial func(Scenario, int, uint64) trialEngine[S], sc Scenario, n int, seed uint64, probe Probe) (TrialResult, error) {
	if err := p.Validate(sc); err != nil {
		return TrialResult{}, err
	}
	te := newTrial(sc, n, seed)
	return te.run(sc, n, seed, sc.MaxSteps(p, n), p.Info().Name, probe), nil
}

// newBenchFor is the shared newBench body: a fully wired, unrun trial
// engine for RunBenchmark to time.
func newBenchFor[S any](p Protocol, newTrial func(Scenario, int, uint64) trialEngine[S], sc Scenario, n int, seed uint64) (benchRunner, error) {
	if err := p.Validate(sc); err != nil {
		return nil, err
	}
	return newTrial(sc, n, seed), nil
}

// newBenchPairFor is the shared newBenchPair body: two trial engines for
// the same cell and seed attached to one shared table set — the same
// multi-engine table sharing the lane sets use — so RunBenchmark can fill
// the tables with an untimed run and then time the identical trajectory
// through them warm.
func newBenchPairFor[S comparable](p Protocol, sc Scenario, n int, seed uint64,
	newTables func(Scenario, int) *population.Tables[S],
	newTrialT func(Scenario, int, uint64, *population.Tables[S]) trialEngine[S],
) (benchRunner, benchRunner, error) {
	if err := p.Validate(sc); err != nil {
		return nil, nil, err
	}
	tab := newTables(sc, n)
	return newTrialT(sc, n, seed, tab), newTrialT(sc, n, seed, tab), nil
}

// internOpts maps the scenario's interner-capacity knob onto the interned
// layer's options. Scenario.Validate bounds the knob, so every table
// construction site routes through here.
func internOpts(sc Scenario) population.InternOptions {
	return population.InternOptions{MaxStates: sc.MaxStates}
}

// laneable is implemented by the built-in protocols: run a batch of
// same-cell trials as lockstep lanes sharing one warm transition-table
// set (population.LaneSet). Results are bit-identical to calling Trial
// per seed — lanes only amortize table fills — so callers may freely
// switch between the two paths.
type laneable interface {
	LaneTrials(sc Scenario, n int, seeds []uint64) ([]TrialResult, error)
}

// laneTrials is the one copy of the LaneTrials body: build one shared
// table set, attach each seed's trial engine to it as a lane, and drive
// the lane set to convergence. Scenarios whose trials need the event
// machinery of trialEngine.run (faults, churn) and the test hooks that
// force the generic or scan paths run each seed solo instead — the
// results are identical either way, the lanes are purely a throughput
// device. Stuck-agent scenarios stay on the lane path: prepare() routes
// each lane to its generic engine up front and the lane set completes
// them there.
func laneTrials[S comparable](p Protocol, sc Scenario, n int, seeds []uint64,
	newTables func(Scenario, int) *population.Tables[S],
	newTrialT func(Scenario, int, uint64, *population.Tables[S]) trialEngine[S],
) ([]TrialResult, error) {
	if err := p.Validate(sc); err != nil {
		return nil, err
	}
	newTrial := func(sc Scenario, n int, seed uint64) trialEngine[S] {
		return newTrialT(sc, n, seed, newTables(sc, n))
	}
	solo := len(sc.Faults) > 0 || sc.Sched.hasChurn() ||
		internedOff.Load() || convergenceScanEvery.Load() > 0
	if solo || len(seeds) < 2 {
		out := make([]TrialResult, len(seeds))
		for i, seed := range seeds {
			r, err := probedTrial(p, newTrial, sc, n, seed, nil)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}
	maxSteps := sc.MaxSteps(p, n)
	tab := newTables(sc, n)
	tes := make([]trialEngine[S], len(seeds))
	lanes := make([]*population.InternedEngine[S], len(seeds))
	for i, seed := range seeds {
		tes[i] = newTrialT(sc, n, seed, tab)
		lanes[i] = tes[i].accel.(*population.InternedEngine[S])
	}
	steps, conv := population.NewLaneSet(lanes).RunUntilConverged(maxSteps)
	out := make([]TrialResult, len(seeds))
	for i, seed := range seeds {
		out[i] = TrialResult{
			N: n, Seed: seed, Steps: steps[i],
			Stabilized: tes[i].eng.LastLeaderChange(), Converged: conv[i],
		}
	}
	return out, nil
}

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

// pplProtocol is the paper's P_PL with a configurable ψ slack and κ_max
// multiplier.
type pplProtocol struct {
	slack, c1 int
}

// PPL returns the paper's protocol P_PL with the given ψ slack and κ_max
// multiplier c1 (κ_max = c1·ψ). Zero c1 selects the default multiplier;
// the paper allows any O(1) slack. PPL(0, 0) is the registered "ppl"
// protocol.
func PPL(slack, c1 int) Protocol {
	if c1 <= 0 {
		c1 = core.DefaultC1
	}
	return pplProtocol{slack: slack, c1: c1}
}

func (pplProtocol) Info() ProtocolInfo {
	return ProtocolInfo{
		Name:        "P_PL (this work)",
		Assumption:  "knowledge ψ = ⌈log n⌉+O(1)",
		PaperTime:   "O(n² log n)",
		PaperStates: "polylog(n)",
	}
}

func (p pplProtocol) params(n int) core.Params {
	return core.NewParamsSlack(n, p.slack, p.c1)
}

func (p pplProtocol) States(n int) uint64 { return p.params(n).StateCount() }

func (pplProtocol) FixSize(n int) int { return n }

func (p pplProtocol) MaxSteps(n int) uint64 {
	return 800 * uint64(n) * uint64(n) * uint64(p.params(n).Psi)
}

func (p pplProtocol) Validate(sc Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	if sc.Topology != TopologyDefault && sc.Topology != TopologyDirectedRing {
		return fmt.Errorf("repro: P_PL runs on a directed ring, not %v", sc.Topology)
	}
	return nil
}

// newTables builds the shared interned table set for one (scenario, n)
// cell: the packed codec keys the interner by the fixed-width state
// encoding (falling back to the map mode in parameterizations too wide to
// pack).
func (p pplProtocol) newTables(sc Scenario, n int) *population.Tables[core.State] {
	par := p.params(n)
	var cp *population.PackedCodec[core.State]
	if codec, ok := par.Codec(); ok {
		cp = &codec
	}
	return population.NewTables(par.SafetySpec(), core.IsLeader, cp, nil, internOpts(sc))
}

func (p pplProtocol) newTrialT(sc Scenario, n int, seed uint64, tab *population.Tables[core.State]) trialEngine[core.State] {
	par := p.params(n)
	pr := core.New(par)
	eng := population.NewEngine(population.DirectedRing(n), pr.Step, xrand.New(seed))
	eng.SetStates(par.InitConfig(sc.Init.String(), seed))
	eng.TrackLeaders(core.IsLeader)
	tracker := population.NewRingTracker(par.SafetySpec())
	applySched(eng, sc, seed)
	return trialEngine[core.State]{
		eng:     eng,
		corrupt: func(rng *xrand.RNG, _ core.State) core.State { return par.RandomState(rng) },
		tracker: tracker,
		accel:   population.AttachInterned(eng, tab, nil, tracker),
		pred:    func(cfg []core.State) bool { return par.IsSafe(cfg) },
		check:   n/2 + 1,
	}
}

func (p pplProtocol) newTrial(sc Scenario, n int, seed uint64) trialEngine[core.State] {
	return p.newTrialT(sc, n, seed, p.newTables(sc, n))
}

func (p pplProtocol) Trial(sc Scenario, n int, seed uint64) (TrialResult, error) {
	return p.ProbedTrial(sc, n, seed, nil)
}

// LaneTrials implements laneable: same-cell trials as lockstep lanes over
// one shared table set.
func (p pplProtocol) LaneTrials(sc Scenario, n int, seeds []uint64) ([]TrialResult, error) {
	return laneTrials(p, sc, n, seeds, p.newTables, p.newTrialT)
}

// ProbedTrial implements ProbedProtocol: Trial with the typed event
// stream attached.
func (p pplProtocol) ProbedTrial(sc Scenario, n int, seed uint64, probe Probe) (TrialResult, error) {
	return probedTrial(p, p.newTrial, sc, n, seed, probe)
}

func (p pplProtocol) newBench(sc Scenario, n int, seed uint64) (benchRunner, error) {
	return newBenchFor(p, p.newTrial, sc, n, seed)
}

func (p pplProtocol) newBenchPair(sc Scenario, n int, seed uint64) (benchRunner, benchRunner, error) {
	return newBenchPairFor(p, sc, n, seed, p.newTables, p.newTrialT)
}

// orientProtocol is the paper's Section 5 orientation protocol P_OR.
type orientProtocol struct{}

func (orientProtocol) Info() ProtocolInfo {
	return ProtocolInfo{
		Name:        "P_OR (Section 5)",
		Assumption:  "two-hop coloring",
		PaperTime:   "O(n² log n)",
		PaperStates: "O(1)",
	}
}

func (orientProtocol) States(n int) uint64 {
	return orient.StateCount(twohop.MinColors(n))
}

func (orientProtocol) FixSize(n int) int {
	if n < 3 {
		return 3
	}
	return n
}

func (orientProtocol) MaxSteps(n int) uint64 {
	return 4000 * uint64(n) * uint64(n)
}

func (orientProtocol) Validate(sc Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	if sc.Topology != TopologyDefault && sc.Topology != TopologyUndirectedRing {
		return fmt.Errorf("repro: P_OR runs on an undirected ring, not %v", sc.Topology)
	}
	if sc.Init != InitRandom {
		return fmt.Errorf("repro: P_OR supports the random init class only, not %v", sc.Init)
	}
	return rejectChurn(orientProtocol{}.Info(), sc)
}

func (p orientProtocol) newTables(sc Scenario, n int) *population.Tables[orient.State] {
	codec := orient.Codec()
	return population.NewTables(orient.OrientedSpec(), nil, &codec, nil, internOpts(sc))
}

func (p orientProtocol) newTrialT(sc Scenario, n int, seed uint64, tab *population.Tables[orient.State]) trialEngine[orient.State] {
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
	tracker := population.NewRingTracker(orient.OrientedSpec())
	applySched(eng, sc, seed)
	return trialEngine[orient.State]{
		eng: eng,
		// Corruption scrambles the evolving registers but preserves the
		// coloring, which is protocol input, not state.
		corrupt: func(rng *xrand.RNG, cur orient.State) orient.State {
			return orient.State{
				Color:  cur.Color,
				Dir:    uint8(rng.Intn(maxColor + 2)),
				M1:     uint8(rng.Intn(maxColor + 2)),
				M2:     uint8(rng.Intn(maxColor + 2)),
				Strong: rng.Bool(),
			}
		},
		tracker: tracker,
		accel:   population.AttachInterned(eng, tab, nil, tracker),
		pred:    orient.Oriented,
		check:   n,
	}
}

func (p orientProtocol) newTrial(sc Scenario, n int, seed uint64) trialEngine[orient.State] {
	return p.newTrialT(sc, n, seed, p.newTables(sc, n))
}

func (p orientProtocol) Trial(sc Scenario, n int, seed uint64) (TrialResult, error) {
	return p.ProbedTrial(sc, n, seed, nil)
}

// LaneTrials implements laneable.
func (p orientProtocol) LaneTrials(sc Scenario, n int, seeds []uint64) ([]TrialResult, error) {
	return laneTrials(p, sc, n, seeds, p.newTables, p.newTrialT)
}

// ProbedTrial implements ProbedProtocol: Trial with the typed event
// stream attached.
func (p orientProtocol) ProbedTrial(sc Scenario, n int, seed uint64, probe Probe) (TrialResult, error) {
	return probedTrial(p, p.newTrial, sc, n, seed, probe)
}

func (p orientProtocol) newBench(sc Scenario, n int, seed uint64) (benchRunner, error) {
	return newBenchFor(p, p.newTrial, sc, n, seed)
}

func (p orientProtocol) newBenchPair(sc Scenario, n int, seed uint64) (benchRunner, benchRunner, error) {
	return newBenchPairFor(p, sc, n, seed, p.newTables, p.newTrialT)
}

// yokotaProtocol is the [28] baseline with knowledge N = 2n.
type yokotaProtocol struct{}

func (yokotaProtocol) Info() ProtocolInfo {
	return ProtocolInfo{
		Name:        "[28] Yokota et al.",
		Assumption:  "knowledge N = n+O(n)",
		PaperTime:   "Θ(n²)",
		PaperStates: "O(n)",
	}
}

func (yokotaProtocol) States(n int) uint64 { return yokota.New(2 * n).StateCount() }

func (yokotaProtocol) FixSize(n int) int { return n }

func (yokotaProtocol) MaxSteps(n int) uint64 { return 800 * uint64(n) * uint64(n) }

func (p yokotaProtocol) Validate(sc Scenario) error { return validateElection(p.Info(), sc) }

func (p yokotaProtocol) newTables(sc Scenario, n int) *population.Tables[yokota.State] {
	pr := yokota.New(2 * n)
	codec := pr.Codec()
	return population.NewTables(pr.StableSpec(), yokota.IsLeader, &codec, nil, internOpts(sc))
}

func (p yokotaProtocol) newTrialT(sc Scenario, n int, seed uint64, tab *population.Tables[yokota.State]) trialEngine[yokota.State] {
	pr := yokota.New(2 * n)
	eng := population.NewEngine(population.DirectedRing(n), pr.Step, xrand.New(seed))
	eng.SetStates(pr.RandomConfig(xrand.New(seed^initSeedSalt), n))
	eng.TrackLeaders(yokota.IsLeader)
	tracker := population.NewRingTracker(pr.StableSpec())
	applySched(eng, sc, seed)
	return trialEngine[yokota.State]{
		eng:     eng,
		corrupt: func(rng *xrand.RNG, _ yokota.State) yokota.State { return pr.RandomState(rng) },
		tracker: tracker,
		accel:   population.AttachInterned(eng, tab, nil, tracker),
		pred:    pr.Stable,
		check:   n/2 + 1,
	}
}

func (p yokotaProtocol) newTrial(sc Scenario, n int, seed uint64) trialEngine[yokota.State] {
	return p.newTrialT(sc, n, seed, p.newTables(sc, n))
}

func (p yokotaProtocol) Trial(sc Scenario, n int, seed uint64) (TrialResult, error) {
	return p.ProbedTrial(sc, n, seed, nil)
}

// LaneTrials implements laneable.
func (p yokotaProtocol) LaneTrials(sc Scenario, n int, seeds []uint64) ([]TrialResult, error) {
	return laneTrials(p, sc, n, seeds, p.newTables, p.newTrialT)
}

// ProbedTrial implements ProbedProtocol: Trial with the typed event
// stream attached.
func (p yokotaProtocol) ProbedTrial(sc Scenario, n int, seed uint64, probe Probe) (TrialResult, error) {
	return probedTrial(p, p.newTrial, sc, n, seed, probe)
}

func (p yokotaProtocol) newBench(sc Scenario, n int, seed uint64) (benchRunner, error) {
	return newBenchFor(p, p.newTrial, sc, n, seed)
}

func (p yokotaProtocol) newBenchPair(sc Scenario, n int, seed uint64) (benchRunner, benchRunner, error) {
	return newBenchPairFor(p, sc, n, seed, p.newTables, p.newTrialT)
}

// angluinProtocol is the [5]-style mod-k baseline with k = 2; requested
// even sizes are bumped to the next odd size.
type angluinProtocol struct{}

func (angluinProtocol) Info() ProtocolInfo {
	return ProtocolInfo{
		Name:        "[5] Angluin et al.",
		Assumption:  "n not multiple of k=2",
		PaperTime:   "Θ(n³)",
		PaperStates: "O(1)",
	}
}

func (angluinProtocol) States(n int) uint64 { return angluin.New(2).StateCount() }

func (angluinProtocol) FixSize(n int) int {
	if n%2 == 0 {
		return n + 1
	}
	return n
}

func (angluinProtocol) MaxSteps(n int) uint64 {
	return 400 * uint64(n) * uint64(n) * uint64(n)
}

func (p angluinProtocol) Validate(sc Scenario) error { return validateElection(p.Info(), sc) }

func (p angluinProtocol) newTables(sc Scenario, n int) *population.Tables[angluin.State] {
	codec := angluin.Codec()
	return population.NewTables(angluin.New(2).StableSpec(), angluin.IsLeader, &codec, nil, internOpts(sc))
}

func (p angluinProtocol) newTrialT(sc Scenario, n int, seed uint64, tab *population.Tables[angluin.State]) trialEngine[angluin.State] {
	pr := angluin.New(2)
	eng := population.NewEngine(population.DirectedRing(n), pr.Step, xrand.New(seed))
	eng.SetStates(pr.RandomConfig(xrand.New(seed^initSeedSalt), n))
	eng.TrackLeaders(angluin.IsLeader)
	tracker := population.NewRingTracker(pr.StableSpec())
	applySched(eng, sc, seed)
	return trialEngine[angluin.State]{
		eng:     eng,
		corrupt: func(rng *xrand.RNG, _ angluin.State) angluin.State { return pr.RandomState(rng) },
		tracker: tracker,
		accel:   population.AttachInterned(eng, tab, nil, tracker),
		pred:    pr.Stable,
		check:   n/2 + 1,
	}
}

func (p angluinProtocol) newTrial(sc Scenario, n int, seed uint64) trialEngine[angluin.State] {
	return p.newTrialT(sc, n, seed, p.newTables(sc, n))
}

func (p angluinProtocol) Trial(sc Scenario, n int, seed uint64) (TrialResult, error) {
	return p.ProbedTrial(sc, n, seed, nil)
}

// LaneTrials implements laneable.
func (p angluinProtocol) LaneTrials(sc Scenario, n int, seeds []uint64) ([]TrialResult, error) {
	return laneTrials(p, sc, n, seeds, p.newTables, p.newTrialT)
}

// ProbedTrial implements ProbedProtocol: Trial with the typed event
// stream attached.
func (p angluinProtocol) ProbedTrial(sc Scenario, n int, seed uint64, probe Probe) (TrialResult, error) {
	return probedTrial(p, p.newTrial, sc, n, seed, probe)
}

func (p angluinProtocol) newBench(sc Scenario, n int, seed uint64) (benchRunner, error) {
	return newBenchFor(p, p.newTrial, sc, n, seed)
}

func (p angluinProtocol) newBenchPair(sc Scenario, n int, seed uint64) (benchRunner, benchRunner, error) {
	return newBenchPairFor(p, sc, n, seed, p.newTables, p.newTrialT)
}

// fjProtocol is the [15]-style oracle baseline.
type fjProtocol struct{}

func (fjProtocol) Info() ProtocolInfo {
	return ProtocolInfo{
		Name:        "[15] Fischer–Jiang",
		Assumption:  "oracle Ω?",
		PaperTime:   "Θ(n³)",
		PaperStates: "O(1)",
	}
}

func (fjProtocol) States(n int) uint64 { return fj.New().StateCount() }

func (fjProtocol) FixSize(n int) int { return n }

func (fjProtocol) MaxSteps(n int) uint64 {
	return 400 * uint64(n) * uint64(n) * uint64(n)
}

func (p fjProtocol) Validate(sc Scenario) error {
	if err := validateElection(p.Info(), sc); err != nil {
		return err
	}
	return rejectChurn(p.Info(), sc)
}

func (p fjProtocol) newTables(sc Scenario, n int) *population.Tables[fj.State] {
	codec := fj.Codec()
	// Tables only read the env's shape (Keys, the pure Delta); any runner's
	// EnvSpec supplies them.
	env := fj.NewRunner(3, xrand.New(1)).InternEnv()
	return population.NewTables(fj.New().StableSpec(), fj.IsLeader, &codec, env, internOpts(sc))
}

func (p fjProtocol) newTrialT(sc Scenario, n int, seed uint64, tab *population.Tables[fj.State]) trialEngine[fj.State] {
	ru := fj.NewRunner(n, xrand.New(seed))
	ru.SetStates(fj.New().RandomConfig(xrand.New(seed^initSeedSalt), n))
	tracker := population.NewRingTracker(fj.New().StableSpec())
	applySched(ru.Engine(), sc, seed)
	return trialEngine[fj.State]{
		eng:     ru.Engine(),
		install: ru.SetStates, // keep the oracle census in sync
		corrupt: func(rng *xrand.RNG, _ fj.State) fj.State { return fj.New().RandomState(rng) },
		tracker: tracker,
		accel:   population.AttachInterned(ru.Engine(), tab, ru.InternEnv(), tracker),
		pred:    fj.Stable,
		check:   n/2 + 1,
	}
}

func (p fjProtocol) newTrial(sc Scenario, n int, seed uint64) trialEngine[fj.State] {
	return p.newTrialT(sc, n, seed, p.newTables(sc, n))
}

func (p fjProtocol) Trial(sc Scenario, n int, seed uint64) (TrialResult, error) {
	return p.ProbedTrial(sc, n, seed, nil)
}

// LaneTrials implements laneable.
func (p fjProtocol) LaneTrials(sc Scenario, n int, seeds []uint64) ([]TrialResult, error) {
	return laneTrials(p, sc, n, seeds, p.newTables, p.newTrialT)
}

// ProbedTrial implements ProbedProtocol: Trial with the typed event
// stream attached.
func (p fjProtocol) ProbedTrial(sc Scenario, n int, seed uint64, probe Probe) (TrialResult, error) {
	return probedTrial(p, p.newTrial, sc, n, seed, probe)
}

func (p fjProtocol) newBench(sc Scenario, n int, seed uint64) (benchRunner, error) {
	return newBenchFor(p, p.newTrial, sc, n, seed)
}

func (p fjProtocol) newBenchPair(sc Scenario, n int, seed uint64) (benchRunner, benchRunner, error) {
	return newBenchPairFor(p, sc, n, seed, p.newTables, p.newTrialT)
}

// chenchenProtocol is the [11]-style baseline. The reconstruction
// serializes detection attempts with a flag-census oracle (see
// internal/chenchen), so its measured time class is not the original's
// super-exponential bound; run it at small n only.
type chenchenProtocol struct{}

func (chenchenProtocol) Info() ProtocolInfo {
	return ProtocolInfo{
		Name:        "[11] Chen–Chen",
		Assumption:  "none (reconstruction: census oracle)",
		PaperTime:   "exponential",
		PaperStates: "O(1)",
	}
}

func (chenchenProtocol) States(n int) uint64 { return chenchen.New().StateCount() }

func (chenchenProtocol) FixSize(n int) int { return n }

func (chenchenProtocol) MaxSteps(n int) uint64 {
	return 2000 * uint64(n) * uint64(n) * uint64(n)
}

func (p chenchenProtocol) Validate(sc Scenario) error {
	if err := validateElection(p.Info(), sc); err != nil {
		return err
	}
	return rejectChurn(p.Info(), sc)
}

func (p chenchenProtocol) newTables(sc Scenario, n int) *population.Tables[chenchen.State] {
	codec := chenchen.Codec()
	env := chenchen.NewRunner(3, xrand.New(1)).InternEnv()
	return population.NewTables(chenchen.New().StableSpec(), chenchen.IsLeader, &codec, env, internOpts(sc))
}

func (p chenchenProtocol) newTrialT(sc Scenario, n int, seed uint64, tab *population.Tables[chenchen.State]) trialEngine[chenchen.State] {
	ru := chenchen.NewRunner(n, xrand.New(seed))
	ru.SetStates(chenchen.New().RandomConfig(xrand.New(seed^initSeedSalt), n))
	tracker := population.NewRingTracker(chenchen.New().StableSpec())
	applySched(ru.Engine(), sc, seed)
	return trialEngine[chenchen.State]{
		eng:     ru.Engine(),
		install: ru.SetStates, // keep the flag census in sync
		corrupt: func(rng *xrand.RNG, _ chenchen.State) chenchen.State { return chenchen.New().RandomState(rng) },
		tracker: tracker,
		accel:   population.AttachInterned(ru.Engine(), tab, ru.InternEnv(), tracker),
		pred:    chenchen.Stable,
		check:   n/2 + 1,
	}
}

func (p chenchenProtocol) newTrial(sc Scenario, n int, seed uint64) trialEngine[chenchen.State] {
	return p.newTrialT(sc, n, seed, p.newTables(sc, n))
}

func (p chenchenProtocol) Trial(sc Scenario, n int, seed uint64) (TrialResult, error) {
	return p.ProbedTrial(sc, n, seed, nil)
}

// LaneTrials implements laneable.
func (p chenchenProtocol) LaneTrials(sc Scenario, n int, seeds []uint64) ([]TrialResult, error) {
	return laneTrials(p, sc, n, seeds, p.newTables, p.newTrialT)
}

// ProbedTrial implements ProbedProtocol: Trial with the typed event
// stream attached.
func (p chenchenProtocol) ProbedTrial(sc Scenario, n int, seed uint64, probe Probe) (TrialResult, error) {
	return probedTrial(p, p.newTrial, sc, n, seed, probe)
}

func (p chenchenProtocol) newBench(sc Scenario, n int, seed uint64) (benchRunner, error) {
	return newBenchFor(p, p.newTrial, sc, n, seed)
}

func (p chenchenProtocol) newBenchPair(sc Scenario, n int, seed uint64) (benchRunner, benchRunner, error) {
	return newBenchPairFor(p, sc, n, seed, p.newTables, p.newTrialT)
}
