package repro

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// InitClass selects the adversarial initial-configuration family of a
// trial. The zero value is InitRandom, so a zero Scenario is the standard
// random-adversary experiment. Classes beyond InitRandom model the paper's
// hand-crafted hard instances and are supported by P_PL only; the
// baselines reject them in Validate.
type InitClass int

const (
	// InitRandom samples every agent uniformly from the full state space.
	InitRandom InitClass = iota
	// InitNoLeader is the hardest detection case: aligned distances, no
	// leader, all agents already in detection mode.
	InitNoLeader
	// InitAllLeaders starts with every agent an armed leader.
	InitAllLeaders
	// InitCorrupted perturbs a safe configuration at n/4 random agents.
	InitCorrupted
	// InitNoLeaderCold is InitNoLeader with all clocks at zero: the
	// population must first climb to detection mode via the lottery-game
	// clocks, so convergence is dominated by κ_max (the E10 ablation).
	InitNoLeaderCold
)

var initClassNames = map[InitClass]string{
	InitRandom:       "random",
	InitNoLeader:     "noleader",
	InitAllLeaders:   "allleaders",
	InitCorrupted:    "corrupted",
	InitNoLeaderCold: "noleadercold",
}

// String returns the parseable name of the class ("random", "noleader",
// "allleaders", "corrupted", "noleadercold").
func (c InitClass) String() string {
	if name, ok := initClassNames[c]; ok {
		return name
	}
	return fmt.Sprintf("InitClass(%d)", int(c))
}

// describe is the human-readable form used in report headings.
func (c InitClass) describe() string {
	switch c {
	case InitNoLeader:
		return "leaderless aligned starts"
	case InitAllLeaders:
		return "all-leaders starts"
	case InitCorrupted:
		return "corrupted-perfect starts"
	case InitNoLeaderCold:
		return "cold leaderless starts"
	default:
		return "random adversarial starts"
	}
}

// ParseInitClass maps a class name (as printed by String) back to the
// class.
func ParseInitClass(s string) (InitClass, error) {
	for c, name := range initClassNames {
		if name == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("repro: unknown init class %q", s)
}

// MarshalJSON encodes the class by name.
func (c InitClass) MarshalJSON() ([]byte, error) {
	if _, ok := initClassNames[c]; !ok {
		return nil, fmt.Errorf("repro: cannot marshal %v", c)
	}
	return json.Marshal(c.String())
}

// UnmarshalJSON decodes a class name.
func (c *InitClass) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseInitClass(s)
	if err != nil {
		return err
	}
	*c = parsed
	return nil
}

// Topology selects the interaction graph of a trial. The zero value defers
// to the protocol's native topology (a directed ring for the election
// protocols, an undirected ring for P_OR); a non-zero value is validated
// against it, so scenarios cannot silently run a protocol on a graph its
// analysis does not cover.
type Topology int

const (
	// TopologyDefault uses the protocol's native topology.
	TopologyDefault Topology = iota
	// TopologyDirectedRing is the directed ring of the election protocols.
	TopologyDirectedRing
	// TopologyUndirectedRing is the undirected ring of P_OR.
	TopologyUndirectedRing
)

var topologyNames = map[Topology]string{
	TopologyDefault:        "default",
	TopologyDirectedRing:   "directed-ring",
	TopologyUndirectedRing: "undirected-ring",
}

// String returns the topology name.
func (t Topology) String() string {
	if name, ok := topologyNames[t]; ok {
		return name
	}
	return fmt.Sprintf("Topology(%d)", int(t))
}

// MarshalJSON encodes the topology by name.
func (t Topology) MarshalJSON() ([]byte, error) {
	if _, ok := topologyNames[t]; !ok {
		return nil, fmt.Errorf("repro: cannot marshal %v", t)
	}
	return json.Marshal(t.String())
}

// UnmarshalJSON decodes a topology name.
func (t *Topology) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for topo, name := range topologyNames {
		if name == s {
			*t = topo
			return nil
		}
	}
	return fmt.Errorf("repro: unknown topology %q", s)
}

// Fault is one burst of a mid-run fault-injection schedule: at step AtStep
// of the trial, Agents randomly chosen agents are overwritten with
// uniformly random states. Self-stabilization means the protocol must
// recover from every burst.
type Fault struct {
	// AtStep is the scheduler step at which the burst fires; bursts beyond
	// the step budget never fire.
	AtStep uint64 `json:"at_step"`
	// Agents is the number of randomly chosen agents to corrupt. Draws are
	// independent, so the same agent may be hit more than once.
	Agents int `json:"agents"`
}

// Budget is the step-budget policy of a trial. The zero value uses the
// protocol's default budget (the paper's w.h.p. bound with a generous
// constant).
type Budget struct {
	// MaxSteps, when non-zero, is the absolute per-trial step budget and
	// overrides Scale.
	MaxSteps uint64 `json:"max_steps,omitempty"`
	// Scale, when non-zero, multiplies the protocol's default budget —
	// e.g. 0.1 for a deliberately tight budget in failure studies.
	Scale float64 `json:"scale,omitempty"`
}

// steps resolves the policy against a protocol's default budget at size n.
// A positive Scale small enough to truncate the product to zero resolves
// to 1, never 0: a 0-step budget would make every trial silently report
// non-convergence at step 0, which reads like an instant failure instead
// of a too-tight budget.
func (b Budget) steps(def uint64) uint64 {
	switch {
	case b.MaxSteps > 0:
		return b.MaxSteps
	case b.Scale > 0:
		product := b.Scale * float64(def)
		if product >= float64(math.MaxUint64) {
			// Saturate before converting: float-to-uint64 conversion of an
			// out-of-range value is implementation-specific in Go, so an
			// absurd scale would resolve to different budgets on different
			// architectures.
			return math.MaxUint64
		}
		scaled := uint64(product)
		if scaled == 0 {
			scaled = 1
		}
		return scaled
	default:
		return def
	}
}

// Scenario describes everything about a trial except the protocol and the
// ring size: the interaction topology, the adversarial initial
// configuration class, an optional mid-run fault-injection schedule, the
// step-budget policy, and the scheduler/ring-dynamics spec (biased arc
// distributions, eclipses, churn, stuck agents — see SchedulerSpec). The
// zero Scenario is the standard experiment: native topology, random
// adversarial start, no faults, default budget, uniform-random scheduler
// on a static ring.
type Scenario struct {
	Topology Topology       `json:"topology,omitempty"`
	Init     InitClass      `json:"init,omitempty"`
	Faults   []Fault        `json:"faults,omitempty"`
	Budget   Budget         `json:"budget,omitempty"`
	Sched    *SchedulerSpec `json:"scheduler,omitempty"`
}

// Validate reports whether the scenario is well-formed independent of any
// protocol: non-negative fault sizes, and a budget scale that is a
// non-negative finite number (NaN and ±Inf would slip past a simple sign
// check and resolve to a meaningless budget). Scales that truncate the
// resolved budget to zero are clamped to a 1-step budget at resolution
// time (see Budget).
func (sc Scenario) Validate() error {
	for _, f := range sc.Faults {
		if f.Agents < 0 {
			return fmt.Errorf("repro: fault at step %d corrupts %d agents", f.AtStep, f.Agents)
		}
	}
	if sc.Budget.Scale < 0 || math.IsNaN(sc.Budget.Scale) || math.IsInf(sc.Budget.Scale, 0) {
		return fmt.Errorf("repro: invalid budget scale %v", sc.Budget.Scale)
	}
	return sc.Sched.Validate()
}

// MaxSteps resolves the scenario's budget policy for protocol p at ring
// size n (which must already be FixSize-adjusted).
func (sc Scenario) MaxSteps(p Protocol, n int) uint64 {
	return sc.Budget.steps(p.MaxSteps(n))
}

// sortedFaults returns the schedule in firing order without mutating the
// scenario.
func (sc Scenario) sortedFaults() []Fault {
	if len(sc.Faults) == 0 {
		return nil
	}
	out := make([]Fault, len(sc.Faults))
	copy(out, sc.Faults)
	sort.SliceStable(out, func(i, j int) bool { return out[i].AtStep < out[j].AtStep })
	return out
}
