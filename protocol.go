package repro

import (
	"fmt"
	"sort"
	"sync"
)

// ProtocolInfo is a protocol's Table 1 metadata: display name, the
// assumption (knowledge) column, and the paper-cited asymptotic bounds.
type ProtocolInfo struct {
	Name        string `json:"name"`
	Assumption  string `json:"assumption"`
	PaperTime   string `json:"paper_time"`
	PaperStates string `json:"paper_states"`
}

// TrialResult is the outcome of one protocol trial.
type TrialResult struct {
	// N is the (FixSize-adjusted) ring size of the trial.
	N int `json:"n"`
	// Seed is the scheduler seed the trial ran with.
	Seed uint64 `json:"seed"`
	// Steps is the step at which the convergence predicate first held.
	Steps uint64 `json:"steps"`
	// Stabilized is the last step at which the output (leader set) changed.
	Stabilized uint64 `json:"stabilized"`
	// Converged reports whether the predicate held within the budget.
	Converged bool `json:"converged"`
}

// Protocol is the single contract every experimentable protocol satisfies
// — the paper's P_PL and P_OR and the four Table 1 baselines all implement
// it, and external protocols can be added through Register. A Protocol
// bundles the pieces a trial needs: parameter construction for a ring size
// (FixSize, MaxSteps), the initial configuration of a scenario and seed,
// the step function and convergence predicate (both exercised through
// Trial), and the exact state count (States).
//
// Implementations must be safe for concurrent Trial calls: the Experiment
// runner fans trials of one Protocol value out across a worker pool.
type Protocol interface {
	// Info returns the protocol's Table 1 metadata.
	Info() ProtocolInfo
	// States returns the exact per-agent state count |Q| at ring size n.
	States(n int) uint64
	// FixSize adjusts a requested ring size to the nearest one the
	// protocol's assumption admits (identity for most protocols).
	FixSize(n int) int
	// MaxSteps returns the default per-trial step budget at ring size n —
	// the paper's w.h.p. bound with a generous constant.
	MaxSteps(n int) uint64
	// Validate reports whether the protocol supports the scenario (init
	// class, topology, fault schedule).
	Validate(sc Scenario) error
	// Trial runs one trial of the scenario at ring size n (already
	// FixSize-adjusted) with the given scheduler seed. The error is
	// non-nil for scenarios Validate rejects and for ring sizes the
	// protocol cannot run; the built-in protocols reject rings below two
	// agents and sizes FixSize would change.
	Trial(sc Scenario, n int, seed uint64) (TrialResult, error)
}

// TrialSeed is the deterministic scheduler seed of trial index trial at
// ring size n. Every execution path — serial or parallel, library or
// command — derives seeds through this function, which is what makes
// parallel experiments byte-identical to serial ones.
func TrialSeed(n, trial int) uint64 {
	return uint64(n)*1_000_003 + uint64(trial)
}

// registry is the named protocol catalogue behind Register/Protocols.
var registry = struct {
	sync.RWMutex
	factories map[string]func() Protocol
}{factories: make(map[string]func() Protocol)}

// Register adds a named protocol factory to the catalogue, making it
// available to NewProtocol and Experiment.ProtocolNames. Registering a
// name twice is an error; the built-in names are "ppl", "orient",
// "yokota", "angluin", "fj" and "chenchen".
func Register(name string, factory func() Protocol) error {
	if name == "" || factory == nil {
		return fmt.Errorf("repro: Register needs a name and a factory")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.factories[name]; dup {
		return fmt.Errorf("repro: protocol %q already registered", name)
	}
	registry.factories[name] = factory
	return nil
}

// mustRegister is Register for the built-in protocols, whose names cannot
// collide.
func mustRegister(name string, factory func() Protocol) {
	if err := Register(name, factory); err != nil {
		panic(err)
	}
}

// Protocols returns the sorted names of every registered protocol.
func Protocols() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.factories))
	for name := range registry.factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewProtocol instantiates a registered protocol by name.
func NewProtocol(name string) (Protocol, error) {
	registry.RLock()
	factory, ok := registry.factories[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("repro: unknown protocol %q (registered: %v)", name, Protocols())
	}
	return factory(), nil
}
