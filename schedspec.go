package repro

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/population"
	"repro/internal/sched"
)

// SchedulerSpec describes a scenario's scheduler and ring dynamics: the
// arc-draw distribution (uniform, biased weight families, periodic
// eclipses of an arc interval) plus churn (agents joining and leaving
// mid-run) and stuck agents. A nil spec — and the zero Scenario — is
// the historical uniform-random scheduler on a static ring, down to the
// exact RNG stream; an explicit "uniform" kind names that same default
// (pinned by the differential tests). Like InitClass and Topology, the
// spec round-trips through JSON and is part of the scenario's identity —
// the service's cell digests cover it, so scheduler-differing jobs never
// alias in the cache.
type SchedulerSpec struct {
	// Kind selects the arc distribution: "" or "uniform" (the engine's
	// default uniform draws), "biased" or "eclipse".
	Kind string `json:"kind,omitempty"`

	// Family selects the biased weight family: "hotspot" (the first
	// HotArcs arcs carry Weight× the unit weight) or "ramp" (weights
	// rise linearly around the ring from 1 to Weight).
	Family string `json:"family,omitempty"`
	// HotArcs is the hotspot family's hot-arc count.
	HotArcs int `json:"hot_arcs,omitempty"`
	// Weight is the biased families' weight parameter.
	Weight float64 `json:"weight,omitempty"`

	// Start is the step at which the first eclipse window opens.
	Start uint64 `json:"start,omitempty"`
	// Period is the step distance between eclipse window starts.
	Period uint64 `json:"period,omitempty"`
	// Duration is the window length in steps; 0 < Duration < Period.
	Duration uint64 `json:"duration,omitempty"`
	// Arcs is the width of the eclipsed (dead) arc interval; clamped so
	// at least one arc survives.
	Arcs int `json:"arcs,omitempty"`
	// Offset is the first dead arc's index (mod the arc count).
	Offset int `json:"offset,omitempty"`

	// Churn schedules mid-run agent departures and arrivals with ring
	// re-splicing. Orthogonal to Kind; rejected by protocols whose
	// construction is pinned to a fixed ring size (P_OR's two-hop
	// coloring, the oracle-census baselines).
	Churn []ChurnEvent `json:"churn,omitempty"`
	// Stuck freezes that many randomly chosen agents for the whole
	// trial: a stuck agent never updates its state in either interaction
	// role. Clamped to n-1.
	Stuck int `json:"stuck,omitempty"`
}

// ChurnEvent is one ring-dynamics event: at step AtStep, Remove randomly
// chosen agents leave (the ring re-splices around them, never shrinking
// below 3 agents) and then Insert newcomers join at random positions,
// each initialized by corrupting its clockwise neighbor's state — a
// fresh agent in an arbitrary state, exactly what self-stabilization
// must absorb.
type ChurnEvent struct {
	AtStep uint64 `json:"at_step"`
	Remove int    `json:"remove,omitempty"`
	Insert int    `json:"insert,omitempty"`
}

// schedKinds are the accepted SchedulerSpec.Kind values.
var schedKinds = map[string]bool{"": true, "uniform": true, "biased": true, "eclipse": true}

// Validate reports whether the spec is well-formed, independent of any
// protocol or ring size. A nil spec is valid (the default scheduler).
func (s *SchedulerSpec) Validate() error {
	if s == nil {
		return nil
	}
	if !schedKinds[s.Kind] {
		return fmt.Errorf("repro: unknown scheduler kind %q (want uniform, biased or eclipse)", s.Kind)
	}
	switch s.Kind {
	case "biased":
		switch s.Family {
		case "hotspot":
			if s.HotArcs < 1 {
				return fmt.Errorf("repro: biased hotspot scheduler needs hot_arcs >= 1, got %d", s.HotArcs)
			}
		case "ramp":
			// Weight alone parameterizes the ramp.
		default:
			return fmt.Errorf("repro: unknown biased family %q (want hotspot or ramp)", s.Family)
		}
		if !(s.Weight > 0) || math.IsInf(s.Weight, 0) {
			return fmt.Errorf("repro: biased scheduler needs a positive finite weight, got %v", s.Weight)
		}
	case "eclipse":
		if s.Period == 0 || s.Duration == 0 || s.Duration >= s.Period {
			return fmt.Errorf("repro: eclipse scheduler needs 0 < duration < period, got duration=%d period=%d", s.Duration, s.Period)
		}
		if s.Arcs < 1 {
			return fmt.Errorf("repro: eclipse scheduler needs arcs >= 1, got %d", s.Arcs)
		}
	default:
		if s.Family != "" || s.HotArcs != 0 || s.Weight != 0 || s.Period != 0 || s.Duration != 0 || s.Arcs != 0 || s.Offset != 0 || s.Start != 0 {
			return fmt.Errorf("repro: scheduler kind %q takes no distribution parameters", s.Kind)
		}
	}
	for _, c := range s.Churn {
		if c.Remove < 0 || c.Insert < 0 {
			return fmt.Errorf("repro: churn event at step %d removes %d / inserts %d agents", c.AtStep, c.Remove, c.Insert)
		}
		if c.Remove == 0 && c.Insert == 0 {
			return fmt.Errorf("repro: churn event at step %d does nothing", c.AtStep)
		}
	}
	if s.Stuck < 0 {
		return fmt.Errorf("repro: stuck agent count %d is negative", s.Stuck)
	}
	return nil
}

// hasChurn reports whether the spec schedules any churn (nil-safe).
func (s *SchedulerSpec) hasChurn() bool { return s != nil && len(s.Churn) > 0 }

// sortedChurn returns the churn schedule in firing order without
// mutating the spec.
func (s *SchedulerSpec) sortedChurn() []ChurnEvent {
	if !s.hasChurn() {
		return nil
	}
	out := make([]ChurnEvent, len(s.Churn))
	copy(out, s.Churn)
	sort.SliceStable(out, func(i, j int) bool { return out[i].AtStep < out[j].AtStep })
	return out
}

// compileArcSched builds the spec's arc scheduler for a ring with nArcs
// arcs, or nil when the engine's default uniform draws should run (nil
// spec, empty kind or "uniform"). The spec must have passed Validate;
// the remaining failure modes are impossible for validated specs, so
// they panic.
func (s *SchedulerSpec) compileArcSched(nArcs int) population.ArcScheduler {
	if s == nil {
		return nil
	}
	switch s.Kind {
	case "", "uniform":
		return nil
	case "biased":
		var weights []float64
		if s.Family == "hotspot" {
			hot := s.HotArcs
			if hot > nArcs {
				hot = nArcs
			}
			weights = sched.HotspotWeights(nArcs, hot, s.Weight)
		} else {
			weights = sched.RampWeights(nArcs, s.Weight)
		}
		b, err := sched.NewBiased(weights)
		if err != nil {
			panic(fmt.Sprintf("repro: validated biased spec failed to compile: %v", err))
		}
		return b
	case "eclipse":
		e, err := sched.NewEclipse(nArcs, s.Start, s.Period, s.Duration, s.Offset, s.Arcs)
		if err != nil {
			panic(fmt.Sprintf("repro: validated eclipse spec failed to compile: %v", err))
		}
		return e
	default:
		panic(fmt.Sprintf("repro: validated scheduler spec has unknown kind %q", s.Kind))
	}
}

// ParseSchedulerSpec parses the compact command-line scheduler grammar
// used by cmd/ringsim and cmd/sweep:
//
//	uniform
//	hotspot:arcs=K,weight=W
//	ramp:weight=W
//	eclipse:period=P,duration=D,arcs=K[,offset=O][,start=S]
//
// An empty string yields a nil spec (the default scheduler). Churn and
// stuck dynamics are separate flags — see ParseChurnSpec — and are
// merged into the returned spec by the caller.
func ParseSchedulerSpec(text string) (*SchedulerSpec, error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return nil, nil
	}
	head, params, hasParams := strings.Cut(text, ":")
	spec := &SchedulerSpec{}
	switch head {
	case "uniform":
		spec.Kind = "uniform"
		if hasParams {
			return nil, fmt.Errorf("repro: uniform scheduler takes no parameters, got %q", params)
		}
		return spec, nil
	case "hotspot", "ramp":
		spec.Kind = "biased"
		spec.Family = head
	case "eclipse":
		spec.Kind = "eclipse"
	default:
		return nil, fmt.Errorf("repro: unknown scheduler %q (want uniform, hotspot, ramp or eclipse)", head)
	}
	if hasParams {
		for _, kv := range strings.Split(params, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("repro: scheduler parameter %q is not key=value", kv)
			}
			if err := spec.setParam(key, val); err != nil {
				return nil, err
			}
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// setParam assigns one parsed key=value scheduler parameter.
func (s *SchedulerSpec) setParam(key, val string) error {
	switch key {
	case "weight":
		w, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("repro: scheduler weight %q: %v", val, err)
		}
		s.Weight = w
		return nil
	case "arcs":
		k, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("repro: scheduler arcs %q: %v", val, err)
		}
		if s.Kind == "biased" {
			s.HotArcs = k
		} else {
			s.Arcs = k
		}
		return nil
	case "period", "duration", "start":
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("repro: scheduler %s %q: %v", key, val, err)
		}
		switch key {
		case "period":
			s.Period = v
		case "duration":
			s.Duration = v
		default:
			s.Start = v
		}
		return nil
	case "offset":
		o, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("repro: scheduler offset %q: %v", val, err)
		}
		s.Offset = o
		return nil
	default:
		return fmt.Errorf("repro: unknown scheduler parameter %q", key)
	}
}

// ParseChurnSpec parses the command-line churn grammar: a comma list of
// del<K>@<STEP> and add<K>@<STEP> events, e.g. "del2@5000,add2@9000".
// An empty string yields no events.
func ParseChurnSpec(text string) ([]ChurnEvent, error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return nil, nil
	}
	var out []ChurnEvent
	for _, tok := range strings.Split(text, ",") {
		tok = strings.TrimSpace(tok)
		var op string
		switch {
		case strings.HasPrefix(tok, "del"):
			op = "del"
		case strings.HasPrefix(tok, "add"):
			op = "add"
		default:
			return nil, fmt.Errorf("repro: churn event %q must start with del or add", tok)
		}
		body := tok[len(op):]
		countStr, stepStr, ok := strings.Cut(body, "@")
		if !ok {
			return nil, fmt.Errorf("repro: churn event %q is not %s<count>@<step>", tok, op)
		}
		count, err := strconv.Atoi(countStr)
		if err != nil || count < 1 {
			return nil, fmt.Errorf("repro: churn event %q needs a positive count", tok)
		}
		step, err := strconv.ParseUint(stepStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("repro: churn event %q step: %v", tok, err)
		}
		ev := ChurnEvent{AtStep: step}
		if op == "del" {
			ev.Remove = count
		} else {
			ev.Insert = count
		}
		out = append(out, ev)
	}
	return out, nil
}
