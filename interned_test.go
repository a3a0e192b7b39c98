package repro

import (
	"reflect"
	"testing"
)

// captureProbe records a trial's full typed event stream for differential
// comparison between the interned and generic engines.
type captureProbe struct {
	begins []string
	events []TrialEvent
	end    TrialResult
}

func (c *captureProbe) Begin(protocol string, n int, seed uint64) {
	c.begins = append(c.begins, protocol)
}
func (c *captureProbe) Observe(ev TrialEvent) { c.events = append(c.events, ev) }
func (c *captureProbe) End(res TrialResult)   { c.end = res }

// diffCells returns the differential-test grid per protocol: sizes capped
// by the protocol's time class so the full matrix stays fast.
func diffCells() map[string][]int {
	return map[string][]int{
		"ppl":      {4, 8, 16, 33, 64},
		"orient":   {3, 8, 16, 33, 64},
		"yokota":   {4, 8, 16, 33, 64},
		"angluin":  {3, 9, 17, 33},
		"fj":       {4, 8, 16, 32},
		"chenchen": {3, 4, 6, 8},
	}
}

// runDiffTrial executes one probed trial with the interned layer forced on
// or off and returns the result plus the captured event stream.
func runDiffTrial(t *testing.T, name string, sc Scenario, n int, seed uint64, generic bool) (TrialResult, *captureProbe) {
	t.Helper()
	internedOff.Store(generic)
	defer internedOff.Store(false)
	p, err := NewProtocol(name)
	if err != nil {
		t.Fatal(err)
	}
	pp, ok := p.(ProbedProtocol)
	if !ok {
		t.Fatalf("%s is not probed", name)
	}
	probe := &captureProbe{}
	res, err := pp.ProbedTrial(sc, p.FixSize(n), seed, probe)
	if err != nil {
		t.Fatal(err)
	}
	return res, probe
}

// assertDiffEqual pins a generic and an interned run of the same cell to
// bit-identical results: the TrialResult (steps, exact hitting time,
// stabilization step, leader accounting via the probe stream) and the full
// typed event stream, including every leader-change step/count, fault
// epochs, the convergence event and the named tracker channel counts.
func assertDiffEqual(t *testing.T, name string, sc Scenario, n int, seed uint64) {
	t.Helper()
	genRes, genProbe := runDiffTrial(t, name, sc, n, seed, true)
	intRes, intProbe := runDiffTrial(t, name, sc, n, seed, false)
	if genRes != intRes {
		t.Fatalf("%s n=%d seed=%d: TrialResult diverged\ngeneric:  %+v\ninterned: %+v", name, n, seed, genRes, intRes)
	}
	if !reflect.DeepEqual(genProbe.events, intProbe.events) {
		la, lb := len(genProbe.events), len(intProbe.events)
		for i := 0; i < la && i < lb; i++ {
			if !reflect.DeepEqual(genProbe.events[i], intProbe.events[i]) {
				t.Fatalf("%s n=%d seed=%d: event %d diverged\ngeneric:  %+v\ninterned: %+v",
					name, n, seed, i, genProbe.events[i], intProbe.events[i])
			}
		}
		t.Fatalf("%s n=%d seed=%d: event stream lengths diverged (%d vs %d)", name, n, seed, la, lb)
	}
	if !reflect.DeepEqual(genProbe.end, intProbe.end) {
		t.Fatalf("%s n=%d seed=%d: probe End diverged\ngeneric:  %+v\ninterned: %+v", name, n, seed, genProbe.end, intProbe.end)
	}
}

// TestInternedMatchesGeneric pins the interned table-lookup engine
// bit-identical to the generic engine for every built-in protocol across
// ring sizes up to 64 and a fan of scheduler seeds: identical RNG streams,
// step counts, exact hitting times, leader accounting and probe event
// streams.
func TestInternedMatchesGeneric(t *testing.T) {
	for name, sizes := range diffCells() {
		for _, n := range sizes {
			for seed := uint64(1); seed <= 4; seed++ {
				assertDiffEqual(t, name, Scenario{}, n, seed)
			}
		}
	}
}

// TestInternedMatchesGenericUnderFaults is the satellite regression test
// for mid-run fault bursts: SetStates installs must re-intern the
// configuration and keep install-time leader-change recording identical,
// for every protocol. The second burst lands mid-recovery of the first on
// the smaller rings, exercising repeated re-interning.
func TestInternedMatchesGenericUnderFaults(t *testing.T) {
	sc := Scenario{Faults: []Fault{
		{AtStep: 500, Agents: 3},
		{AtStep: 4000, Agents: 5},
	}}
	for name, sizes := range diffCells() {
		// The two largest sizes of each protocol keep the matrix fast while
		// still covering both tiers of the pair table.
		for _, n := range sizes[len(sizes)-2:] {
			for seed := uint64(1); seed <= 3; seed++ {
				assertDiffEqual(t, name, sc, n, seed)
			}
		}
	}
}

// TestReuseGuardOutcomes pins the interned layer's reuse guard on the
// paper's scaling cells: cold P_PL trials mint states faster than their
// pair tables are reused and must fall back to the generic engine, while
// the protocols whose tables do get reused stay interned to convergence.
// The ppl n=16 trial converges inside its first window, after the miss
// that dooms it: it falls back too. Either way each TrialResult must
// equal its generic twin.
func TestReuseGuardOutcomes(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n trials skipped in -short")
	}
	cells := []struct {
		name         string
		n            int
		wantInterned bool
	}{
		{"ppl", 16, false}, {"ppl", 64, false}, {"ppl", 128, false}, {"ppl", 256, false},
		{"yokota", 256, true}, {"yokota", 1024, true},
		{"angluin", 33, true}, {"angluin", 65, true},
		{"fj", 32, true}, {"fj", 64, true},
		{"chenchen", 32, true}, {"chenchen", 48, true},
		{"orient", 256, true},
	}
	for _, c := range cells {
		p, err := NewProtocol(c.name)
		if err != nil {
			t.Fatal(err)
		}
		n, seed := p.FixSize(c.n), TrialSeed(c.n, 0)
		ru, err := p.(engineProtocol).newBench(Scenario{}, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		steps, conv, interned := ru.benchInterned(Scenario{}.MaxSteps(p, n))
		if interned != c.wantInterned {
			t.Errorf("%s n=%d: Interned() = %v at the end of the trial, want %v", c.name, n, interned, c.wantInterned)
		}
		res, err := p.Trial(Scenario{}, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != steps || res.Converged != conv {
			t.Fatalf("%s n=%d: Trial (%d, %v) disagrees with the engine run (%d, %v)", c.name, n, res.Steps, res.Converged, steps, conv)
		}
		internedOff.Store(true)
		gen, err := p.Trial(Scenario{}, n, seed)
		internedOff.Store(false)
		if err != nil {
			t.Fatal(err)
		}
		if gen != res {
			t.Fatalf("%s n=%d: TrialResult diverged\ngeneric:  %+v\ninterned: %+v", c.name, n, gen, res)
		}
	}
}

// TestInternedMatchesGenericFuzz widens the seed fan on one mid-size ring
// per protocol, with and without a fault burst.
func TestInternedMatchesGenericFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz matrix skipped in -short")
	}
	ns := map[string]int{"ppl": 32, "orient": 32, "yokota": 32, "angluin": 17, "fj": 16, "chenchen": 6}
	burst := Scenario{Faults: []Fault{{AtStep: 1500, Agents: 4}}}
	for name, n := range ns {
		for seed := uint64(100); seed < 116; seed++ {
			assertDiffEqual(t, name, Scenario{}, n, seed)
			assertDiffEqual(t, name, burst, n, seed)
		}
	}
}
