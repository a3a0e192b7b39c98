package repro

import (
	"reflect"
	"testing"

	"repro/internal/angluin"
	"repro/internal/population"
	"repro/internal/yokota"
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

// internedCells is diffCells without P_PL, which attaches no interned
// tables: both legs of an interned-against-generic differential would run
// the generic engine.
func internedCells() map[string][]int {
	cells := diffCells()
	delete(cells, "ppl")
	return cells
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
// bit-identical to the generic engine for every built-in protocol that
// interns, across ring sizes up to 64 and a fan of scheduler seeds:
// identical RNG streams, step counts, exact hitting times, leader
// accounting and probe event streams.
func TestInternedMatchesGeneric(t *testing.T) {
	for name, sizes := range internedCells() {
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
// for every protocol that interns. The second burst lands mid-recovery of
// the first on the smaller rings, exercising repeated re-interning.
func TestInternedMatchesGenericUnderFaults(t *testing.T) {
	sc := Scenario{Faults: []Fault{
		{AtStep: 500, Agents: 3},
		{AtStep: 4000, Agents: 5},
	}}
	for name, sizes := range internedCells() {
		// The two largest sizes of each protocol keep the matrix fast while
		// still covering both tiers of the pair table.
		for _, n := range sizes[len(sizes)-2:] {
			for seed := uint64(1); seed <= 3; seed++ {
				assertDiffEqual(t, name, sc, n, seed)
			}
		}
	}
}

// TestReuseGuardOutcomes pins table reuse on the paper's scaling cells:
// the pairs of every protocol that interns repeat, so each trial stays on
// the interned layer to convergence with no fallback, and each TrialResult
// equals its generic twin. P_PL, whose trials visit mostly fresh states,
// attaches no tables (TestRunBenchmarkWithoutTables).
func TestReuseGuardOutcomes(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n trials skipped in -short")
	}
	cells := []struct {
		name string
		n    int
	}{
		{"yokota", 256}, {"yokota", 1024},
		{"angluin", 33}, {"angluin", 65},
		{"fj", 32}, {"fj", 64},
		{"chenchen", 32}, {"chenchen", 48},
		{"orient", 256},
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
		if !interned {
			t.Errorf("%s n=%d: the trial fell back to the generic engine", c.name, n)
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

// fallbackCap caps the table sets of TestCappedTablesFallBackMidTrial: above
// the distinct states of any of its initial configurations (at most 33 for
// yokota, 29 for angluin at n=33), below the states any of its runs visits
// (at least 176 and 49).
const fallbackCap = 40

// TestCappedTablesFallBackMidTrial trips the interner's capacity cap
// inside real protocol trials: yokota and angluin at n=33, plain and with a
// fault burst, each run over a table set its descriptor builds with
// fallbackCap. Every run must start interned, fall back mid-run once the
// interner is full, and still equal Trial's result — the fallback executes
// the arc it has already drawn on the generic engine and goes on with the
// same scheduler stream.
func TestCappedTablesFallBackMidTrial(t *testing.T) {
	for _, sc := range []Scenario{{}, {Faults: []Fault{{AtStep: 500, Agents: 3}}}} {
		for _, seed := range []uint64{1, 2, 3, 5, 8, 13} {
			assertCappedFallback[yokota.State](t, "yokota", sc, 33, seed)
			assertCappedFallback[angluin.State](t, "angluin", sc, 33, seed)
		}
	}
}

// assertCappedFallback runs one trial of the built-in protocol name over a
// table set capped at fallbackCap; see TestCappedTablesFallBackMidTrial.
func assertCappedFallback[S comparable](t *testing.T, name string, sc Scenario, n int, seed uint64) {
	t.Helper()
	p, err := NewProtocol(name)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Trial(sc, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	rp := p.(*ringProtocol[S])
	tab := rp.tables(n, population.InternOptions{MaxStates: fallbackCap})
	te := rp.trial(sc, n, seed, tab)
	start := make(map[S]bool)
	for _, s := range te.eng.Snapshot() {
		start[s] = true
	}
	if len(start) >= fallbackCap {
		t.Fatalf("%s n=%d seed=%d: %d distinct initial states leave no room under the cap %d", name, n, seed, len(start), fallbackCap)
	}
	got := te.run(sc, n, seed, sc.MaxSteps(p, n), name, nil)
	if te.accel.Interned() || tab.States() != fallbackCap {
		t.Fatalf("%s n=%d seed=%d: interned=%v with %d states; want a fallback with the interner full at %d",
			name, n, seed, te.accel.Interned(), tab.States(), fallbackCap)
	}
	if got != want {
		t.Fatalf("%s n=%d seed=%d faults=%d: capped trial diverged\ncapped: %+v\nTrial:  %+v",
			name, n, seed, len(sc.Faults), got, want)
	}
}

// TestInternedMatchesGenericFuzz widens the seed fan on one mid-size ring
// per protocol that interns, with and without a fault burst.
func TestInternedMatchesGenericFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz matrix skipped in -short")
	}
	ns := map[string]int{"orient": 32, "yokota": 32, "angluin": 17, "fj": 16, "chenchen": 6}
	burst := Scenario{Faults: []Fault{{AtStep: 1500, Agents: 4}}}
	for name, n := range ns {
		for seed := uint64(100); seed < 116; seed++ {
			assertDiffEqual(t, name, Scenario{}, n, seed)
			assertDiffEqual(t, name, burst, n, seed)
		}
	}
}
