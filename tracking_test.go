package repro

import (
	"math"
	"testing"

	"repro/internal/population"
	"repro/internal/xrand"
)

// TestTrialTrackedMatchesScanOracle is the wiring-level exactness check:
// for every registered built-in protocol, the production Trial (incremental
// tracker) must report exactly the TrialResult of the same trial judged by
// the per-step brute-force scan oracle (convergenceScanEvery = 1).
func TestTrialTrackedMatchesScanOracle(t *testing.T) {
	cases := map[string]int{
		"ppl": 16, "yokota": 16, "angluin": 16, "fj": 16, "orient": 16,
		"chenchen": 8, // exponential-class reconstruction: small ring
	}
	for name, size := range cases {
		t.Run(name, func(t *testing.T) {
			p, err := NewProtocol(name)
			if err != nil {
				t.Fatal(err)
			}
			n := p.FixSize(size)
			for seed := uint64(1); seed <= 3; seed++ {
				tracked, err := p.Trial(Scenario{}, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				convergenceScanEvery.Store(1)
				scanned, err := p.Trial(Scenario{}, n, seed)
				convergenceScanEvery.Store(0)
				if err != nil {
					t.Fatal(err)
				}
				if tracked != scanned {
					t.Fatalf("seed %d: tracked %+v != per-step scan %+v", seed, tracked, scanned)
				}
				if !tracked.Converged {
					t.Fatalf("seed %d: no convergence", seed)
				}
			}
		})
	}
}

// TestTrialStepsNotQuantized pins the headline fix: hitting times are no
// longer rounded up to the scan era's checkEvery = n/2+1 grid. Under the
// old polling loop every reported Steps was a multiple of the grid; the
// exact tracker must produce off-grid values for some seeds, and never a
// later step than the grid did.
func TestTrialStepsNotQuantized(t *testing.T) {
	p := PPL(0, 0)
	const n = 16
	grid := uint64(n/2 + 1)
	offGrid := false
	for seed := uint64(1); seed <= 12; seed++ {
		exact, err := p.Trial(Scenario{}, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		convergenceScanEvery.Store(int64(grid))
		coarse, err := p.Trial(Scenario{}, n, seed)
		convergenceScanEvery.Store(0)
		if err != nil {
			t.Fatal(err)
		}
		if !exact.Converged || !coarse.Converged {
			t.Fatalf("seed %d: convergence missing", seed)
		}
		if coarse.Steps%grid != 0 {
			t.Fatalf("seed %d: scan-era steps %d not on its own %d-grid", seed, coarse.Steps, grid)
		}
		if exact.Steps > coarse.Steps || coarse.Steps-exact.Steps >= grid {
			t.Fatalf("seed %d: exact %d vs grid %d — not within [0, %d) slack",
				seed, exact.Steps, coarse.Steps, grid)
		}
		if exact.Steps%grid != 0 {
			offGrid = true
		}
	}
	if !offGrid {
		t.Fatal("every exact hitting time landed on the old grid — tracking suspiciously quantized")
	}
}

// flipState is a minimal leader-bit state for fault-accounting tests.
type flipState struct{ leader bool }

// TestFaultInstallRecordsLeaderChange pins the trialEngine half of the
// fault-accounting fix: a burst whose install changes the leader set must
// move Stabilized to the install step even when no interaction afterwards
// touches a leader bit. Under the pre-fix engine this reported 0. The
// engine has no tracker, so the per-step scan oracle judges convergence.
func TestFaultInstallRecordsLeaderChange(t *testing.T) {
	eng := population.NewEngine(population.DirectedRing(4),
		func(l, r flipState) (flipState, flipState) { return l, r }, // no-op protocol
		xrand.New(1))
	eng.TrackLeaders(func(s flipState) bool { return s.leader })
	te := trialEngine[flipState]{
		eng:     eng,
		corrupt: func(*xrand.RNG, flipState) flipState { return flipState{leader: true} },
		pred:    func([]flipState) bool { return true },
	}
	convergenceScanEvery.Store(1)
	defer convergenceScanEvery.Store(0)
	res := te.run(Scenario{Faults: []Fault{{AtStep: 5, Agents: 1}}}, 4, 7, 100, "flip", nil)
	if res.Steps != 5 {
		t.Fatalf("trial ended at step %d, want the install step 5", res.Steps)
	}
	if res.Stabilized != 5 {
		t.Fatalf("Stabilized = %d, want the install step 5 (pre-fault value leaked)", res.Stabilized)
	}
}

// TestFaultScheduleStabilizedNotPreFault is the public-API half: a
// full-ring burst fired after the fault-free convergence point rewrites
// the leader set, so the recovered trial's stabilization step must lie at
// or after the burst — never at the pre-fault value.
func TestFaultScheduleStabilizedNotPreFault(t *testing.T) {
	p := PPL(0, 0)
	const n, seed = 16, 2
	clean, err := p.Trial(Scenario{}, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Converged {
		t.Fatalf("fault-free trial did not converge: %+v", clean)
	}
	burst := clean.Steps + 500
	faulted, err := p.Trial(Scenario{Faults: []Fault{{AtStep: burst, Agents: n}}}, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !faulted.Converged {
		t.Fatalf("did not recover: %+v", faulted)
	}
	if faulted.Stabilized < burst {
		t.Fatalf("Stabilized = %d before the burst at %d — fault install not accounted", faulted.Stabilized, burst)
	}
}

// TestBudgetScaleClamp pins the tiny-Scale fix: a positive scale that
// truncates to zero resolves to a 1-step budget (the trial actually runs,
// and fails honestly), and malformed scales are rejected by Validate.
func TestBudgetScaleClamp(t *testing.T) {
	p := PPL(0, 0)
	sc := Scenario{Budget: Budget{Scale: 1e-12}}
	if got := sc.MaxSteps(p, 16); got != 1 {
		t.Fatalf("resolved budget %d, want the 1-step clamp", got)
	}
	res, err := p.Trial(sc, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("1-step budget cannot elect on n=16")
	}
	if res.Steps != 1 {
		t.Fatalf("trial ran %d steps under a clamped 1-step budget", res.Steps)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5} {
		if err := (Scenario{Budget: Budget{Scale: bad}}).Validate(); err == nil {
			t.Fatalf("scale %v validated", bad)
		}
	}
	// A huge finite scale saturates instead of hitting Go's
	// implementation-specific out-of-range float→uint64 conversion.
	huge := Scenario{Budget: Budget{Scale: 1e30}}
	if got := huge.MaxSteps(p, 16); got != math.MaxUint64 {
		t.Fatalf("huge scale resolved to %d, want saturation", got)
	}
	if err := (Scenario{Budget: Budget{Scale: 0.5}}).Validate(); err != nil {
		t.Fatalf("honest scale rejected: %v", err)
	}
}

// TestRunBenchmarkModes exercises the public perf-baseline surface behind
// cmd/bench in the raw, tracked and cold modes and its input validation;
// the tracked-vs-scan exactness lives in TestTrialTrackedMatchesScanOracle.
func TestRunBenchmarkModes(t *testing.T) {
	for _, mode := range []BenchMode{BenchRaw, BenchTracked} {
		res, err := RunBenchmark("ppl", 16, 1, Scenario{}, mode, 5000)
		if err != nil {
			t.Fatal(err)
		}
		if res.N != 16 || res.Steps == 0 || !res.Converged || res.StepsPerSec <= 0 {
			t.Fatalf("%s: degenerate result %+v", mode, res)
		}
		if mode == BenchRaw && res.Steps != 5000 {
			t.Fatalf("raw mode ran %d steps, want the requested 5000", res.Steps)
		}
	}
	// The cold mode times Trial itself: its row is the user trial's result.
	for _, c := range []struct {
		name string
		n    int
		seed uint64
	}{{"ppl", 16, 1}, {"yokota", 32, 2}} {
		res, err := RunBenchmark(c.name, c.n, c.seed, Scenario{}, BenchCold, 0)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := NewProtocol(c.name)
		want, err := p.Trial(Scenario{}, c.n, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Mode != BenchCold || res.Steps != want.Steps || res.Converged != want.Converged || res.StepsPerSec <= 0 {
			t.Fatalf("%s n=%d cold row %+v, Trial %+v", c.name, c.n, res, want)
		}
	}
	if _, err := RunBenchmark("yokota", 16, 1, Scenario{Init: InitNoLeader}, BenchCold, 0); err == nil {
		t.Fatal("cold mode accepted an unsupported scenario")
	}
	if _, err := RunBenchmark("paxos", 16, 1, Scenario{}, BenchTracked, 0); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := RunBenchmark("ppl", 16, 1, Scenario{}, BenchMode("warp"), 0); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := RunBenchmark("yokota", 16, 1, Scenario{Init: InitNoLeader}, BenchTracked, 0); err == nil {
		t.Fatal("unsupported scenario accepted")
	}
	faulty := Scenario{Faults: []Fault{{AtStep: 100, Agents: 4}}}
	if _, err := RunBenchmark("ppl", 16, 1, faulty, BenchTracked, 0); err == nil {
		t.Fatal("fault schedule accepted — it would be silently skipped")
	}
	// A one-agent ring is an error in every mode, as it is for Trial — not
	// a panic from the step budget or the ring constructor.
	for _, name := range []string{"ppl", "yokota"} {
		for _, mode := range []BenchMode{BenchRaw, BenchTracked, BenchInterned, BenchLanes, BenchCold} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s n=1 %s: panic %v", name, mode, r)
					}
				}()
				if _, err := RunBenchmark(name, 1, 1, Scenario{}, mode, 100); err == nil {
					t.Fatalf("%s n=1 %s: one-agent ring accepted", name, mode)
				}
			}()
		}
	}
}
