package repro_test

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"repro"
)

// stubProtocol is a synthetic registry entrant: it converges after
// n² + seed mod n steps without simulating anything.
type stubProtocol struct{}

func (stubProtocol) Info() repro.ProtocolInfo {
	return repro.ProtocolInfo{Name: "stub", Assumption: "none", PaperTime: "O(n²)", PaperStates: "O(1)"}
}
func (stubProtocol) States(n int) uint64   { return 2 }
func (stubProtocol) FixSize(n int) int     { return n }
func (stubProtocol) MaxSteps(n int) uint64 { return 4 * uint64(n) * uint64(n) }
func (stubProtocol) Validate(sc repro.Scenario) error {
	return sc.Validate()
}
func (p stubProtocol) Trial(sc repro.Scenario, n int, seed uint64) (repro.TrialResult, error) {
	if err := p.Validate(sc); err != nil {
		return repro.TrialResult{}, err
	}
	steps := uint64(n)*uint64(n) + seed%uint64(n)
	max := sc.MaxSteps(p, n)
	if steps > max {
		return repro.TrialResult{N: n, Seed: seed}, nil
	}
	return repro.TrialResult{N: n, Seed: seed, Steps: steps, Stabilized: steps / 2, Converged: true}, nil
}

func TestRegistryRoundTrip(t *testing.T) {
	names := repro.Protocols()
	for _, want := range []string{"angluin", "chenchen", "fj", "orient", "ppl", "yokota"} {
		found := false
		for _, name := range names {
			if name == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("built-in %q missing from registry %v", want, names)
		}
		p, err := repro.NewProtocol(want)
		if err != nil {
			t.Fatal(err)
		}
		if p.Info().Name == "" || p.States(16) == 0 || p.MaxSteps(16) == 0 {
			t.Fatalf("%s: degenerate protocol %+v", want, p.Info())
		}
	}
	if _, err := repro.NewProtocol("paxos"); err == nil {
		t.Fatal("unknown protocol resolved")
	}
}

// registerStub registers the stub once per test binary: the registry is
// process-global, and -cpu 1,4 (like -count 2) runs each test twice in
// one process.
var registerStub = sync.OnceValue(func() error {
	return repro.Register("stub-custom", func() repro.Protocol { return stubProtocol{} })
})

func TestRegisterCustomProtocol(t *testing.T) {
	if err := registerStub(); err != nil {
		t.Fatal(err)
	}
	if err := repro.Register("stub-custom", func() repro.Protocol { return stubProtocol{} }); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := repro.Register("", nil); err == nil {
		t.Fatal("empty registration accepted")
	}
	rep, err := repro.NewExperiment().
		ProtocolNames("stub-custom").
		Sizes(8, 16).
		Trials(3).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 || rep.Rows[0].Cells[0].Steps.Count != 3 {
		t.Fatalf("report %+v", rep)
	}
	if !rep.Rows[0].ExponentOK {
		t.Fatal("two clean cells must fit an exponent")
	}
}

// TestExperimentDeterministicAcrossWorkers is the acceptance check of the
// TrialSeed guarantee on the public surface: the full rendered report —
// markdown, JSON and CSV — is byte-identical whatever the worker count.
func TestExperimentDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *repro.Report {
		rep, err := repro.NewExperiment().
			ProtocolNames("ppl", "yokota").
			Sizes(8, 16).
			Trials(4).
			Workers(workers).
			Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial, parallel := run(1), run(4)
	if serial.Markdown() != parallel.Markdown() {
		t.Fatalf("markdown differs across worker counts:\n%s\nvs\n%s",
			serial.Markdown(), parallel.Markdown())
	}
	sj, err := serial.JSON()
	if err != nil {
		t.Fatal(err)
	}
	pj, err := parallel.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Fatal("JSON differs across worker counts")
	}
	sc, err := serial.CSV()
	if err != nil {
		t.Fatal(err)
	}
	pc, err := parallel.CSV()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sc, pc) {
		t.Fatal("CSV differs across worker counts")
	}
}

func TestExperimentBuilderErrors(t *testing.T) {
	ctx := context.Background()
	cases := map[string]*repro.Experiment{
		"no protocols":     repro.NewExperiment().Sizes(8),
		"no sizes":         repro.NewExperiment().ProtocolNames("ppl"),
		"zero trials":      repro.NewExperiment().ProtocolNames("ppl").Sizes(8).Trials(0),
		"unknown protocol": repro.NewExperiment().ProtocolNames("paxos").Sizes(8),
		"nil protocol":     repro.NewExperiment().Protocols(nil).Sizes(8),
		"unsupported init": repro.NewExperiment().ProtocolNames("yokota").Sizes(8).
			Scenario(repro.Scenario{Init: repro.InitNoLeader}),
		"bad fault": repro.NewExperiment().ProtocolNames("ppl").Sizes(8).
			Scenario(repro.Scenario{Faults: []repro.Fault{{AtStep: 1, Agents: -1}}}),
		"bad topology": repro.NewExperiment().ProtocolNames("ppl").Sizes(8).
			Scenario(repro.Scenario{Topology: repro.TopologyUndirectedRing}),
		"bad orient topology": repro.NewExperiment().ProtocolNames("orient").Sizes(8).
			Scenario(repro.Scenario{Topology: repro.TopologyDirectedRing}),
	}
	for name, exp := range cases {
		if _, err := exp.Run(ctx); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestRingSizeBelowTwoIsAnError pins size validation for every built-in
// protocol: an Experiment whose sizes FixSize below two agents fails
// validation, and a direct Trial on such a ring returns an error — neither
// panics. orient bumps every size below 3 up to 3, so its experiments run.
func TestRingSizeBelowTwoIsAnError(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"ppl", "orient", "yokota", "angluin", "fj", "chenchen"} {
		p, err := repro.NewProtocol(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{-3, 0, 1} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s n=%d: panicked: %v", name, n, r)
					}
				}()
				_, err := repro.NewExperiment().ProtocolNames(name).Sizes(n).Trials(1).Run(ctx)
				if name == "orient" {
					if err != nil {
						t.Errorf("orient n=%d: %v", n, err)
					}
				} else if err == nil {
					t.Errorf("%s n=%d: experiment ran", name, n)
				}
				if _, err := p.Trial(repro.Scenario{}, n, 1); err == nil {
					t.Errorf("%s n=%d: trial ran", name, n)
				}
			}()
		}
	}
}

// FuzzTrial drives the built-in protocols' Trial over arbitrary ring sizes
// and seeds under a tiny step budget: whatever it is handed, a trial
// returns an error, or a result for the ring it was asked to run within
// the budget — it never panics. The seeds include sizes FixSize would
// change (orient below three agents, angluin at a multiple of k=2) and
// rings below two agents.
func FuzzTrial(f *testing.F) {
	builtins := []string{"ppl", "orient", "yokota", "angluin", "fj", "chenchen"}
	f.Add(uint8(0), int8(16), uint64(1))
	f.Add(uint8(1), int8(2), uint64(1))
	f.Add(uint8(3), int8(8), uint64(1))
	f.Add(uint8(3), int8(9), uint64(7))
	f.Add(uint8(4), int8(1), uint64(2))
	f.Add(uint8(5), int8(-3), uint64(3))
	sc := repro.Scenario{Budget: repro.Budget{Scale: 1e-4}}
	f.Fuzz(func(t *testing.T, proto uint8, n int8, seed uint64) {
		p, err := repro.NewProtocol(builtins[int(proto)%len(builtins)])
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Trial(sc, int(n), seed)
		if err != nil {
			return
		}
		if budget := sc.MaxSteps(p, int(n)); res.N != int(n) || res.Seed != seed || res.Steps > budget {
			t.Fatalf("%s n=%d seed=%d: result %+v, budget %d", p.Info().Name, n, seed, res, budget)
		}
	})
}

func TestExperimentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := repro.NewExperiment().ProtocolNames("ppl").Sizes(8, 16).Trials(4).Run(ctx); err == nil {
		t.Fatal("cancelled experiment reported no error")
	}
}

func TestExperimentObserver(t *testing.T) {
	var events []repro.Progress
	rep, err := repro.NewExperiment().
		ProtocolNames("ppl").
		Sizes(8).
		Trials(3).
		Workers(1).
		Observer(func(p repro.Progress) { events = append(events, p) }).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("observer saw %d events, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Trials != 3 || ev.N != 8 || ev.Protocol != rep.Rows[0].Protocol.Name {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
}

func TestExperimentMaxSizeFor(t *testing.T) {
	rep, err := repro.NewExperiment().
		ProtocolNames("ppl").
		Sizes(8, 16).
		Trials(1).
		MaxSizeFor("P_PL (this work)", 8).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cells := rep.Rows[0].Cells
	if len(cells) != 2 || cells[0].N != 8 || cells[1].N != 16 {
		t.Fatalf("cells not aligned with sizes: %+v", cells)
	}
	if len(cells[0].Trials) != 1 || len(cells[1].Trials) != 0 {
		t.Fatalf("cap ignored: %+v", cells)
	}
	if rep.Rows[0].ExponentOK {
		t.Fatal("a single populated cell must not fit an exponent")
	}
	if !strings.Contains(rep.Markdown(), "| — |") {
		t.Fatalf("capped cell not rendered as missing:\n%s", rep.Markdown())
	}
}

// TestExperimentMaxSizeForAlignment pins the capped-row rendering to the
// right size rows even when sizes are not ascending: the skipped size must
// render as missing, never shifted onto another row's numbers.
func TestExperimentMaxSizeForAlignment(t *testing.T) {
	rep, err := repro.NewExperiment().
		ProtocolNames("ppl", "yokota").
		Sizes(16, 8).
		Trials(1).
		MaxSizeFor("[28] Yokota et al.", 8).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	md := rep.Markdown()
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(line, "| 16 |") && !strings.HasSuffix(line, "| — |") {
			t.Fatalf("capped n=16 cell not rendered as missing: %q\n%s", line, md)
		}
	}
	yok := rep.Rows[1]
	if len(yok.Cells) != 2 || len(yok.Cells[0].Trials) != 0 || len(yok.Cells[1].Trials) != 1 {
		t.Fatalf("yokota cells misaligned: %+v", yok.Cells)
	}
}
