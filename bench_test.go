package repro

// Benchmark harness for every table and figure of the paper, driven
// through the public Protocol API; the E1–E13 numbering matches the
// cmd/sweep experiment sections.
//
// One benchmark iteration is one full protocol trial; the quantity the
// paper bounds — scheduler steps to convergence — is emitted as the
// custom metric "steps/op", so absolute wall-clock throughput and the
// model-level cost are reported side by side.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lottery"
	"repro/internal/orient"
	"repro/internal/population"
	"repro/internal/runner"
	"repro/internal/twohop"
	"repro/internal/xrand"
)

// benchTrials fans b.N independent trials out across the internal/runner
// worker pool (b.RunParallel-style batching: iterations are protocol trials,
// cores share them) and returns the per-trial results. Seeds depend only on
// the iteration index, so every reported metric is identical to a serial
// loop — only wall-clock time shrinks.
func benchTrials[T any](b *testing.B, fn func(i int) T) []T {
	b.Helper()
	out, err := runner.Map(context.Background(), b.N, fn, runner.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// benchStepsPerOp fans b.N trials of fn out through the pool, fails the
// benchmark with failMsg if any trial did not complete, and reports the mean
// step count as steps/op.
func benchStepsPerOp(b *testing.B, failMsg string, fn func(i int) (uint64, bool)) {
	b.Helper()
	type trial struct {
		steps uint64
		ok    bool
	}
	results := benchTrials(b, func(i int) trial {
		steps, ok := fn(i)
		return trial{steps, ok}
	})
	var total uint64
	for _, tr := range results {
		if !tr.ok {
			b.Fatal(failMsg)
		}
		total += tr.steps
	}
	b.ReportMetric(float64(total)/float64(b.N), "steps/op")
}

// runProtocol benchmarks one (protocol, n) cell of the scenario.
func runProtocol(b *testing.B, p Protocol, sc Scenario, n int) {
	b.Helper()
	n = p.FixSize(n)
	results := benchTrials(b, func(i int) TrialResult {
		res, err := p.Trial(sc, n, uint64(i)+1)
		if err != nil {
			panic(err)
		}
		return res
	})
	var total uint64
	fails := 0
	for _, res := range results {
		if !res.Converged {
			fails++
			continue
		}
		total += res.Steps
	}
	if b.N > fails {
		b.ReportMetric(float64(total)/float64(b.N-fails), "steps/op")
	}
	b.ReportMetric(float64(fails), "failures")
}

// BenchmarkTable1 is E1: convergence steps of every protocol row across
// ring sizes. The Θ(n³)-class baselines are capped at smaller sizes and
// the [11]-style baseline at n=8 (see internal/chenchen).
func BenchmarkTable1(b *testing.B) {
	type row struct {
		proto Protocol
		sizes []int
	}
	rows := []row{
		{angluinProtocol(), []int{9, 17, 33}},
		{fjProtocol(), []int{8, 16, 32}},
		{chenchenProtocol(), []int{4, 8}},
		{yokotaProtocol(), []int{16, 32, 64, 128}},
		{PPL(0, 0), []int{16, 32, 64, 128}},
	}
	for _, r := range rows {
		for _, n := range r.sizes {
			b.Run(fmt.Sprintf("%s/n=%d", r.proto.Info().Name, n), func(b *testing.B) {
				runProtocol(b, r.proto, Scenario{}, n)
			})
		}
	}
}

// BenchmarkStateCount is E2: the #states column of Table 1. The metric is
// bits per agent at each size.
func BenchmarkStateCount(b *testing.B) {
	for _, n := range []int{1 << 6, 1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var bits float64
			for i := 0; i < b.N; i++ {
				bits = core.NewParams(n).BitsPerAgent()
			}
			b.ReportMetric(bits, "bits/agent")
		})
	}
}

// BenchmarkFigure1Perfect is E3: constructing and verifying the Figure 1
// embedding (a perfect configuration in S_PL).
func BenchmarkFigure1Perfect(b *testing.B) {
	p := core.NewParams(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := p.PerfectConfig(0, 8)
		if !p.IsSafe(cfg) {
			b.Fatal("perfect configuration not safe")
		}
	}
}

// BenchmarkFigure2Trajectory is E4: one complete token trajectory under
// the deterministic Lemma 3.5 schedule; steps/op is the trajectory length
// 2ψ²−2ψ+1.
func BenchmarkFigure2Trajectory(b *testing.B) {
	for _, psi := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("psi=%d", psi), func(b *testing.B) {
			var moves int
			for i := 0; i < b.N; i++ {
				positions, _, _ := core.TrajectoryTrace(psi, 3)
				moves = len(positions) + 1
			}
			b.ReportMetric(float64(moves), "moves/op")
		})
	}
}

// BenchmarkLemma23 is E5: occurrence time of seq_R(0, n) among n arcs;
// steps/op should track n·ℓ = n².
func BenchmarkLemma23(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := xrand.New(7)
			schedule := population.ScheduleSeqR(n, 0, n)
			var total uint64
			for i := 0; i < b.N; i++ {
				total += population.OccurrenceTime(n, schedule, rng)
			}
			b.ReportMetric(float64(total)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkLottery is E6: W_LG sampling at the Lemma 3.9 parameters.
func BenchmarkLottery(b *testing.B) {
	for _, k := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := xrand.New(9)
			flips, _ := lottery.Lemma39Params(k, 1)
			var wins int
			for i := 0; i < b.N; i++ {
				wins += lottery.Wins(k, flips, rng)
			}
			b.ReportMetric(float64(wins)/float64(b.N), "wins/op")
		})
	}
}

// BenchmarkModeDetermination is E7 / Lemma 3.7: steps until every agent of
// a leaderless ring reaches detection mode (or a leader is created).
func BenchmarkModeDetermination(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := core.NewParams(n)
			pr := core.New(p)
			benchStepsPerOp(b, "mode determination never completed", func(i int) (uint64, bool) {
				eng := population.NewEngine(population.DirectedRing(n), pr.Step, xrand.New(uint64(i)))
				cfg := p.NoLeaderAligned()
				for j := range cfg {
					cfg[j].Clock = 0 // start in construction mode
				}
				eng.SetStates(cfg)
				return eng.RunUntil(func(c []core.State) bool {
					allDetect := true
					for _, s := range c {
						if s.Leader {
							return true
						}
						if p.Mode(s) != core.Detect {
							allDetect = false
						}
					}
					return allDetect
				}, n, 3000*uint64(n)*uint64(n)*uint64(p.Psi))
			})
		})
	}
}

// BenchmarkTheorem31 is E8: P_PL convergence to S_PL per adversarial
// initial class, with the normalized metric steps/(n² log n) that the
// theorem predicts to be flat in n.
func BenchmarkTheorem31(b *testing.B) {
	classes := []struct {
		name string
		init InitClass
	}{
		{"random", InitRandom},
		{"noleader", InitNoLeader},
		{"allleaders", InitAllLeaders},
		{"corrupted", InitCorrupted},
	}
	for _, cl := range classes {
		for _, n := range []int{32, 64, 128} {
			b.Run(fmt.Sprintf("%s/n=%d", cl.name, n), func(b *testing.B) {
				p := PPL(0, 0)
				sc := Scenario{Init: cl.init}
				results := benchTrials(b, func(i int) TrialResult {
					res, err := p.Trial(sc, n, uint64(i)+1)
					if err != nil {
						panic(err)
					}
					return res
				})
				var total uint64
				for _, res := range results {
					if !res.Converged {
						b.Fatal("no convergence")
					}
					total += res.Steps
				}
				mean := float64(total) / float64(b.N)
				b.ReportMetric(mean, "steps/op")
				b.ReportMetric(mean/(float64(n)*float64(n)*math.Log2(float64(n))), "steps/n²logn")
			})
		}
	}
}

// BenchmarkOrientation is E9 / Theorem 5.2: P_OR convergence on undirected
// rings.
func BenchmarkOrientation(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			colors := twohop.Coloring(n)
			p := orient.New()
			benchStepsPerOp(b, "orientation never completed", func(i int) (uint64, bool) {
				eng := population.NewEngine(population.UndirectedRing(n), p.Step, xrand.New(uint64(i)))
				eng.SetStates(orient.InitialConfig(colors, xrand.New(uint64(i)+999)))
				return eng.RunUntil(orient.Oriented, n, 4000*uint64(n)*uint64(n))
			})
		})
	}
}

// BenchmarkAblationKappa is E10: the κ_max = c₁ψ trade-off at fixed n.
func BenchmarkAblationKappa(b *testing.B) {
	const n = 64
	for _, c1 := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("c1=%d", c1), func(b *testing.B) {
			runProtocol(b, PPL(0, c1), Scenario{}, n)
		})
	}
}

// BenchmarkAblationPsi is E11: slack in the knowledge ψ at fixed n.
func BenchmarkAblationPsi(b *testing.B) {
	const n = 64
	for _, slack := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("slack=%d", slack), func(b *testing.B) {
			runProtocol(b, PPL(slack, 0), Scenario{}, n)
			b.ReportMetric(core.NewParamsSlack(n, slack, core.DefaultC1).BitsPerAgent(), "bits/agent")
		})
	}
}

// BenchmarkElimination is E12 / Lemma 4.11: from an all-leaders start,
// steps until exactly one leader survives.
func BenchmarkElimination(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := core.NewParams(n)
			pr := core.New(p)
			benchStepsPerOp(b, "elimination never finished", func(i int) (uint64, bool) {
				eng := population.NewEngine(population.DirectedRing(n), pr.Step, xrand.New(uint64(i)))
				eng.SetStates(p.AllLeaders())
				eng.TrackLeaders(core.IsLeader)
				return eng.RunUntil(func(c []core.State) bool {
					return core.LeaderCount(c) == 1
				}, n, 2000*uint64(n)*uint64(n))
			})
		})
	}
}

// BenchmarkClosureHold is E13 / Lemma 4.7: simulation throughput inside
// S_PL, asserting that the leader output never changes.
func BenchmarkClosureHold(b *testing.B) {
	p := core.NewParams(128)
	pr := core.New(p)
	eng := population.NewEngine(population.DirectedRing(p.N), pr.Step, xrand.New(1))
	eng.SetStates(p.PerfectConfig(0, 0))
	eng.TrackLeaders(core.IsLeader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.StopTimer()
	if eng.LeaderChanges() != 0 {
		b.Fatalf("leader output changed %d times inside S_PL", eng.LeaderChanges())
	}
}

// BenchmarkEngineThroughput reports the raw simulation rate of the P_PL
// transition — context for translating steps/op into wall-clock time.
func BenchmarkEngineThroughput(b *testing.B) {
	p := core.NewParams(1024)
	pr := core.New(p)
	eng := population.NewEngine(population.DirectedRing(p.N), pr.Step, xrand.New(1))
	eng.SetStates(p.RandomConfig(xrand.New(2)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}
