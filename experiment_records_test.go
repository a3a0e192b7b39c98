package repro

import (
	"bytes"
	"context"
	"math"
	"testing"
)

// replayExperiment returns the experiment configuration shared by the
// run and replay sides of the ReportFromRecords tests.
func replayExperiment() *Experiment {
	return NewExperiment().
		ProtocolNames("angluin", "fj").
		Sizes(8, 16).
		Trials(3).
		Scenario(Scenario{Faults: []Fault{{AtStep: 50, Agents: 2}}}).
		Metrics(MeanOf("recovery_steps"), CountOf("steps")).
		// MaxSizeFor matches ProtocolInfo.Name, the Table 1 display name.
		MaxSizeFor("[15] Fischer–Jiang", 8)
}

func TestReportFromRecordsMatchesRun(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	rep, err := replayExperiment().Sinks(sink).Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatalf("rep.JSON: %v", err)
	}

	recs, err := ReadTrialRecords(&buf)
	if err != nil {
		t.Fatalf("ReadTrialRecords: %v", err)
	}
	replayed, err := replayExperiment().ReportFromRecords(recs)
	if err != nil {
		t.Fatalf("ReportFromRecords: %v", err)
	}
	got, err := replayed.JSON()
	if err != nil {
		t.Fatalf("replayed.JSON: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("replayed report differs from run report:\n--- run ---\n%s\n--- replay ---\n%s", want, got)
	}

	// The renderers must agree too — the service serves all three.
	md1, md2 := rep.Markdown(), replayed.Markdown()
	if md1 != md2 {
		t.Fatal("replayed Markdown differs from run Markdown")
	}
	csv1, err := rep.CSV()
	if err != nil {
		t.Fatalf("rep.CSV: %v", err)
	}
	csv2, err := replayed.CSV()
	if err != nil {
		t.Fatalf("replayed.CSV: %v", err)
	}
	if !bytes.Equal(csv1, csv2) {
		t.Fatal("replayed CSV differs from run CSV")
	}
}

func TestReportFromRecordsRejectsPartialArtifacts(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	if _, err := replayExperiment().Sinks(sink).Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	recs, err := ReadTrialRecords(&buf)
	if err != nil {
		t.Fatalf("ReadTrialRecords: %v", err)
	}
	if _, err := replayExperiment().ReportFromRecords(recs[:len(recs)-1]); err == nil {
		t.Fatal("ReportFromRecords accepted a partial record set")
	}
	if _, err := replayExperiment().ReportFromRecords(nil); err == nil {
		t.Fatal("ReportFromRecords accepted an empty record set")
	}
}

// TestAggregateCountsFailures pins the cell reduction of reportSink: a
// trial that did not converge counts as a failure and stays out of the
// step summaries.
func TestAggregateCountsFailures(t *testing.T) {
	rs := newReportSink(NewExperiment().Sizes(8).Trials(3))
	rs.beginCell(8)
	for i, rec := range []TrialRecord{
		{N: 8, Steps: 100, Stabilized: 50, Converged: true},
		{N: 8},
		{N: 8, Steps: 300, Stabilized: 150, Converged: true},
	} {
		rec.Trial = i
		if err := rs.Record(rec); err != nil {
			t.Fatal(err)
		}
	}
	rs.endCell()
	cell := rs.row.Cells[0]
	if cell.Failures != 1 {
		t.Fatalf("failures = %d, want 1", cell.Failures)
	}
	if cell.Steps.Count != 2 || cell.Steps.Mean != 200 || cell.Stabilized.Mean != 100 {
		t.Fatalf("summaries %+v / %+v", cell.Steps, cell.Stabilized)
	}
}

func summaryOf(v float64) Summary { return Summary{Count: 1, Mean: v} }

func TestExponentOnSyntheticCells(t *testing.T) {
	var cells []ReportCell
	for _, n := range []int{16, 32, 64, 128} {
		cells = append(cells, ReportCell{N: n, Steps: summaryOf(float64(n) * float64(n))})
	}
	got, ok := fitExponent(cells)
	if !ok {
		t.Fatal("fit reported no data")
	}
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("exponent = %v, want 2", got)
	}
}

// TestExponentNoData pins the "no data" contract: fewer than two usable
// cells yield ok=false, not an ambiguous zero.
func TestExponentNoData(t *testing.T) {
	if _, ok := fitExponent(nil); ok {
		t.Fatal("empty cells must report no fit")
	}
	// A skipped or failure-only cell carries no data.
	if _, ok := fitExponent([]ReportCell{{N: 8, Steps: summaryOf(100)}, {N: 16}}); ok {
		t.Fatal("a single usable cell must report no fit")
	}
	// A genuine flat fit is a real zero, distinguished from "no data".
	flat := []ReportCell{
		{N: 8, Steps: summaryOf(100)},
		{N: 16, Steps: summaryOf(100)},
	}
	got, ok := fitExponent(flat)
	if !ok || math.Abs(got) > 1e-9 {
		t.Fatalf("flat fit = (%v, %v), want (0, true)", got, ok)
	}
}
