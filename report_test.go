package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files")

// goldenReport is the fixed experiment behind the golden files: small
// enough to run in milliseconds, rich enough to cover missing cells (the
// capped [28] row), exponent fits and the scenario block.
func goldenReport(t *testing.T) *repro.Report {
	t.Helper()
	rep, err := repro.NewExperiment().
		ProtocolNames("yokota", "ppl").
		Sizes(8, 16).
		Trials(2).
		MaxSizeFor("[28] Yokota et al.", 8).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestReportGolden -update .` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestReportGoldenJSON pins the exact JSON artifact bytes — CI consumers
// and BENCH trajectories parse these.
func TestReportGoldenJSON(t *testing.T) {
	data, err := goldenReport(t).JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.json", data)

	// The artifact must round-trip through the public types.
	var back repro.Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 2 || back.Trials != 2 {
		t.Fatalf("round-tripped report %+v", back)
	}
}

// TestReportGoldenCSV pins the exact CSV artifact bytes.
func TestReportGoldenCSV(t *testing.T) {
	data, err := goldenReport(t).CSV()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.csv", data)

	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// Header + one record per executed cell: yokota capped to n=8, ppl at
	// both sizes.
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "protocol,n,trials,failures,steps_mean") {
		t.Fatalf("CSV header: %s", lines[0])
	}
}

// failureReport is a report whose every trial fails: a 1-step budget
// cannot reach S_PL, so each cell has trials but zero converged ones.
func failureReport(t *testing.T) *repro.Report {
	t.Helper()
	rep, err := repro.NewExperiment().
		ProtocolNames("ppl").
		Sizes(8, 16).
		Trials(2).
		Scenario(repro.Scenario{Budget: repro.Budget{MaxSteps: 1}}).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestReportGoldenFailureOnly pins the rendering of cells with zero
// converged trials: summaries are explicit nulls in JSON and empty fields
// in CSV — never stale zeros that read like measured values.
func TestReportGoldenFailureOnly(t *testing.T) {
	rep := failureReport(t)
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report_failed.json", data)
	if !strings.Contains(string(data), `"mean": null`) {
		t.Fatalf("failure-only summary not null in JSON:\n%s", data)
	}
	var back repro.Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if c := back.Rows[0].Cells[0]; c.Failures != 2 || c.Steps.Count != 0 || c.Steps.Mean != 0 {
		t.Fatalf("null summaries did not round-trip to zero values: %+v", c)
	}

	csvData, err := rep.CSV()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report_failed.csv", csvData)
	lines := strings.Split(strings.TrimSpace(string(csvData)), "\n")
	if len(lines) != 3 {
		t.Fatalf("failure CSV:\n%s", csvData)
	}
	// protocol,n,trials,failures, then 7 empty statistic fields, then the
	// (empty) exponent.
	if !strings.Contains(lines[1], ",2,2,,,,,,,,") {
		t.Fatalf("failure CSV row carries non-empty statistics: %q", lines[1])
	}

	md := rep.Markdown()
	if !strings.Contains(md, "| — |") {
		t.Fatalf("failure-only cells must render as missing in markdown:\n%s", md)
	}
}

// TestReportGoldenMarkdown pins the exact Markdown bytes: FixSize-adjusted
// n labels (orient and the mod-k baseline bump n=2 to 3, angluin bumps
// even sizes, slash-joined where protocols disagree), a capped row, the
// escaped |Q| header, exponent fits, and a failure-only report.
func TestReportGoldenMarkdown(t *testing.T) {
	rep, err := repro.NewExperiment().
		ProtocolNames("yokota", "ppl", "angluin", "orient").
		Sizes(2, 8, 16).
		Trials(2).
		MaxSizeFor("[28] Yokota et al.", 8).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.md", []byte(rep.Markdown()+"\n"+failureReport(t).Markdown()))
}

// TestReportMarkdownShape covers the rendered layout: heading per
// scenario, the escaped |Q| column, missing cells for the capped row, and
// the em-dash for an unfittable exponent.
func TestReportMarkdownShape(t *testing.T) {
	md := goldenReport(t).Markdown()
	for _, want := range []string{
		"### Mean convergence steps (random adversarial starts)",
		"### Table 1 reproduction",
		`\|Q\|(n=16)`,
		"| — |",
		"Trials per cell: 2.",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	if strings.Contains(md, " |Q|(") {
		t.Fatalf("unescaped |Q| header:\n%s", md)
	}
}

// TestTableRendering covers the steps table's basics: a column per
// protocol name, the mean of a populated cell, and the em-dash of a cell
// without data.
func TestTableRendering(t *testing.T) {
	rep := repro.Report{Sizes: []int{8}, Rows: []repro.ReportRow{
		mdRow("A", mdCell(8, 100)),
		mdRow("B", repro.ReportCell{N: 8}),
	}}
	md := rep.Markdown()
	if !strings.Contains(md, "| A |") || !strings.Contains(md, "| 8 | 100 | — |") {
		t.Fatalf("table rendering:\n%s", md)
	}
}

// TestTableActualSizes is the golden test of the n-column fix: a
// size-adjusting protocol (orient bumps n=2→3, the mod-k baseline bumps
// even sizes) must be labeled with the size its trials actually ran at,
// not the requested one; lines where protocols adjusted differently list
// every actual size, and lines with no data fall back to the request.
func TestTableActualSizes(t *testing.T) {
	rep := repro.Report{Sizes: []int{8, 16, 32}, Rows: []repro.ReportRow{
		mdRow("[5]", mdCell(9, 100), mdCell(17, 200), repro.ReportCell{}),
		mdRow("P_PL", mdCell(8, 50), mdCell(16, 150), repro.ReportCell{}),
	}}
	want := "" +
		"| n | [5] | P_PL |\n" +
		"|---|---|---|\n" +
		"| 8/9 | 100 | 50 |\n" +
		"| 16/17 | 200 | 150 |\n" +
		"| 32 | — | — |\n"
	if md := rep.Markdown(); !strings.Contains(md, want) {
		t.Fatalf("steps table drifted from golden:\n--- got ---\n%s--- want ---\n%s", md, want)
	}

	// A single size-adjusting protocol: the line label is the actual size.
	rep = repro.Report{Sizes: []int{8}, Rows: []repro.ReportRow{mdRow("[5]", mdCell(9, 100))}}
	if md := rep.Markdown(); !strings.Contains(md, "| 9 | 100 |") || strings.Contains(md, "| 8 |") {
		t.Fatalf("requested size leaked into a size-adjusted line:\n%s", md)
	}
}

// TestSummaryTableRendering covers the Table 1 summary: the row metadata,
// the fitted exponent, the escaped |Q| header and the em-dash of a row
// with too little data to fit.
func TestSummaryTableRendering(t *testing.T) {
	row := repro.ReportRow{
		Protocol: repro.ProtocolInfo{
			Name:        "[28] Yokota et al.",
			Assumption:  "knowledge N = n+O(n)",
			PaperTime:   "Θ(n²)",
			PaperStates: "O(n)",
		},
		States: 792,
		Cells:  []repro.ReportCell{mdCell(8, 100), mdCell(16, 420)},
	}
	rep := repro.Report{Sizes: []int{8, 16}, Rows: []repro.ReportRow{row}}
	md := rep.Markdown()
	if !strings.Contains(md, "| [28] Yokota et al. | knowledge N = n+O(n) | Θ(n²) | n^2.07 | O(n) | 792 |") {
		t.Fatalf("summary row missing in:\n%s", md)
	}
	// The |Q| header must be escaped so markdown renderers keep the column
	// layout intact.
	if !strings.Contains(md, `\|Q\|(n=16)`) || strings.Contains(md, " |Q|(") {
		t.Fatalf("unescaped |Q| header in:\n%s", md)
	}
	row.Cells = row.Cells[:1]
	rep = repro.Report{Sizes: []int{8}, Rows: []repro.ReportRow{row}}
	if md := rep.Markdown(); !strings.Contains(md, "| Θ(n²) | — | O(n) |") {
		t.Fatalf("missing no-fit placeholder in:\n%s", md)
	}
}

func mdRow(name string, cells ...repro.ReportCell) repro.ReportRow {
	return repro.ReportRow{Protocol: repro.ProtocolInfo{Name: name}, Cells: cells}
}

func mdCell(n int, mean float64) repro.ReportCell {
	return repro.ReportCell{N: n, Steps: repro.Summary{Count: 1, Mean: mean}}
}
