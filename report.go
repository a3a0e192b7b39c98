package repro

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Summary holds the descriptive statistics of one cell's converged trials.
// A Summary with Count zero — every trial failed, or the cell was skipped —
// has no statistics at all: JSON renders its fields as explicit nulls and
// CSV as empty fields, never as stale zeros a reader could mistake for
// measured values.
type Summary struct {
	Count  int     `json:"count"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	P90    float64 `json:"p90"`
	Max    float64 `json:"max"`
}

// summaryJSON is the wire form of Summary: pointer fields express "no
// data" as null.
type summaryJSON struct {
	Count  int      `json:"count"`
	Mean   *float64 `json:"mean"`
	Std    *float64 `json:"std"`
	Min    *float64 `json:"min"`
	Median *float64 `json:"median"`
	P90    *float64 `json:"p90"`
	Max    *float64 `json:"max"`
}

// MarshalJSON renders a Count-zero summary with null statistics.
func (s Summary) MarshalJSON() ([]byte, error) {
	out := summaryJSON{Count: s.Count}
	if s.Count > 0 {
		out.Mean, out.Std, out.Min = &s.Mean, &s.Std, &s.Min
		out.Median, out.P90, out.Max = &s.Median, &s.P90, &s.Max
	}
	return json.Marshal(out)
}

// UnmarshalJSON accepts both the null form and plain numbers.
func (s *Summary) UnmarshalJSON(data []byte) error {
	var in summaryJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*s = Summary{Count: in.Count}
	deref := func(p *float64) float64 {
		if p == nil {
			return 0
		}
		return *p
	}
	s.Mean, s.Std, s.Min = deref(in.Mean), deref(in.Std), deref(in.Min)
	s.Median, s.P90, s.Max = deref(in.Median), deref(in.P90), deref(in.Max)
	return nil
}

// ReportCell aggregates the trials of one (protocol, size) pair: every
// per-trial result plus summaries of convergence and stabilization steps
// over the converged trials.
type ReportCell struct {
	N          int           `json:"n"`
	Trials     []TrialResult `json:"trials"`
	Steps      Summary       `json:"steps"`
	Stabilized Summary       `json:"stabilized"`
	Failures   int           `json:"failures"`
	// Metrics holds the values of the experiment's Metric aggregations,
	// keyed by metric label. Only metrics with at least one sample in the
	// cell appear; absent without configured metrics.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// ReportRow is one protocol's line of the experiment: its Table 1
// metadata, the exact state count at the experiment's reference size (the
// last requested size), one cell per requested size (empty cells — no
// trials — stand in for sizes skipped by MaxSizeFor, keeping Cells
// positionally aligned with Report.Sizes), and the fitted power-law
// exponent of mean convergence steps against n. ExponentOK is false when
// fewer than two cells had data — distinguishing "no data" from a genuine
// zero fit.
type ReportRow struct {
	Protocol   ProtocolInfo `json:"protocol"`
	States     uint64       `json:"states"`
	Cells      []ReportCell `json:"cells"`
	Exponent   float64      `json:"exponent"`
	ExponentOK bool         `json:"exponent_ok"`
}

// Report is the structured outcome of an Experiment run. It is fully
// deterministic for fixed seeds: the same experiment yields the same
// Report — and the same rendered bytes — whatever the worker count.
type Report struct {
	Sizes    []int       `json:"sizes"`
	Trials   int         `json:"trials"`
	Scenario Scenario    `json:"scenario"`
	Rows     []ReportRow `json:"rows"`
	// Metrics lists the labels of the experiment's configured Metric
	// aggregations, in configuration order; per-cell values live in
	// ReportCell.Metrics. Absent without configured metrics.
	Metrics []string `json:"metrics,omitempty"`
}

// Exponents maps each protocol name to its fitted scaling exponent (0 when
// the row had too little data to fit; check ReportRow.ExponentOK to
// distinguish).
func (r *Report) Exponents() map[string]float64 {
	out := make(map[string]float64, len(r.Rows))
	for _, row := range r.Rows {
		out[row.Protocol.Name] = row.Exponent
	}
	return out
}

// Markdown renders the report in the repository's Table 1 layout: the
// steps-per-size table, the summary table (assumption, paper bounds,
// fitted exponent, exact state counts), and the trial count.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Mean convergence steps (%s)\n\n", r.Scenario.Init.describe())
	r.stepsTable(&b)
	b.WriteString("\n### Table 1 reproduction\n\n")
	r.summaryTable(&b)
	fmt.Fprintf(&b, "\nTrials per cell: %d.\n", r.Trials)
	for _, label := range r.Metrics {
		b.WriteString(r.metricTable(label))
	}
	return b.String()
}

// stepsTable renders the rows side by side: one line per requested size,
// mean convergence steps per protocol, "—" for cells without data.
func (r *Report) stepsTable(b *strings.Builder) {
	b.WriteString("| n |")
	for _, row := range r.Rows {
		fmt.Fprintf(b, " %s |", row.Protocol.Name)
	}
	b.WriteString("\n|---|")
	b.WriteString(strings.Repeat("---|", len(r.Rows)))
	b.WriteByte('\n')
	for i, n := range r.Sizes {
		b.WriteString("| " + r.sizeLabel(i, n) + " |")
		for _, row := range r.Rows {
			if i >= len(row.Cells) || row.Cells[i].Steps.Count == 0 {
				b.WriteString(" — |")
				continue
			}
			fmt.Fprintf(b, " %.3g |", row.Cells[i].Steps.Mean)
		}
		b.WriteByte('\n')
	}
}

// sizeLabel renders the n column of table line i from the actual trial
// sizes of its populated cells, not the requested size: FixSize may
// adjust a request (orient bumps n=2 to 3, the mod-k baseline bumps even
// sizes), and labeling those lines with the requested size attributes the
// measurements to a ring that was never run. A line without data falls
// back to the requested size; distinct actual sizes in one line
// (protocols adjusting differently) are slash-joined so none is
// misattributed.
func (r *Report) sizeLabel(i, requested int) string {
	var distinct []int
	for _, row := range r.Rows {
		if i >= len(row.Cells) || row.Cells[i].Steps.Count == 0 {
			continue
		}
		if n := row.Cells[i].N; !slices.Contains(distinct, n) {
			distinct = append(distinct, n)
		}
	}
	if len(distinct) == 0 {
		return strconv.Itoa(requested)
	}
	slices.Sort(distinct)
	parts := make([]string, len(distinct))
	for j, n := range distinct {
		parts[j] = strconv.Itoa(n)
	}
	return strings.Join(parts, "/")
}

// summaryTable renders the Table 1 reproduction: assumption, paper-cited
// bounds, measured exponent and the state count at the reference size
// (the last requested size). The |Q| header is escaped as \|Q\| so
// markdown renderers do not read its pipes as column separators.
func (r *Report) summaryTable(b *strings.Builder) {
	statesAt := 0
	if len(r.Sizes) > 0 {
		statesAt = r.Sizes[len(r.Sizes)-1]
	}
	fmt.Fprintf(b, "| protocol | assumption | paper time | measured exponent | paper states | \\|Q\\|(n=%d) |\n", statesAt)
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, row := range r.Rows {
		expStr := "—"
		if exp, ok := fitExponent(row.Cells); ok {
			expStr = fmt.Sprintf("n^%.2f", exp)
		}
		fmt.Fprintf(b, "| %s | %s | %s | %s | %s | %d |\n", row.Protocol.Name,
			row.Protocol.Assumption, row.Protocol.PaperTime, expStr, row.Protocol.PaperStates, row.States)
	}
}

// fitExponent fits mean convergence steps against n as a power law and
// returns the exponent. Cells without data are skipped; the boolean is
// false when fewer than two usable cells remain, distinguishing "no data"
// from a genuine zero fit.
func fitExponent(cells []ReportCell) (float64, bool) {
	var x, y []float64
	for _, c := range cells {
		if c.Steps.Count == 0 {
			continue
		}
		x = append(x, float64(c.N))
		y = append(y, c.Steps.Mean)
	}
	if len(x) < 2 {
		return 0, false
	}
	return stats.PowerLawExponent(x, y), true
}

// metricTable renders one metric as a protocol × size table; cells without
// the metric render as missing.
func (r *Report) metricTable(label string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n### Metric: %s\n\n", label)
	b.WriteString("| protocol |")
	for _, n := range r.Sizes {
		fmt.Fprintf(&b, " n=%d |", n)
	}
	b.WriteString("\n|---|")
	b.WriteString(strings.Repeat("---|", len(r.Sizes)))
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "| %s |", row.Protocol.Name)
		for i := range r.Sizes {
			if i >= len(row.Cells) {
				b.WriteString(" — |")
				continue
			}
			if v, ok := row.Cells[i].Metrics[label]; ok {
				fmt.Fprintf(&b, " %.4g |", v)
			} else {
				b.WriteString(" — |")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// JSON renders the report as indented JSON — the machine-readable CI
// artifact form.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// CSV renders the per-cell summaries as CSV, one record per (protocol,
// size) cell — the form BENCH trajectories and spreadsheets consume. The
// exponent column repeats the row's fit and is empty when the row had too
// little data.
func (r *Report) CSV() ([]byte, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	header := []string{
		"protocol", "n", "trials", "failures",
		"steps_mean", "steps_median", "steps_p90", "steps_min", "steps_max", "steps_std",
		"stabilized_mean", "exponent",
	}
	if err := w.Write(header); err != nil {
		return nil, err
	}
	for _, row := range r.Rows {
		exp := ""
		if row.ExponentOK {
			exp = formatFloat(row.Exponent)
		}
		for _, c := range row.Cells {
			if len(c.Trials) == 0 {
				continue // a size skipped by MaxSizeFor — nothing was run
			}
			record := []string{
				row.Protocol.Name,
				strconv.Itoa(c.N),
				strconv.Itoa(len(c.Trials)),
				strconv.Itoa(c.Failures),
				summaryField(c.Steps, c.Steps.Mean),
				summaryField(c.Steps, c.Steps.Median),
				summaryField(c.Steps, c.Steps.P90),
				summaryField(c.Steps, c.Steps.Min),
				summaryField(c.Steps, c.Steps.Max),
				summaryField(c.Steps, c.Steps.Std),
				summaryField(c.Stabilized, c.Stabilized.Mean),
				exp,
			}
			if err := w.Write(record); err != nil {
				return nil, err
			}
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// summaryField renders one statistic of s, or an empty field when the
// summary has no data (a failure-only cell) — the CSV form of "null".
func summaryField(s Summary, v float64) string {
	if s.Count == 0 {
		return ""
	}
	return formatFloat(v)
}
