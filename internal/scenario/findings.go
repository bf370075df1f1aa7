package scenario

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"basrpt/internal/core"
	"basrpt/internal/runner"
	"basrpt/internal/trace"
	"basrpt/internal/workload"
)

// FindingsSchema is the findings format identifier. Bump the suffix when
// the findings format changes incompatibly — the -check gate compares
// bytes, so a schema bump forces regenerating every committed findings
// file.
const FindingsSchema = "basrpt-findings/1"

// Findings is the machine-readable result of executing one scenario: the
// aggregated metrics, the evaluated checks, and the derived status. Its
// serialized form (EncodeJSON) and rendered form (RenderMarkdown) are
// byte-deterministic: they depend only on the spec and the seed
// derivation, never on worker count, timing, or host.
type Findings struct {
	// Schema is FindingsSchema.
	Schema string `json:"schema"`
	// Scenario and Title restate the spec's identity.
	Scenario string `json:"scenario"`
	Title    string `json:"title"`
	// SpecDigest is the fnv64a digest of the spec's canonical JSON — the
	// committed findings are invalidated the moment the spec changes.
	SpecDigest string `json:"spec_digest"`
	// RootSeed and Seeds record the replicate derivation so any cell can
	// be replayed single-seed.
	RootSeed uint64   `json:"root_seed"`
	Seeds    []uint64 `json:"seeds"`
	// Status is Confirmed, Refuted, or Inconclusive (see statusOf).
	Status string `json:"status"`
	// Checks are the evaluated assertions, in spec order.
	Checks []CheckResult `json:"checks"`
	// Metrics are the aggregated quantities, named "<cell>/<metric>", in
	// the runner's deterministic (cell position, metric name) order.
	Metrics []Metric `json:"metrics"`
	// Digest is the fnv64a digest of this document serialized with
	// Digest itself empty — an integrity stamp for artifact plumbing.
	Digest string `json:"digest"`
}

// Metric is one aggregated quantity: dispersion statistics across the
// replicates that reported it.
type Metric struct {
	// Name is "<cell>/<metric>".
	Name string `json:"name"`
	// N is the number of replicates reporting the metric.
	N int `json:"n"`
	// Mean, CI95 (95% half-width, Student-t), StdDev, Min, Max summarize
	// the replicates.
	Mean   float64 `json:"mean"`
	CI95   float64 `json:"ci95"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// newFindings folds a spec and its aggregate into findings.
func newFindings(spec *Spec, agg *runner.Aggregate) (*Findings, error) {
	specJSON, err := spec.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	checks, err := evaluateChecks(spec, agg)
	if err != nil {
		return nil, err
	}
	f := &Findings{
		Schema:     FindingsSchema,
		Scenario:   spec.Name,
		Title:      spec.Title,
		SpecDigest: digestBytes(specJSON),
		RootSeed:   agg.RootSeed,
		Seeds:      agg.Seeds,
		Status:     statusOf(checks),
		Checks:     checks,
	}
	for i := range agg.Metrics {
		m := &agg.Metrics[i]
		f.Metrics = append(f.Metrics, Metric{
			Name: m.Name, N: m.N,
			Mean: m.Mean, CI95: m.CI95, StdDev: m.StdDev, Min: m.Min, Max: m.Max,
		})
	}
	body, err := f.encode()
	if err != nil {
		return nil, err
	}
	f.Digest = digestBytes(body)
	return f, nil
}

// encode serializes the findings with the digest field cleared — the
// bytes the digest is computed over.
func (f *Findings) encode() ([]byte, error) {
	clone := *f
	clone.Digest = ""
	b, err := json.MarshalIndent(&clone, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: marshal findings: %w", err)
	}
	return append(b, '\n'), nil
}

// EncodeJSON serializes the findings (trailing newline included) — the
// byte-exact content of a committed findings.json.
func (f *Findings) EncodeJSON() ([]byte, error) {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: marshal findings: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeFindings parses a committed findings.json and verifies its
// integrity digest.
func DecodeFindings(data []byte) (*Findings, error) {
	var f Findings
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("scenario: parse findings: %w", err)
	}
	if f.Schema != FindingsSchema {
		return nil, fmt.Errorf("scenario: findings schema %q, want %q", f.Schema, FindingsSchema)
	}
	body, err := f.encode()
	if err != nil {
		return nil, err
	}
	if got := digestBytes(body); got != f.Digest {
		return nil, fmt.Errorf("scenario: findings digest mismatch: stamped %s, computed %s", f.Digest, got)
	}
	return &f, nil
}

// digestBytes is the fnv-64a content stamp used for both digests,
// rendered as "fnv64a:<hex>".
func digestBytes(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

// SpecPath is the canonical repository path of the scenario's spec — the
// path rendered into the reproduction commands, independent of where the
// file was actually loaded from.
func (f *Findings) SpecPath() string {
	return "scenarios/" + f.Scenario + "/spec.json"
}

// RenderMarkdown renders the FINDINGS.md document: status, hypothesis,
// controlled versus varied variables, reproduction commands, check
// outcomes, and the full metric table. Byte-deterministic — it carries no
// timestamps or host details, so the -check gate can diff it.
func (f *Findings) RenderMarkdown(spec *Spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n\n", f.Scenario, f.Title)
	fmt.Fprintf(&b, "**Status:** %s\n", f.Status)
	fmt.Fprintf(&b, "**Spec:** `%s` (digest `%s`)\n", f.SpecPath(), f.SpecDigest)
	fmt.Fprintf(&b, "**Findings digest:** `%s`\n", f.Digest)
	fmt.Fprintf(&b, "**Seeds:** %d replicates derived from root %d: %s\n",
		len(f.Seeds), f.RootSeed, seedList(f.Seeds))
	fmt.Fprintf(&b, "**Reproduce:** `go run ./cmd/basrptexp -scenario %s`\n", f.SpecPath())
	fmt.Fprintf(&b, "**Verify:** `go run ./cmd/basrptexp -check -scenario %s`\n", f.SpecPath())
	b.WriteString("\n## Hypothesis\n\n")
	for _, line := range strings.Split(strings.TrimRight(spec.Hypothesis, "\n"), "\n") {
		fmt.Fprintf(&b, "> %s\n", line)
	}

	b.WriteString("\n## Variables\n\n")
	b.WriteString("**Controlled:**\n")
	fmt.Fprintf(&b, "- topology: %d racks × %d hosts (%d hosts), non-blocking\n",
		spec.Topology.Racks, spec.Topology.HostsPerRack, spec.Topology.Racks*spec.Topology.HostsPerRack)
	fmt.Fprintf(&b, "- horizon: %g simulated seconds\n", spec.DurationS)
	loadLabel := "offered load"
	if spec.Workload.incast() {
		loadLabel = "background load"
		fmt.Fprintf(&b, "- workload: partition/aggregate incast, %d 20KB responses per job converging on one aggregator\n"+
			"  (fanout %d capped at hosts − 1) at %d jobs/s fabric-wide, over rack-local background traffic;\n",
			min(core.IncastFanout, spec.Topology.Racks*spec.Topology.HostsPerRack-1),
			core.IncastFanout, core.IncastJobsPerSecond)
	} else {
		qf := spec.Workload.QueryByteFraction
		qfNote := ""
		if qf == 0 {
			qfNote = " (harness default)"
		}
		fmt.Fprintf(&b, "- workload: mixed query/background Poisson arrivals, query byte fraction %s%s;\n",
			qfValue(qf), qfNote)
	}
	b.WriteString("  identical arrival stream per replicate seed across all cells (paired comparison)\n")
	if len(spec.Loads) == 1 {
		fmt.Fprintf(&b, "- %s: %g%% of each access link\n", loadLabel, spec.Loads[0]*100)
	}
	if fs := spec.Faults; fs != nil {
		pin := "drawn from each replicate seed (varies with the workload)"
		if fs.Seed != 0 {
			pin = fmt.Sprintf("pinned to seed %d (identical across replicates)", fs.Seed)
		}
		fmt.Fprintf(&b, "- faults: %d link fault(s) + %d scheduler outage(s) per run, schedule %s;\n"+
			"  byte-identical schedule across all cells of a replicate\n",
			fs.LinkFaults, fs.Outages, pin)
	}
	b.WriteString("\n**Varied:**\n")
	var labels []string
	for _, sc := range spec.Schedulers {
		labels = append(labels, schedDescr(sc))
	}
	fmt.Fprintf(&b, "- scheduler: %s\n", strings.Join(labels, ", "))
	if len(spec.Loads) > 1 {
		var loads []string
		for _, l := range spec.Loads {
			loads = append(loads, fmt.Sprintf("%g%%", l*100))
		}
		fmt.Fprintf(&b, "- %s: %s\n", loadLabel, strings.Join(loads, ", "))
	}
	fmt.Fprintf(&b, "- replicate seed: %d independent replicates (splitmix64-derived; see runner.DeriveSeed)\n", len(f.Seeds))

	b.WriteString("\n## Checks\n\n")
	ctbl := trace.Table{Headers: []string{"check", "left", "op", "right", "margin", "outcome"}}
	for _, c := range f.Checks {
		op := c.Op
		if c.Paired {
			op += " (paired)"
		}
		ctbl.AddRow(c.Name, fmt.Sprintf("%s = %s", c.Left, fmtG5(c.LeftMean)), op,
			fmt.Sprintf("%s = %s", c.Right, fmtG5(c.RightMean)), fmtG5(c.Margin), c.Outcome)
	}
	b.WriteString(codeBlock(ctbl.Render()))
	b.WriteString("\nComparisons are between replicate means; the margin is the combined\n" +
		"95%-CI half-width — for paired checks, the 95%-CI of the per-replicate\n" +
		"differences on identical arrival streams — plus the tolerance for eq\n" +
		"checks, so pass/fail is only declared when the gap is decisive against\n" +
		"seed-to-seed dispersion.\n")

	b.WriteString("\n## Summary\n\n")
	b.WriteString(codeBlock(f.summaryTable(spec).Render()))
	b.WriteString("\nOne row per grid cell: the replicate mean of every metric all cells\n" +
		"report. The Results table below adds the dispersion.\n")

	b.WriteString("\n## Results\n\n")
	mtbl := trace.Table{Headers: []string{"metric", "n", "mean", "±ci95", "stddev", "min", "max"}}
	for _, m := range f.Metrics {
		mtbl.AddRow(m.Name, strconv.Itoa(m.N), fmtG5(m.Mean), fmtG5(m.CI95),
			fmtG5(m.StdDev), fmtG5(m.Min), fmtG5(m.Max))
	}
	b.WriteString(codeBlock(mtbl.Render()))
	b.WriteString("\nGenerated by `cmd/basrptexp`; the machine-readable form is `findings.json`\n" +
		"next to this file. Both are byte-deterministic at any `-parallel` value and\n" +
		"diffed byte-for-byte by `make scenarios` in CI.\n")
	return b.String()
}

// summaryTable lays the replicate means out as a cells × metrics grid:
// one row per grid cell in execution order, one column per metric that
// every cell reports, in the findings' metric-name order.
func (f *Findings) summaryTable(spec *Spec) *trace.Table {
	cells := spec.CellNames()
	means := map[string]map[string]float64{} // metric -> cell -> mean
	var metrics []string
	for _, m := range f.Metrics {
		cell, metric, ok := splitMetricRef(m.Name)
		if !ok {
			continue
		}
		if means[metric] == nil {
			means[metric] = map[string]float64{}
			metrics = append(metrics, metric)
		}
		means[metric][cell] = m.Mean
	}
	tbl := &trace.Table{Headers: []string{"cell"}}
	var cols []string
	for _, metric := range metrics {
		if len(means[metric]) == len(cells) {
			cols = append(cols, metric)
			tbl.Headers = append(tbl.Headers, metric)
		}
	}
	for _, cell := range cells {
		row := []string{cell}
		for _, metric := range cols {
			row = append(row, fmtG5(means[metric][cell]))
		}
		tbl.AddRow(row...)
	}
	return tbl
}

// schedDescr renders one scheduler axis entry with its non-default knobs.
func schedDescr(sc SchedulerSpec) string {
	d := sc.CellLabel()
	var knobs []string
	if sc.Label != "" && sc.Label != sc.Name {
		knobs = append(knobs, sc.Name)
	}
	if sc.V != 0 {
		knobs = append(knobs, fmt.Sprintf("V=%g", sc.V))
	}
	if len(sc.VSweep) > 0 {
		var vs []string
		for _, v := range sc.VSweep {
			vs = append(vs, fmt.Sprintf("%g", v))
		}
		knobs = append(knobs, fmt.Sprintf("V swept over {%s}, one cell per value", strings.Join(vs, ", ")))
	}
	if sc.Threshold != 0 {
		knobs = append(knobs, fmt.Sprintf("T=%g", sc.Threshold))
	}
	if sc.NoiseLevel != 0 {
		knobs = append(knobs, fmt.Sprintf("noise=%g", sc.NoiseLevel))
	}
	if sc.Rounds != 0 {
		knobs = append(knobs, fmt.Sprintf("rounds=%d", sc.Rounds))
	}
	if len(knobs) > 0 {
		d += " (" + strings.Join(knobs, ", ") + ")"
	}
	return d
}

// qfValue renders the query byte fraction, resolving 0 to the default's
// numeric value for the reader.
func qfValue(qf float64) string {
	if qf == 0 {
		qf = workload.DefaultQueryByteFraction
	}
	return fmtG(qf)
}

// seedList renders derived seeds compactly.
func seedList(seeds []uint64) string {
	var parts []string
	for _, s := range seeds {
		parts = append(parts, strconv.FormatUint(s, 10))
	}
	return strings.Join(parts, ", ")
}

// codeBlock fences preformatted table text for markdown.
func codeBlock(s string) string {
	return "```\n" + strings.TrimRight(s, "\n") + "\n```\n"
}

// fmtG5 renders table floats at 5 significant digits — compact, stable,
// and precise enough for ±ci columns at small magnitudes.
func fmtG5(v float64) string {
	return strconv.FormatFloat(v, 'g', 5, 64)
}
