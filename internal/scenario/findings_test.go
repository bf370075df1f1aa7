package scenario

import (
	"strings"
	"testing"
)

// TestSummaryTable: one row per grid cell in execution order, one column
// per metric that every cell reports — a metric only some cells report
// (recovery_s of a replicate that never recovered) stays in Results only.
func TestSummaryTable(t *testing.T) {
	spec := mustParse(t, validSpecJSON)
	f := &Findings{Metrics: []Metric{
		{Name: "srpt/gbps", Mean: 10.123456},
		{Name: "srpt/recovery_s", Mean: 0.5},
		{Name: "fast-basrpt/gbps", Mean: 11},
	}}
	got := f.summaryTable(spec).Render()
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("summary has %d lines, want header, rule and 2 rows:\n%s", len(lines), got)
	}
	if fields := strings.Fields(lines[0]); len(fields) != 2 || fields[0] != "cell" || fields[1] != "gbps" {
		t.Fatalf("summary header = %q, want cell and gbps only", lines[0])
	}
	if fields := strings.Fields(lines[2]); fields[0] != "srpt" || fields[1] != "10.123" {
		t.Fatalf("first row = %q, want srpt at 5 significant digits", lines[2])
	}
	if fields := strings.Fields(lines[3]); fields[0] != "fast-basrpt" || fields[1] != "11" {
		t.Fatalf("second row = %q", lines[3])
	}
}

// TestIncastSpecRenders runs a tiny incast spec end to end: the cells run
// the partition/aggregate pattern, and the findings name its constants
// and the background load instead of a query share.
func TestIncastSpecRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fabric simulation")
	}
	spec := mustParse(t, string(mutate(t, func(m map[string]any) {
		m["workload"] = map[string]any{"pattern": "incast"}
	})))
	f, err := Execute(spec, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	md := f.RenderMarkdown(spec)
	for _, want := range []string{
		"partition/aggregate incast, 3 20KB responses per job",
		"(fanout 8 capped at hosts − 1) at 400 jobs/s",
		"- background load: 50% of each access link",
		"## Summary",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("FINDINGS.md missing %q:\n%s", want, md)
		}
	}
	if strings.Contains(md, "query byte fraction") {
		t.Fatal("incast findings describe a query share")
	}
}
