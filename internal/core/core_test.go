package core

import (
	"errors"
	"strings"
	"testing"

	"basrpt/internal/topology"
)

func TestScaleDefaults(t *testing.T) {
	var s Scale
	s = s.withDefaults()
	if s.Racks == 0 || s.HostsPerRack == 0 || s.Duration == 0 || s.Seed == 0 {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if s.WarmupFraction <= 0 || s.WarmupFraction >= 1 {
		t.Fatalf("warmup fraction = %g", s.WarmupFraction)
	}
}

func TestScaleTopologyTypedErrors(t *testing.T) {
	// Negative and zero dims reach the topology layer and fail there with
	// its typed dimension error rather than silently defaulting.
	for _, s := range []Scale{{Racks: -1, HostsPerRack: 4}, {Racks: 2, HostsPerRack: -3}, {}} {
		if _, err := s.Topology(); !errors.Is(err, topology.ErrDimension) {
			t.Fatalf("%+v: %v, want topology.ErrDimension", s, err)
		}
	}
}

func TestScaleTopology(t *testing.T) {
	topo, err := Scale{Racks: 12, HostsPerRack: 12}.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumHosts() != 144 {
		t.Fatalf("paper scale hosts = %d", topo.NumHosts())
	}
}

func TestRunFig1MatchesPaper(t *testing.T) {
	res, err := RunFig1()
	if err != nil {
		t.Fatal(err)
	}
	if res.SRPT.LeftoverPackets != 1 {
		t.Fatalf("SRPT leftover = %g, want 1", res.SRPT.LeftoverPackets)
	}
	if res.SRPT.CompletedFlows != 2 {
		t.Fatalf("SRPT completed = %d, want 2", res.SRPT.CompletedFlows)
	}
	if res.BacklogAware.LeftoverPackets != 0 {
		t.Fatalf("backlog-aware leftover = %g, want 0", res.BacklogAware.LeftoverPackets)
	}
	if res.BacklogAware.CompletedFlows != 3 {
		t.Fatalf("backlog-aware completed = %d, want 3", res.BacklogAware.CompletedFlows)
	}
	// SRPT slot 1 (paper numbering) serves f2; backlog-aware serves f1.
	if got := res.SRPT.Schedule[0].Flows; len(got) != 1 || got[0] != "f2" {
		t.Fatalf("SRPT slot 1 = %v, want [f2]", got)
	}
	if got := res.BacklogAware.Schedule[0].Flows; len(got) != 1 || got[0] != "f1" {
		t.Fatalf("backlog-aware slot 1 = %v, want [f1]", got)
	}
	out := res.Render()
	for _, want := range []string{"srpt", "fast-basrpt", "slot 1", "paper:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRunTheorem1(t *testing.T) {
	res, err := RunTheorem1(3, 0.8, 20000, []float64{2, 32}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epsilon <= 0 {
		t.Fatalf("epsilon = %g", res.Epsilon)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.BacklogBound <= 0 || row.MeanBacklog < 0 {
			t.Fatalf("bad row %+v", row)
		}
		if row.MeanBacklog > row.BacklogBound {
			t.Fatalf("V=%g: measured backlog %.1f exceeds theorem bound %.1f",
				row.V, row.MeanBacklog, row.BacklogBound)
		}
	}
	// Larger V must not raise the penalty (delay) — it tightens the gap.
	if res.Rows[1].MeanPenalty > res.Rows[0].MeanPenalty+0.1 {
		t.Fatalf("penalty rose with V: %+v", res.Rows)
	}
	// Gap bound shrinks as 1/V.
	if res.Rows[1].DelayGapBound >= res.Rows[0].DelayGapBound {
		t.Fatal("delay gap bound did not shrink with V")
	}
	if !strings.Contains(res.Render(), "Theorem 1") {
		t.Fatal("render missing title")
	}
	if _, err := RunTheorem1(3, 0.8, 0, nil, 1); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := RunTheorem1(3, 0.8, 10, []float64{0}, 1); err == nil {
		t.Fatal("zero V accepted")
	}
}

func TestRunDTMC(t *testing.T) {
	res, err := RunDTMC(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.BacklogV != 3 {
		t.Fatalf("default V = %g", res.BacklogV)
	}
	if res.Backlog.CapMass >= res.Shortest.CapMass {
		t.Fatalf("backlog-aware cap mass %g >= shortest %g",
			res.Backlog.CapMass, res.Shortest.CapMass)
	}
	if !strings.Contains(res.Render(), "DTMC") {
		t.Fatal("render missing title")
	}
}

func TestRunExactVsFast(t *testing.T) {
	res, err := RunExactVsFast(4, 50, DefaultV, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanGap < 0 || res.MaxGap < res.MeanGap {
		t.Fatalf("gap stats inconsistent: %+v", res)
	}
	if res.IdenticalFraction <= 0 {
		t.Fatal("greedy never matched exact on small instances — suspicious")
	}
	if !strings.Contains(res.Render(), "Ablation") {
		t.Fatal("render missing title")
	}
	if _, err := RunExactVsFast(100, 5, 1, 1); err == nil {
		t.Fatal("oversized fabric accepted")
	}
	if _, err := RunExactVsFast(4, 0, 1, 1); err == nil {
		t.Fatal("zero trials accepted")
	}
}

// TestRunExactVsFastPinned pins E8 at basrptbench's shape and seed 1 bit
// for bit, so a change to either scheduler or to the scoring loop that
// moves any printed value fails here.
func TestRunExactVsFastPinned(t *testing.T) {
	res, err := RunExactVsFast(5, 200, DefaultV, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.IdenticalFraction != 0.695 || res.MeanGap != 0.054632531547508766 || res.MaxGap != 0.5340123493539778 {
		t.Fatalf("identical %v, mean gap %v, max gap %v; want 0.695, 0.054632531547508766, 0.5340123493539778",
			res.IdenticalFraction, res.MeanGap, res.MaxGap)
	}
}
