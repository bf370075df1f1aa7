package lyapunov

import (
	"math"
	"testing"

	"basrpt/internal/flow"
)

func TestValue(t *testing.T) {
	tab := flow.NewTable(3)
	if got := Value(tab); got != 0 {
		t.Fatalf("empty L = %g", got)
	}
	tab.Add(flow.NewFlow(1, 0, 1, flow.ClassOther, 3, 0))
	tab.Add(flow.NewFlow(2, 0, 1, flow.ClassOther, 4, 0)) // same VOQ: X=7
	tab.Add(flow.NewFlow(3, 1, 2, flow.ClassOther, 2, 0))
	want := (49.0 + 4.0) / 2
	if got := Value(tab); math.Abs(got-want) > 1e-12 {
		t.Fatalf("L = %g, want %g", got, want)
	}
}

func TestMeanSelectedSize(t *testing.T) {
	if got := MeanSelectedSize(nil); got != 0 {
		t.Fatalf("empty decision ȳ = %g", got)
	}
	flows := []*flow.Flow{
		flow.NewFlow(1, 0, 1, flow.ClassOther, 10, 0),
		flow.NewFlow(2, 1, 0, flow.ClassOther, 30, 0),
	}
	if got := MeanSelectedSize(flows); got != 20 {
		t.Fatalf("ȳ = %g, want 20", got)
	}
}

func TestTheoremConstants(t *testing.T) {
	// N = 4, B = 9 -> B' = 4(1+36)/2 = 74.
	if got := BPrime(4, 9); got != 74 {
		t.Fatalf("B' = %g, want 74", got)
	}
	if got := DelayGapBound(4, 9, 37); got != 2 {
		t.Fatalf("delay gap = %g, want 2", got)
	}
	// (74 + 10*(5-1)) / 0.5 = 228.
	if got := BacklogBound(4, 9, 10, 0.5, 5, 1); got != 228 {
		t.Fatalf("backlog bound = %g, want 228", got)
	}
	// Negative penalty gap clamps to zero.
	if got := BacklogBound(4, 9, 10, 0.5, 1, 5); got != 148 {
		t.Fatalf("clamped backlog bound = %g, want 148", got)
	}
}

func TestBoundsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"DelayGapBound": func() { DelayGapBound(4, 9, 0) },
		"BacklogBound":  func() { BacklogBound(4, 9, 10, 0, 5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEstimateDrift(t *testing.T) {
	if rep := EstimateDrift(nil); rep.Steps != 0 {
		t.Fatalf("empty drift = %+v", rep)
	}
	if rep := EstimateDrift([]float64{5}); rep.Steps != 0 {
		t.Fatalf("singleton drift = %+v", rep)
	}
	rep := EstimateDrift([]float64{0, 10, 15, 12})
	if rep.Steps != 3 {
		t.Fatalf("steps = %d", rep.Steps)
	}
	if math.Abs(rep.MeanDrift-4) > 1e-12 {
		t.Fatalf("mean drift = %g, want 4", rep.MeanDrift)
	}
	if rep.MaxDrift != 10 {
		t.Fatalf("max drift = %g, want 10", rep.MaxDrift)
	}
}
