package core

import (
	"slices"
	"strings"
	"testing"
)

func TestRunDistributed(t *testing.T) {
	res, err := RunDistributed(5, 60, DefaultV, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Converged arbitration (rounds = 0, first row) matches centralized on
	// every state.
	if res.Rows[0].Rounds != 0 || res.Rows[0].Agreement != 1 {
		t.Fatalf("converged row = %+v, want full agreement", res.Rows[0])
	}
	if res.Rows[0].MeanGap > 1e-12 {
		t.Fatalf("converged gap = %g", res.Rows[0].MeanGap)
	}
	// Bounded rounds agree less (or at most equally).
	for _, row := range res.Rows[1:] {
		if row.Agreement > 1 || row.Agreement < 0 {
			t.Fatalf("agreement out of range: %+v", row)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "Distributed emulation") || !strings.Contains(out, "to convergence") {
		t.Fatalf("render = %q", out)
	}
}

// TestRunDistributedPinned pins E11's rows at basrptbench's shape and
// seed 1 bit for bit. The converged gap is float noise: both decisions
// hold the same flows, summed in a different order.
func TestRunDistributedPinned(t *testing.T) {
	res, err := RunDistributed(8, 200, DefaultV, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []DistributedRow{
		{Rounds: 0, Agreement: 1, MeanGap: 1.648443608864668e-17},
		{Rounds: 1, Agreement: 0.495, MeanGap: 0.010336065529479565},
		{Rounds: 2, Agreement: 0.81, MeanGap: 0.0016799224001369417},
		{Rounds: 4, Agreement: 0.99, MeanGap: 1.648443608864668e-17},
	}
	if !slices.Equal(res.Rows, want) {
		t.Fatalf("rows %+v, want %+v", res.Rows, want)
	}
}

func TestRunDistributedValidation(t *testing.T) {
	if _, err := RunDistributed(1, 5, 1, nil, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := RunDistributed(4, 0, 1, nil, 1); err == nil {
		t.Fatal("zero trials accepted")
	}
	if _, err := RunDistributed(4, 5, -1, nil, 1); err == nil {
		t.Fatal("negative V accepted")
	}
	if _, err := RunDistributed(4, 5, 1, []int{-2}, 1); err == nil {
		t.Fatal("negative rounds accepted")
	}
}
