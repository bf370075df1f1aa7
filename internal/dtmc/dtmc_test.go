package dtmc

import (
	"errors"
	"math"
	"testing"
)

func uniformProb(n int, p float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			out[i][j] = p
		}
	}
	return out
}

func TestNewChainValidation(t *testing.T) {
	ok := uniformProb(2, 0.1)
	cases := []struct {
		name string
		fn   func() (*Chain, error)
	}{
		{"n too small", func() (*Chain, error) { return NewChain(1, 5, uniformProb(1, 0.1), 1, ShortestFirst()) }},
		{"n too large", func() (*Chain, error) { return NewChain(4, 5, uniformProb(4, 0.1), 1, ShortestFirst()) }},
		{"bad cap", func() (*Chain, error) { return NewChain(2, 0, ok, 1, ShortestFirst()) }},
		{"bad size", func() (*Chain, error) { return NewChain(2, 5, ok, 0, ShortestFirst()) }},
		{"nil policy", func() (*Chain, error) { return NewChain(2, 5, ok, 1, nil) }},
		{"ragged prob", func() (*Chain, error) { return NewChain(2, 5, [][]float64{{0.1}}, 1, ShortestFirst()) }},
		{"bad prob", func() (*Chain, error) { return NewChain(2, 5, uniformProb(2, 1.5), 1, ShortestFirst()) }},
		{"state blowup", func() (*Chain, error) { return NewChain(3, 200, uniformProb(3, 0.1), 1, ShortestFirst()) }},
	}
	for _, tt := range cases {
		if _, err := tt.fn(); !errors.Is(err, ErrBadModel) {
			t.Fatalf("%s: err = %v, want ErrBadModel", tt.name, err)
		}
	}
}

func TestPolicyDecisions(t *testing.T) {
	// 2x2 switch, backlogs: q00=5, q01=1, q10=2, q11=0.
	x := []int{5, 1, 2, 0}
	// Shortest first: q01 (1) wins ingress 0 / egress 1; then q10 (2).
	d := ShortestFirst().Decide(x, 2, 3)
	if len(d) != 2 || d[0] != 1 || d[1] != 2 {
		t.Fatalf("shortest-first decision = %v, want [1 2]", d)
	}
	// Backlog-aware with small V serves the longest backlog: q00 (5)
	// wins; q01 (ingress 0) and q10 (egress 0) are blocked, q11 is empty.
	d = BacklogAware(0.5).Decide(x, 2, 3)
	if len(d) != 1 || d[0] != 0 {
		t.Fatalf("backlog-aware(0.5) decision = %v, want [0]", d)
	}
	// Huge V behaves like shortest-head-first: heads are min(X, 3):
	// q00 head 3, q01 head 1, q10 head 2 -> q01 then q10.
	d = BacklogAware(1e6).Decide(x, 2, 3)
	if len(d) != 2 || d[0] != 1 || d[1] != 2 {
		t.Fatalf("backlog-aware(1e6) decision = %v, want [1 2]", d)
	}
}

func TestPolicyNames(t *testing.T) {
	if ShortestFirst().Name() != "shortest-first" ||
		BacklogAware(5).Name() != "backlog-aware(V=5)" {
		t.Fatal("policy names wrong")
	}
}

func TestStationaryLowLoadConverges(t *testing.T) {
	// Light load: every policy is stable, tiny backlog, no cap mass.
	chain, err := NewChain(2, 6, uniformProb(2, 0.05), 1, ShortestFirst())
	if err != nil {
		t.Fatal(err)
	}
	res, err := chain.Stationary(2000, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.CapMass > 1e-4 {
		t.Fatalf("cap mass %g at trivial load", res.CapMass)
	}
	if res.ExpectedBacklog > 1 {
		t.Fatalf("expected backlog %g too high at trivial load", res.ExpectedBacklog)
	}
	// Served rate must match arrival rate in steady state (flow balance):
	// 4 queues x 0.05 arrivals x 1 packet = 0.2 pkt/slot.
	if math.Abs(res.ServedRate-0.2) > 0.01 {
		t.Fatalf("served rate %g, want ~0.2", res.ServedRate)
	}
}

func TestStationaryInvalidArgs(t *testing.T) {
	chain, err := NewChain(2, 3, uniformProb(2, 0.05), 1, ShortestFirst())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chain.Stationary(0, 1e-9); err == nil {
		t.Fatal("maxIter 0 accepted")
	}
	if _, err := chain.Stationary(10, 0); err == nil {
		t.Fatal("tol 0 accepted")
	}
}

// TestDistributionStaysNormalized: after many iterations the distribution
// still sums to 1 (transition rows are stochastic).
func TestDistributionStaysNormalized(t *testing.T) {
	chain, err := NewChain(2, 4, uniformProb(2, 0.2), 2, BacklogAware(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := chain.Stationary(300, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	// ExpectedBacklog is a probability-weighted sum; if mass leaked the
	// served-rate identity breaks. Arrivals: 4 x 0.2 x 2 = 1.6 offered,
	// but capped chain serves at most 2/slot; just sanity-bound it.
	if res.ServedRate < 0 || res.ServedRate > 2 {
		t.Fatalf("served rate %g out of range", res.ServedRate)
	}
	if res.ExpectedBacklog < 0 || res.ExpectedBacklog > float64(4*4) {
		t.Fatalf("expected backlog %g out of range", res.ExpectedBacklog)
	}
}

// TestBacklogAwareBeatsShortestFirstNearSaturation is the DTMC version of
// the paper's stability claim (experiment E10): near saturation the
// shortest-first (SRPT-analog) chain parks much more stationary mass at
// the truncation cap than the backlog-aware chain, which keeps queues
// balanced.
func TestBacklogAwareBeatsShortestFirstNearSaturation(t *testing.T) {
	// Asymmetric load with multi-packet flows: ingress 0 sends to both
	// egresses, mirroring the paper's Figure 1 contention pattern.
	prob := [][]float64{
		{0.28, 0.28},
		{0.28, 0.28},
	}
	const (
		capacity = 10
		size     = 3 // 0.28 * 3 * 2 = 1.68... per line: 0.28*3*2 = 1.68 > 1
	)
	// That would be overloaded; scale down to ~0.9 per line:
	// per-line load = 2 * p * size = 0.9 -> p = 0.15.
	prob = [][]float64{
		{0.15, 0.15},
		{0.15, 0.15},
	}
	run := func(p Policy) *StationaryResult {
		chain, err := NewChain(2, capacity, prob, size, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := chain.Stationary(4000, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	srpt := run(ShortestFirst())
	ba := run(BacklogAware(3))
	if ba.CapMass >= srpt.CapMass {
		t.Fatalf("backlog-aware cap mass %g >= shortest-first %g",
			ba.CapMass, srpt.CapMass)
	}
	// (Expected backlog is not compared: truncation discards exactly the
	// mass that would blow up the unstable chain's backlog, so the capped
	// value understates it. Cap mass and served rate are the honest
	// indicators.)
	// The backlog-aware chain should also push more packets through.
	if ba.ServedRate < srpt.ServedRate {
		t.Fatalf("backlog-aware served %g < shortest-first %g",
			ba.ServedRate, srpt.ServedRate)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	chain, err := NewChain(2, 5, uniformProb(2, 0.1), 1, ShortestFirst())
	if err != nil {
		t.Fatal(err)
	}
	x := make([]int, 4)
	for s := 0; s < chain.NumStates(); s++ {
		chain.decode(s, x)
		if got := chain.encode(x); got != s {
			t.Fatalf("round trip %d -> %v -> %d", s, x, got)
		}
	}
}
