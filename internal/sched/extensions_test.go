package sched

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"basrpt/internal/flow"
	"basrpt/internal/stats"
)

func TestBirkhoffRandomConstruction(t *testing.T) {
	lambda := [][]float64{
		{0, 0.4},
		{0.4, 0},
	}
	s, err := NewBirkhoffRandom(lambda, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Epsilon() <= 0 {
		t.Fatalf("epsilon = %g", s.Epsilon())
	}
	if s.NumComponents() < 1 {
		t.Fatal("no components")
	}
	if s.Name() != "birkhoff-random" {
		t.Fatalf("name = %q", s.Name())
	}
	// Overloaded matrix rejected.
	if _, err := NewBirkhoffRandom([][]float64{{1.5}}, 1); err == nil {
		t.Fatal("overload accepted")
	}
	// Zero-slack matrix rejected.
	if _, err := NewBirkhoffRandom([][]float64{{1, 0}, {0, 1}}, 1); err == nil {
		t.Fatal("no-slack matrix accepted")
	}
}

func TestBirkhoffRandomDecisionsValid(t *testing.T) {
	lambda := [][]float64{
		{0, 0.3, 0.3},
		{0.3, 0, 0.3},
		{0.3, 0.3, 0},
	}
	s, err := NewBirkhoffRandom(lambda, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(9)
	for trial := 0; trial < 200; trial++ {
		tab := randomTable(r, 3, 10)
		d := s.Schedule(tab)
		if err := ValidateDecision(3, d); err != nil {
			t.Fatal(err)
		}
	}
	// Empty table: empty decision.
	if d := s.Schedule(flow.NewTable(3)); len(d) != 0 {
		t.Fatalf("decision on empty table: %v", d)
	}
}

func TestBirkhoffRandomServiceRateDominatesLambda(t *testing.T) {
	// Sample many decisions over a fully backlogged table: the empirical
	// per-VOQ service frequency must be >= lambda + epsilon (within noise).
	const n = 3
	lambda := [][]float64{
		{0, 0.35, 0.2},
		{0.3, 0, 0.25},
		{0.25, 0.3, 0},
	}
	s, err := NewBirkhoffRandom(lambda, 11)
	if err != nil {
		t.Fatal(err)
	}
	tab := flow.NewTable(n)
	id := flow.ID(1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				tab.Add(flow.NewFlow(id, i, j, flow.ClassOther, 1e12, 0))
				id++
			}
		}
	}
	const rounds = 60000
	served := make([][]float64, n)
	for i := range served {
		served[i] = make([]float64, n)
	}
	for k := 0; k < rounds; k++ {
		for _, f := range s.Schedule(tab) {
			served[f.Src][f.Dst]++
		}
	}
	eps := s.Epsilon()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			rate := served[i][j] / rounds
			want := lambda[i][j] + eps
			if rate < want-0.02 {
				t.Fatalf("VOQ (%d,%d) served at %.3f, want >= %.3f", i, j, rate, want)
			}
		}
	}
}

func TestBirkhoffRandomPanicsOnWrongFabricSize(t *testing.T) {
	s, err := NewBirkhoffRandom([][]float64{{0, 0.4}, {0.4, 0}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab := flow.NewTable(3)
	tab.Add(flow.NewFlow(1, 0, 1, flow.ClassOther, 5, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	s.Schedule(tab)
}

// TestDistributedConvergesToCentralized: with unlimited rounds the
// deferred-acceptance emulation produces exactly the centralized greedy
// objective (unique stable matching under a global key).
func TestDistributedConvergesToCentralized(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 2 + r.Intn(6)
		tab := randomTable(r, n, 4*n)
		v := math.Floor(r.Float64() * 5000)
		central := NewFastBASRPT(v).Schedule(tab)
		dist := NewDistributed(v, 0).Schedule(tab)
		if err := ValidateDecision(n, dist); err != nil {
			t.Log(err)
			return false
		}
		return sameDecision(central, dist)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// perHostArbitration is the reference Distributed is checked against:
// the same request/grant rounds over per-host candidate lists gathered
// and sorted from scratch on every call, as each host of a real
// deployment would rank its own flows. It keeps its own round and loss
// counters and never touches the table's dirty feed.
type perHostArbitration struct {
	v                       float64
	rounds                  int
	dropGrant               func() bool
	totalRounds, grantsLost int64
}

func (s *perHostArbitration) Schedule(t *flow.Table) []*flow.Flow {
	n := t.N()
	vn := vOverN(s.v, n)
	cands := make([][]scored, n)
	t.ForEachNonEmpty(func(q *flow.VOQ) {
		f := q.Top()
		cands[q.Src] = append(cands[q.Src], scored{key: basrptKey(vn, f, q.Backlog()), f: f})
	})
	var free []int
	for i, c := range cands {
		slices.SortFunc(c, cmpScored)
		if len(c) > 0 {
			free = append(free, i)
		}
	}
	next := make([]int, n)
	held := make([]scored, n)
	heldBy := make([]int, n)
	maxRounds := s.rounds
	if maxRounds == 0 {
		maxRounds = n * n
	}
	for round := 0; round < maxRounds && len(free) > 0; round++ {
		s.totalRounds++
		var retry []int
		for _, i := range free {
			if next[i] >= len(cands[i]) {
				continue
			}
			if s.dropGrant != nil && s.dropGrant() {
				s.grantsLost++
				retry = append(retry, i)
				continue
			}
			prop := cands[i][next[i]]
			e := prop.f.Dst
			if held[e].f == nil || cmpScored(prop, held[e]) < 0 {
				if held[e].f != nil {
					next[heldBy[e]]++
					retry = append(retry, heldBy[e])
				}
				held[e], heldBy[e] = prop, i
			} else {
				next[i]++
				retry = append(retry, i)
			}
		}
		free = retry
	}
	var selected []*flow.Flow
	for _, h := range held {
		if h.f != nil {
			selected = append(selected, h.f)
		}
	}
	return selected
}

// TestDistributedMatchesPerHostArbitration: arbitrating over the repaired
// index makes, decision by decision, the same matching as per-host
// ranking from scratch, in the same egress order, with the same round
// count and the same proposals consulting the loss source — at every
// round budget, with and without control-message loss, across long
// random event sequences that exercise the index's delta repair.
func TestDistributedMatchesPerHostArbitration(t *testing.T) {
	if !IsDirtyConsumer(NewDistributed(2500, 0)) || !IsDirtyConsumer(NewOutageFallback(NewDistributed(2500, 0))) {
		t.Fatal("dist-basrpt does not consume the dirty feed")
	}
	for _, rounds := range []int{0, 1, 2, 4} {
		for _, lossy := range []bool{false, true} {
			for seed := uint64(1); seed <= 8; seed++ {
				got := NewDistributed(2500, rounds)
				want := &perHostArbitration{v: 2500, rounds: rounds}
				if lossy {
					gotLoss, wantLoss := stats.NewRNG(seed), stats.NewRNG(seed)
					got = NewLossyDistributed(2500, rounds, func() bool { return gotLoss.Float64() < 0.2 })
					want.dropGrant = func() bool { return wantLoss.Float64() < 0.2 }
				}
				d := newTableDriver(seed, 2+int(seed%7))
				var served []*flow.Flow
				for step := 0; step < 150; step++ {
					d.step(served)
					served = got.Schedule(d.tab)
					if ref := want.Schedule(d.tab); !identicalDecisions(served, ref) {
						t.Fatalf("rounds %d lossy %v seed %d step %d: index %v, per-host %v",
							rounds, lossy, seed, step, decisionIDs(served), decisionIDs(ref))
					}
					if got.TotalRounds() != want.totalRounds || got.GrantsLost() != want.grantsLost {
						t.Fatalf("rounds %d lossy %v seed %d step %d: rounds/lost %d/%d, per-host %d/%d",
							rounds, lossy, seed, step, got.TotalRounds(), got.GrantsLost(), want.totalRounds, want.grantsLost)
					}
					if err := CheckIndex(got, d.tab); err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
				}
				if st := IndexStatsOf(got); st.Repairs == 0 || st.Rebuilds != 1 {
					t.Fatalf("seed %d: index stats %+v, want repairs after one rebuild", seed, st)
				}
			}
		}
	}
}

func TestDistributedBoundedRoundsStillValid(t *testing.T) {
	r := stats.NewRNG(3)
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(5)
		tab := randomTable(r, n, 3*n)
		for _, rounds := range []int{1, 2, 3} {
			d := NewDistributed(2500, rounds).Schedule(tab)
			if err := ValidateDecision(n, d); err != nil {
				t.Fatalf("rounds=%d: %v", rounds, err)
			}
		}
	}
}

func TestDistributedRoundCapChangesDecisions(t *testing.T) {
	// The round cap must actually bind: across random states, one-round
	// arbitration sometimes produces a different decision than full
	// convergence (the greedy matching is not an objective optimum, so the
	// truncated decision's objective can land on either side — only
	// validity and divergence are asserted).
	r := stats.NewRNG(17)
	diverged := 0
	for trial := 0; trial < 200; trial++ {
		n := 3 + r.Intn(4)
		tab := randomTable(r, n, 4*n)
		full := NewDistributed(2500, 0).Schedule(tab)
		one := NewDistributed(2500, 1).Schedule(tab)
		if err := ValidateDecision(n, one); err != nil {
			t.Fatal(err)
		}
		if !sameDecision(full, one) {
			diverged++
		}
	}
	if diverged == 0 {
		t.Fatal("round cap never changed a decision across 200 states — cap is not binding")
	}
}

func TestDistributedName(t *testing.T) {
	if got := NewDistributed(2500, 0).Name(); got != "dist-basrpt(V=2500)" {
		t.Fatalf("name = %q", got)
	}
	if got := NewDistributed(2500, 3).Name(); got != "dist-basrpt(V=2500,rounds=3)" {
		t.Fatalf("name = %q", got)
	}
}

// DecisionAgreement measures how often two schedulers produce decisions
// with identical objective value on the same table state — the metric the
// distributed-emulation ablation reports. It returns the agreement
// fraction over the given states.
func DecisionAgreement(v float64, a, b Scheduler, states []*flow.Table) float64 {
	if len(states) == 0 {
		return 0
	}
	agree := 0
	for _, t := range states {
		oa := Objective(v, t, a.Schedule(t))
		ob := Objective(v, t, b.Schedule(t))
		if oa == ob || math.Abs(oa-ob) <= 1e-9*math.Max(1, math.Abs(oa)) {
			agree++
		}
	}
	return float64(agree) / float64(len(states))
}

func TestDecisionAgreement(t *testing.T) {
	r := stats.NewRNG(5)
	states := make([]*flow.Table, 20)
	for i := range states {
		states[i] = randomTable(r, 4, 12)
	}
	// A scheduler always agrees with itself.
	if got := DecisionAgreement(2500, NewFastBASRPT(2500), NewFastBASRPT(2500), states); got != 1 {
		t.Fatalf("self agreement = %g", got)
	}
	// Converged distributed agrees fully with centralized.
	if got := DecisionAgreement(2500, NewFastBASRPT(2500), NewDistributed(2500, 0), states); got != 1 {
		t.Fatalf("distributed agreement = %g", got)
	}
	// SRPT and MaxWeight should disagree on at least some states.
	if got := DecisionAgreement(2500, NewSRPT(), NewMaxWeight(), states); got == 1 {
		t.Fatal("srpt and maxweight agreed everywhere — suspicious states")
	}
	if got := DecisionAgreement(1, nil, nil, nil); got != 0 {
		t.Fatalf("empty agreement = %g", got)
	}
}

func TestNoisyFastBASRPTZeroNoiseEqualsPlain(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		tab := randomTable(r, 2+r.Intn(4), 15)
		plain := NewFastBASRPT(2500).Schedule(tab)
		noisy := NewNoisyFastBASRPT(2500, 0).Schedule(tab)
		return sameDecision(plain, noisy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNoisyFastBASRPTDecisionsValid(t *testing.T) {
	r := stats.NewRNG(7)
	s := NewNoisyFastBASRPT(2500, 0.5)
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(4)
		tab := randomTable(r, n, 12)
		d := s.Schedule(tab)
		if err := ValidateDecision(n, d); err != nil {
			t.Fatal(err)
		}
		if !IsMaximalDecision(tab, d) {
			t.Fatal("noisy decision not maximal")
		}
	}
}

func TestNoisyFactorProperties(t *testing.T) {
	s := NewNoisyFastBASRPT(1, 0.5)
	logSpan := math.Log(1.5)
	lo, hi := 1/1.5, 1.5
	for id := flow.ID(1); id < 3000; id++ {
		f := noiseFactor(id, logSpan)
		if f < lo-1e-12 || f > hi+1e-12 {
			t.Fatalf("factor(%d) = %g outside [%g, %g]", id, f, lo, hi)
		}
		if got := noiseFactor(id, logSpan); got != f {
			t.Fatal("factor not deterministic")
		}
	}
	if got := s.Name(); !strings.Contains(got, "noise=0.5") {
		t.Fatalf("name = %q", got)
	}
}

func TestNoisyFastBASRPTPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative v":         func() { NewNoisyFastBASRPT(-1, 0) },
		"negative noise":     func() { NewNoisyFastBASRPT(1, -0.1) },
		"distributed v":      func() { NewDistributed(-1, 0) },
		"distributed rounds": func() { NewDistributed(1, -1) },
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
