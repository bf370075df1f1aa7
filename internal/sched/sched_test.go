package sched

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"basrpt/internal/flow"
	"basrpt/internal/stats"
)

// buildTable assembles a table from (src, dst, size) triples.
func buildTable(n int, specs [][3]float64) (*flow.Table, []*flow.Flow) {
	t := flow.NewTable(n)
	flows := make([]*flow.Flow, 0, len(specs))
	for i, s := range specs {
		f := flow.NewFlow(flow.ID(i+1), int(s[0]), int(s[1]), flow.ClassOther, s[2], float64(i))
		t.Add(f)
		flows = append(flows, f)
	}
	return t, flows
}

// randomTable fills a table with a random flow population. Sizes carry a
// per-flow fractional offset so they are pairwise distinct: the schedulers'
// V→∞/V=0 limit equivalences hold exactly only without size ties (ties
// break on different secondary keys).
func randomTable(r *stats.RNG, n, maxFlows int) *flow.Table {
	t := flow.NewTable(n)
	count := 1 + r.Intn(maxFlows)
	for i := 0; i < count; i++ {
		size := 1 + math.Floor(r.Float64()*1000) + float64(i)*1e-3
		f := flow.NewFlow(flow.ID(i+1), r.Intn(n), r.Intn(n), flow.ClassOther,
			size, r.Float64()*100)
		t.Add(f)
	}
	return t
}

func decisionIDs(d []*flow.Flow) []int64 {
	ids := make([]int64, len(d))
	for i, f := range d {
		ids[i] = int64(f.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func sameDecision(a, b []*flow.Flow) bool {
	x, y := decisionIDs(a), decisionIDs(b)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

func TestSRPTPicksGloballyShortestFirst(t *testing.T) {
	// Shortest flow (id 3, size 5) is at (1,1); it blocks (1,0) and (0,1)
	// candidates sharing its ports, leaving (0,0).
	tab, flows := buildTable(2, [][3]float64{
		{0, 0, 100}, // id 1
		{0, 1, 50},  // id 2
		{1, 1, 5},   // id 3
		{1, 0, 70},  // id 4
	})
	got := NewSRPT().Schedule(tab)
	want := []*flow.Flow{flows[2], flows[0]}
	if !sameDecision(got, want) {
		t.Fatalf("SRPT decision = %v, want flows 3 and 1", decisionIDs(got))
	}
}

func TestSRPTWithinVOQPicksShortest(t *testing.T) {
	tab, flows := buildTable(2, [][3]float64{
		{0, 0, 100},
		{0, 0, 10},
	})
	got := NewSRPT().Schedule(tab)
	if len(got) != 1 || got[0] != flows[1] {
		t.Fatalf("SRPT picked %v, want the 10-byte flow", decisionIDs(got))
	}
}

func TestSRPTEmptyTable(t *testing.T) {
	tab := flow.NewTable(3)
	if got := NewSRPT().Schedule(tab); len(got) != 0 {
		t.Fatalf("SRPT on empty table = %v", got)
	}
}

func TestFastBASRPTPrefersLongQueueWhenVSmall(t *testing.T) {
	// VOQ (0,0): single huge flow sitting in a huge backlog.
	// VOQ (1,1)... choose conflicting VOQ (0,1) with a tiny flow in a tiny
	// backlog. With small V the long queue wins the ingress port; with
	// huge V the short flow wins.
	tab, flows := buildTable(2, [][3]float64{
		{0, 0, 1000}, // id 1, backlog 1000
		{0, 1, 10},   // id 2, backlog 10
	})
	small := NewFastBASRPT(0.1).Schedule(tab)
	if len(small) != 1 || small[0] != flows[0] {
		t.Fatalf("V=0.1 decision = %v, want the backlogged flow 1", decisionIDs(small))
	}
	large := NewFastBASRPT(1e9).Schedule(tab)
	if len(large) != 1 || large[0] != flows[1] {
		t.Fatalf("V=1e9 decision = %v, want the short flow 2", decisionIDs(large))
	}
}

func TestFastBASRPTKeySumIdentity(t *testing.T) {
	// With |S| = N selected flows, summing the per-flow keys equals
	// V·ȳ − ΣX·R — the approximation argument in Section IV-C.
	tab, _ := buildTable(3, [][3]float64{
		{0, 1, 40},
		{1, 2, 60},
		{2, 0, 80},
	})
	const v = 2500.0
	s := NewFastBASRPT(v)
	decision := s.Schedule(tab)
	if len(decision) != 3 {
		t.Fatalf("decision size = %d, want 3", len(decision))
	}
	var keySum float64
	for _, f := range decision {
		keySum += v/3*f.Remaining - tab.VOQ(f.Src, f.Dst).Backlog()
	}
	if obj := Objective(v, tab, decision); math.Abs(keySum-obj) > 1e-9 {
		t.Fatalf("key sum %g != objective %g", keySum, obj)
	}
}

// TestFastBASRPTLimits: V→∞ reduces to SRPT, V=0 reduces to MaxWeight.
func TestFastBASRPTLimits(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		tab := randomTable(r, 2+r.Intn(5), 20)
		srpt := NewSRPT().Schedule(tab)
		inf := NewFastBASRPT(1e15).Schedule(tab)
		if !sameDecision(srpt, inf) {
			return false
		}
		mw := NewMaxWeight().Schedule(tab)
		zero := NewFastBASRPT(0).Schedule(tab)
		return sameDecision(mw, zero)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestDecisionsAreValidMaximalMatchings: the core crossbar invariant for
// every discipline in the registry.
func TestDecisionsAreValidMaximalMatchings(t *testing.T) {
	schedulers := []Scheduler{
		NewSRPT(),
		NewFastBASRPT(2500),
		NewExactBASRPT(2500),
		NewMaxWeight(),
		NewFIFOMatch(),
		NewThresholdBacklog(500),
		NewRandom(7),
	}
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		tab := randomTable(r, 2+r.Intn(4), 15)
		for _, s := range schedulers {
			d := s.Schedule(tab)
			if err := ValidateDecision(tab.N(), d); err != nil {
				t.Logf("%s: %v", s.Name(), err)
				return false
			}
			if !IsMaximalDecision(tab, d) {
				t.Logf("%s produced non-maximal decision", s.Name())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestExactBeatsOrMatchesFast: the exhaustive minimizer never has a worse
// objective than the greedy approximation.
func TestExactBeatsOrMatchesFast(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		tab := randomTable(r, 2+r.Intn(3), 10)
		v := math.Floor(r.Float64() * 5000)
		exact := NewExactBASRPT(v).Schedule(tab)
		fast := NewFastBASRPT(v).Schedule(tab)
		return Objective(v, tab, exact) <= Objective(v, tab, fast)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestExactIsTrueMinimum: brute-force cross-check on tiny instances that
// exact BASRPT's objective matches the minimum over all maximal matchings
// with per-VOQ shortest flows.
func TestExactIsTrueMinimum(t *testing.T) {
	tab, _ := buildTable(3, [][3]float64{
		{0, 0, 100},
		{0, 1, 10},
		{1, 0, 20},
		{1, 1, 300},
		{2, 2, 50},
		{0, 0, 5}, // second flow in VOQ (0,0)
	})
	const v = 100
	exact := NewExactBASRPT(v).Schedule(tab)
	got := Objective(v, tab, exact)

	// Brute force: VOQ tops are (0,0)->5, (0,1)->10, (1,0)->20,
	// (1,1)->300, (2,2)->50. Enumerate subsets forming maximal matchings.
	type edge struct{ s, d int }
	tops := map[edge]float64{
		{0, 0}: 5, {0, 1}: 10, {1, 0}: 20, {1, 1}: 300, {2, 2}: 50,
	}
	edges := []edge{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 2}}
	best := math.Inf(1)
	for mask := 1; mask < 1<<len(edges); mask++ {
		var sel []edge
		usedS, usedD := map[int]bool{}, map[int]bool{}
		valid := true
		for i, e := range edges {
			if mask&(1<<i) == 0 {
				continue
			}
			if usedS[e.s] || usedD[e.d] {
				valid = false
				break
			}
			usedS[e.s], usedD[e.d] = true, true
			sel = append(sel, e)
		}
		if !valid {
			continue
		}
		maximal := true
		for _, e := range edges {
			if !usedS[e.s] && !usedD[e.d] {
				maximal = false
				break
			}
		}
		if !maximal {
			continue
		}
		var sumY, sumX float64
		for _, e := range sel {
			sumY += tops[e]
			sumX += tab.VOQ(e.s, e.d).Backlog()
		}
		obj := v*sumY/float64(len(sel)) - sumX
		if obj < best {
			best = obj
		}
	}
	if math.Abs(got-best) > 1e-9 {
		t.Fatalf("exact objective %g, brute force %g", got, best)
	}
}

func TestExactBASRPTPanicsOnLargeFabric(t *testing.T) {
	tab := flow.NewTable(20)
	tab.Add(flow.NewFlow(1, 0, 0, flow.ClassOther, 1, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("exact BASRPT on 20 ports did not panic")
		}
	}()
	NewExactBASRPT(1).Schedule(tab)
}

// TestCheckPorts pins the one port-limit check the fabric entry points
// call: exact BASRPT accepts DefaultExactMaxPorts and rejects one more,
// and every other discipline accepts any size.
func TestCheckPorts(t *testing.T) {
	exact := NewExactBASRPT(1)
	if err := CheckPorts(exact, DefaultExactMaxPorts); err != nil {
		t.Fatalf("exact BASRPT on %d ports rejected: %v", DefaultExactMaxPorts, err)
	}
	err := CheckPorts(exact, DefaultExactMaxPorts+1)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit 8") {
		t.Fatalf("exact BASRPT on %d ports: err = %v, want the 8-port limit", DefaultExactMaxPorts+1, err)
	}
	for _, name := range Names() {
		if name == "exact-basrpt" {
			continue
		}
		s, err := New(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckPorts(s, 4128); err != nil {
			t.Fatalf("%s on 4128 ports rejected: %v", name, err)
		}
	}
}

func TestFIFOMatchPrefersOldest(t *testing.T) {
	tab := flow.NewTable(2)
	newer := flow.NewFlow(1, 0, 0, flow.ClassOther, 5, 10) // small but new
	older := flow.NewFlow(2, 0, 1, flow.ClassOther, 500, 1)
	tab.Add(newer)
	tab.Add(older)
	got := NewFIFOMatch().Schedule(tab)
	// Oldest (id 2) wins ingress 0; then (0,0) blocked by ingress.
	if len(got) != 1 || got[0] != older {
		t.Fatalf("FIFO decision = %v, want flow 2", decisionIDs(got))
	}
}

func TestThresholdBacklogPrioritizesHotQueues(t *testing.T) {
	tab, flows := buildTable(2, [][3]float64{
		{0, 0, 1000}, // big flow, big backlog
		{0, 1, 10},   // small flow, small backlog
	})
	// Below threshold: SRPT behaviour, small flow wins.
	cold := NewThresholdBacklog(1e6).Schedule(tab)
	if len(cold) != 1 || cold[0] != flows[1] {
		t.Fatalf("below-threshold decision = %v, want flow 2", decisionIDs(cold))
	}
	// Above threshold: hot queue jumps ahead.
	hot := NewThresholdBacklog(500).Schedule(tab)
	if len(hot) != 1 || hot[0] != flows[0] {
		t.Fatalf("above-threshold decision = %v, want flow 1", decisionIDs(hot))
	}
}

func TestRandomIsDeterministicPerSeed(t *testing.T) {
	mk := func(seed uint64) []int64 {
		r := stats.NewRNG(33)
		tab := randomTable(r, 4, 12)
		return decisionIDs(NewRandom(seed).Schedule(tab))
	}
	a, b := mk(5), mk(5)
	if len(a) != len(b) {
		t.Fatal("same seed gave different decision sizes")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different decisions")
		}
	}
}

func TestValidateDecisionErrors(t *testing.T) {
	f1 := flow.NewFlow(1, 0, 0, flow.ClassOther, 1, 0)
	f2 := flow.NewFlow(2, 0, 1, flow.ClassOther, 1, 0)
	f3 := flow.NewFlow(3, 1, 0, flow.ClassOther, 1, 0)
	if err := ValidateDecision(2, []*flow.Flow{f1, f2}); err == nil {
		t.Fatal("shared ingress not rejected")
	}
	if err := ValidateDecision(2, []*flow.Flow{f1, f3}); err == nil {
		t.Fatal("shared egress not rejected")
	}
	if err := ValidateDecision(2, []*flow.Flow{nil}); err == nil {
		t.Fatal("nil flow not rejected")
	}
	bad := flow.NewFlow(4, 9, 0, flow.ClassOther, 1, 0)
	if err := ValidateDecision(2, []*flow.Flow{bad}); err == nil {
		t.Fatal("out-of-range port not rejected")
	}
	if err := ValidateDecision(2, []*flow.Flow{f2, f3}); err != nil {
		t.Fatalf("valid decision rejected: %v", err)
	}
}

func TestObjectiveEmptyDecision(t *testing.T) {
	tab := flow.NewTable(2)
	if got := Objective(100, tab, nil); !math.IsInf(got, 1) {
		t.Fatalf("empty objective = %g, want +Inf", got)
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name, Options{})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() == "" {
			t.Fatalf("scheduler %q has empty Name", name)
		}
	}
	if _, err := New("bogus", Options{}); err == nil {
		t.Fatal("unknown name accepted")
	} else if !strings.Contains(err.Error(), "srpt") {
		t.Fatalf("error should list valid names: %v", err)
	}
	// Options no discipline defines fail with an error naming the value,
	// not a constructor panic or a run under a NaN weight.
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"fast-basrpt", Options{V: -1}, "V -1"},
		{"fast-basrpt", Options{V: math.NaN()}, "V NaN"},
		{"fast-basrpt", Options{V: math.Inf(1)}, "V +Inf"},
		{"threshold", Options{Threshold: math.NaN()}, "threshold NaN"},
		{"threshold", Options{Threshold: -5}, "threshold -5"},
		{"noisy-basrpt", Options{NoiseLevel: -0.5}, "noise level -0.5"},
		{"noisy-basrpt", Options{NoiseLevel: math.Inf(1)}, "noise level +Inf"},
		{"dist-basrpt", Options{Rounds: -1}, "rounds -1"},
	} {
		if _, err := New(tc.name, tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("New(%q, %+v): error %v, want one naming %q", tc.name, tc.opts, err, tc.want)
		}
	}
	// Defaults applied.
	s, err := New("fast-basrpt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Name(); got != "fast-basrpt(V=2500)" {
		t.Fatalf("default V not applied: %q", got)
	}
}

func TestSchedulerNames(t *testing.T) {
	cases := map[Scheduler]string{
		NewSRPT():              "srpt",
		NewFastBASRPT(2500):    "fast-basrpt(V=2500)",
		NewExactBASRPT(10):     "exact-basrpt(V=10)",
		NewMaxWeight():         "maxweight",
		NewFIFOMatch():         "fifo",
		NewThresholdBacklog(5): "threshold(T=5)",
	}
	for s, want := range cases {
		if got := s.Name(); got != want {
			t.Fatalf("Name = %q, want %q", got, want)
		}
	}
	if got := NewRandom(1).Name(); got != "random" {
		t.Fatalf("random Name = %q", got)
	}
}

func TestRegistryExtensionOptions(t *testing.T) {
	s, err := New("dist-basrpt", Options{V: 100, Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Name(); got != "dist-basrpt(V=100,rounds=3)" {
		t.Fatalf("name = %q", got)
	}
	s, err = New("noisy-basrpt", Options{V: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Default noise level applies.
	if got := s.Name(); got != "noisy-basrpt(V=100,noise=0.25)" {
		t.Fatalf("name = %q", got)
	}
}
