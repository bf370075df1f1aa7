package workload

import (
	"errors"
	"math"
	"testing"

	"basrpt/internal/birkhoff"
	"basrpt/internal/flow"
	"basrpt/internal/stats"
	"basrpt/internal/topology"
)

func testTopo(t *testing.T, racks, hostsPerRack int) *topology.Topology {
	t.Helper()
	topo, err := topology.New(topology.Scaled(racks, hostsPerRack))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestWebSearchDistributionShape(t *testing.T) {
	d := WebSearchBytes()
	if d.Min() != Packet {
		t.Fatalf("min = %g, want one packet", d.Min())
	}
	if got, want := d.Max(), 20000*Packet; got != want {
		t.Fatalf("max = %g, want %g", got, want)
	}
	// Heavy tail: the mean is far above the median.
	median := d.Quantile(0.5)
	if d.Mean() < 5*median {
		t.Fatalf("web-search mean %g not heavy-tailed vs median %g", d.Mean(), median)
	}
	// >50% of bytes must come from the top 10% of flows (the 1–20MB tail).
	r := stats.NewRNG(1)
	var total, tail float64
	p90 := d.Quantile(0.9)
	for i := 0; i < 200000; i++ {
		v := d.Sample(r)
		total += v
		if v >= p90 {
			tail += v
		}
	}
	if frac := tail / total; frac < 0.5 {
		t.Fatalf("top-decile flows carry %.2f of bytes, want > 0.5", frac)
	}
}

func TestDataMiningDistributionShape(t *testing.T) {
	d := DataMiningBytes()
	// Half the flows are at most ~2 packets.
	if med := d.Quantile(0.5); med > 3*Packet {
		t.Fatalf("median = %g, want <= ~2 packets", med)
	}
	// The tail reaches hundreds of MB.
	if d.Max() < 5e8 {
		t.Fatalf("max = %g, want >= 5e8", d.Max())
	}
	// The paper's Section III-B assumes "all flow lengths are within an
	// upper bound of 50MB"; the web-search table meets it uncapped.
	if WebSearchBytes().Max() > 50e6 {
		t.Fatal("web-search exceeds the 50MB modeling bound")
	}
}

func TestSliceGenerator(t *testing.T) {
	arr := []Arrival{
		{Time: 0, Src: 0, Dst: 1, Size: 10, Class: flow.ClassQuery},
		{Time: 1, Src: 1, Dst: 0, Size: 20, Class: flow.ClassBackground},
	}
	g := NewSliceGenerator(arr)
	for i := range arr {
		got, ok := g.Next()
		if !ok || got != arr[i] {
			t.Fatalf("Next %d = (%+v, %v)", i, got, ok)
		}
	}
	if _, ok := g.Next(); ok {
		t.Fatal("exhausted generator returned ok")
	}
	// Mutating the source slice must not affect the generator.
	arr2 := []Arrival{{Time: 5}}
	g2 := NewSliceGenerator(arr2)
	arr2[0].Time = 99
	if a, _ := g2.Next(); a.Time != 5 {
		t.Fatal("SliceGenerator aliased caller slice")
	}
}

func TestNewMixedValidation(t *testing.T) {
	topo := testTopo(t, 2, 4)
	nan := math.NaN()
	cases := []MixedConfig{
		{Load: 0.5, Duration: 1, Seed: 1},                                            // nil topology
		{Topology: topo, Load: 0, Duration: 1, Seed: 1},                              // zero load
		{Topology: topo, Load: 1.5, Duration: 1, Seed: 1},                            // overload
		{Topology: topo, Load: 0.5, Duration: 0, Seed: 1},                            // no duration
		{Topology: topo, Load: 0.5, Duration: 1, QueryByteFraction: 2, Seed: 1},      // bad fraction
		{Topology: topo, Load: 0.5, Duration: 1, QueryByteFraction: -0.001, Seed: 1}, // bad fraction
		{Topology: topo, Load: 0.5, Duration: 1},                                     // seed 0 used to alias to 1
		{Topology: topo, Load: nan, Duration: 1, Seed: 1},                            // NaN load
		{Topology: topo, Load: 0.5, Duration: 1, QueryByteFraction: nan, Seed: 1},    // NaN fraction
		{Topology: topo, Load: 0.5, Duration: nan, Seed: 1},                          // NaN duration
		{Topology: topo, Load: 0.5, Duration: math.Inf(1), Seed: 1},                  // endless stream
	}
	for i, cfg := range cases {
		if _, err := NewMixed(cfg); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("config %d accepted or wrong error: %v", i, err)
		}
	}
}

func TestMixedArrivalsRespectStructure(t *testing.T) {
	topo := testTopo(t, 3, 4)
	g, err := NewMixed(MixedConfig{
		Topology:          topo,
		Load:              0.6,
		Duration:          2,
		Seed:              7,
		QueryByteFraction: DefaultQueryByteFraction,
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	queries, bgs := 0, 0
	for {
		a, ok := g.Next()
		if !ok {
			break
		}
		if a.Time < prev {
			t.Fatalf("arrivals out of order: %g after %g", a.Time, prev)
		}
		prev = a.Time
		if a.Time > 2 {
			t.Fatalf("arrival at %g beyond horizon", a.Time)
		}
		if a.Src == a.Dst {
			t.Fatal("self-directed flow")
		}
		if a.Src < 0 || a.Src >= topo.NumHosts() || a.Dst < 0 || a.Dst >= topo.NumHosts() {
			t.Fatalf("ports out of range: %+v", a)
		}
		switch a.Class {
		case flow.ClassQuery:
			queries++
			if a.Size != QueryBytes {
				t.Fatalf("query size %g, want %g", a.Size, QueryBytes)
			}
		case flow.ClassBackground:
			bgs++
			if !topo.SameRack(a.Src, a.Dst) {
				t.Fatalf("background flow crosses racks: %+v", a)
			}
			if a.Size < Packet {
				t.Fatalf("background size %g below one packet", a.Size)
			}
		default:
			t.Fatalf("unexpected class %v", a.Class)
		}
	}
	if queries == 0 || bgs == 0 {
		t.Fatalf("expected both classes, got %d queries / %d background", queries, bgs)
	}
}

func TestMixedDeterministicPerSeed(t *testing.T) {
	topo := testTopo(t, 2, 4)
	mk := func() []Arrival {
		g, err := NewMixed(MixedConfig{
			Topology: topo, Load: 0.5, Duration: 1, Seed: 42,
			QueryByteFraction: DefaultQueryByteFraction,
		})
		if err != nil {
			t.Fatal(err)
		}
		var out []Arrival
		for {
			a, ok := g.Next()
			if !ok {
				return out
			}
			out = append(out, a)
		}
	}
	a, b := mk(), mk()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestMixedOfferedLoadMatchesTarget(t *testing.T) {
	topo := testTopo(t, 2, 6)
	const load = 0.7
	const duration = 20.0
	g, err := NewMixed(MixedConfig{
		Topology: topo, Load: load, Duration: duration, Seed: 3,
		QueryByteFraction: DefaultQueryByteFraction,
	})
	if err != nil {
		t.Fatal(err)
	}
	perSrc := make([]float64, topo.NumHosts())
	for {
		a, ok := g.Next()
		if !ok {
			break
		}
		perSrc[a.Src] += a.Size
	}
	capacityBytes := topo.HostLinkBps() / 8 * duration
	for host, bytes := range perSrc {
		got := bytes / capacityBytes
		// Heavy-tailed sizes make per-host load noisy; 35% tolerance on a
		// 20-second window is enough to catch calibration bugs (which are
		// typically off by the query fraction or a factor of 8).
		if math.Abs(got-load)/load > 0.35 {
			t.Fatalf("host %d offered load %.3f, want ~%.2f", host, got, load)
		}
	}
}

func TestMixedQueryOnlyAndBackgroundOnly(t *testing.T) {
	topo := testTopo(t, 2, 4)
	qOnly, err := NewMixed(MixedConfig{
		Topology: topo, Load: 0.4, Duration: 1, QueryByteFraction: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for {
		a, ok := qOnly.Next()
		if !ok {
			break
		}
		if a.Class != flow.ClassQuery {
			t.Fatalf("query-only produced %v", a.Class)
		}
	}
	bOnly, err := NewMixed(MixedConfig{
		Topology: topo, Load: 0.4, Duration: 1, QueryByteFraction: -1, Seed: 5,
	})
	if err == nil {
		_ = bOnly
		t.Fatal("negative fraction accepted")
	}
}

func TestRateMatrixAdmissibleAndCalibrated(t *testing.T) {
	topo := testTopo(t, 3, 4)
	const load = 0.8
	g, err := NewMixed(MixedConfig{
		Topology: topo, Load: load, Duration: 1, Seed: 1,
		QueryByteFraction: DefaultQueryByteFraction,
	})
	if err != nil {
		t.Fatal(err)
	}
	lambda := g.RateMatrix()
	if err := birkhoff.CheckAdmissible(lambda, 1e-9); err != nil {
		t.Fatalf("rate matrix inadmissible: %v", err)
	}
	rows, cols := birkhoff.LineSums(lambda)
	for i := range rows {
		if math.Abs(rows[i]-load) > 1e-9 {
			t.Fatalf("row %d sum %g, want %g", i, rows[i], load)
		}
		if math.Abs(cols[i]-load) > 1e-6 {
			t.Fatalf("col %d sum %g, want %g", i, cols[i], load)
		}
	}
	// Diagonal must be empty (no self traffic).
	for i := range lambda {
		if lambda[i][i] != 0 {
			t.Fatalf("self-traffic at host %d", i)
		}
	}
	// Slack exists below capacity.
	if eps := birkhoff.SlackLowerBound(lambda); eps <= 0 {
		t.Fatalf("no slack at load %g", load)
	}
}

func TestRackLocalDestinationUniform(t *testing.T) {
	topo := testTopo(t, 2, 4)
	g, err := NewMixed(MixedConfig{
		Topology: topo, Load: 0.5, Duration: 50, Seed: 11, QueryByteFraction: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[[2]int]int{}
	total := 0
	for {
		a, ok := g.Next()
		if !ok {
			break
		}
		counts[[2]int{a.Src, a.Dst}]++
		total++
	}
	if total == 0 {
		t.Fatal("no arrivals")
	}
	// Each host has 3 rack-mates; every (src, dst) pair should get roughly
	// total / (8 hosts * 3 peers) arrivals.
	expect := float64(total) / 24
	for pair, c := range counts {
		if math.Abs(float64(c)-expect)/expect > 0.3 {
			t.Fatalf("pair %v saw %d arrivals, expect ~%.0f", pair, c, expect)
		}
	}
}

// TestNewMixedAllocsIndependentOfHosts: building a generator allocates a
// fixed number of objects however many sources it primes; the calendar's
// storage grows with the host count, its allocation count must not.
func TestNewMixedAllocsIndependentOfHosts(t *testing.T) {
	allocs := func(racks int) float64 {
		cfg := MixedConfig{
			Topology: testTopo(t, racks, 12), Load: 0.8, Duration: 1, Seed: 1,
			QueryByteFraction: DefaultQueryByteFraction,
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := NewMixed(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(12), allocs(344)
	if small != large {
		t.Fatalf("NewMixed allocates %.0f objects at 144 hosts but %.0f at 4128", small, large)
	}
}
