package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func testParams(seed uint64) Params {
	return Params{
		Seed:           seed,
		Horizon:        10,
		Ports:          8,
		LinkFaults:     4,
		Outages:        2,
		PacketLossProb: 0.05,
		GrantLossProb:  0.02,
	}
}

// TestGenerateDeterministic: the same params yield a byte-identical
// schedule, and the injectors over it make identical draws.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testParams(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testParams(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%+v\n%+v", a, b)
	}
	ia, ib := NewInjector(a), NewInjector(b)
	for i := 0; i < 1000; i++ {
		if ia.DropPacket() != ib.DropPacket() || ia.DropGrant() != ib.DropGrant() {
			t.Fatalf("loss draw %d diverged between equal injectors", i)
		}
	}
}

// TestGenerateSeedsDiffer: different seeds move the windows (sanity that
// the seed actually drives the draws).
func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(testParams(1))
	b, _ := Generate(testParams(2))
	if reflect.DeepEqual(a.LinkFaults, b.LinkFaults) {
		t.Fatal("different seeds produced identical link faults")
	}
}

// TestScheduleInvariants: for arbitrary seeds the generated windows are
// inside the horizon, positive, and disjoint per class (link faults are
// globally disjoint, so in particular disjoint per link).
func TestScheduleInvariants(t *testing.T) {
	f := func(seed uint64, nf, no uint8) bool {
		p := Params{
			Seed:       seed,
			Horizon:    5,
			Ports:      4,
			LinkFaults: int(nf % 16),
			Outages:    int(no % 8),
		}
		s, err := Generate(p)
		if err != nil {
			return false
		}
		if len(s.LinkFaults) != p.LinkFaults || len(s.Outages) != p.Outages {
			return false
		}
		for _, lf := range s.LinkFaults {
			if lf.Port < 0 || lf.Port >= p.Ports {
				return false
			}
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateRejectsInvalid: parameter validation.
func TestGenerateRejectsInvalid(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		p    Params
		want string // a substring naming the bad value, when set
	}{
		{"zero seed", Params{Seed: 0, Horizon: 1}, "seed"},
		{"zero horizon", Params{Seed: 1, Horizon: 0, LinkFaults: 1, Ports: 2}, ""},
		{"negative horizon", Params{Seed: 1, Horizon: -1}, ""},
		{"nan horizon", Params{Seed: 1, Horizon: nan}, "NaN"},
		{"negative counts", Params{Seed: 1, Horizon: 1, LinkFaults: -1}, ""},
		{"faults no ports", Params{Seed: 1, Horizon: 1, LinkFaults: 1, Ports: 0}, ""},
		{"packet loss >= 1", Params{Seed: 1, Horizon: 1, PacketLossProb: 1}, ""},
		{"negative pkt loss", Params{Seed: 1, Horizon: 1, PacketLossProb: -0.1}, ""},
		{"nan pkt loss", Params{Seed: 1, Horizon: 1, PacketLossProb: nan}, "NaN"},
		{"grant loss >= 1", Params{Seed: 1, Horizon: 1, GrantLossProb: 1.5}, ""},
		{"nan grant loss", Params{Seed: 1, Horizon: 1, GrantLossProb: nan}, "NaN"},
		{"degraded prob > 1", Params{Seed: 1, Horizon: 1, DegradedProb: 1.1}, ""},
		{"nan degraded prob", Params{Seed: 1, Horizon: 1, DegradedProb: nan}, "NaN"},
		{"negative mean dur", Params{Seed: 1, Horizon: 1, MeanLinkFaultDuration: -2}, ""},
		{"nan mean dur", Params{Seed: 1, Horizon: 1, MeanLinkFaultDuration: nan}, "NaN"},
		{"inf mean dur", Params{Seed: 1, Horizon: 1, MeanLinkFaultDuration: math.Inf(1)}, "Inf"},
		{"negative mean out", Params{Seed: 1, Horizon: 1, MeanOutageDuration: -2}, ""},
		{"nan mean out", Params{Seed: 1, Horizon: 1, MeanOutageDuration: nan}, "NaN"},
	} {
		_, err := Generate(tc.p)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateRejectsNonFinite: a hand-built schedule with a NaN or
// infinite bound fails Validate instead of passing every comparison.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		s    Schedule
		want string
	}{
		{"nan horizon", Schedule{Seed: 1, Horizon: nan}, "NaN"},
		{"inf horizon", Schedule{Seed: 1, Horizon: math.Inf(1)}, "Inf"},
		{"nan outage", Schedule{Seed: 1, Horizon: 1, Outages: []Window{{Start: nan, End: nan}}}, "NaN"},
		{"nan outage end", Schedule{Seed: 1, Horizon: 1, Outages: []Window{{Start: 0.1, End: nan}}}, "NaN"},
		{"nan link window", Schedule{Seed: 1, Horizon: 1, LinkFaults: []LinkFault{{Window: Window{Start: nan, End: 0.5}}}}, "NaN"},
		{"nan rate fraction", Schedule{Seed: 1, Horizon: 1,
			LinkFaults: []LinkFault{{Window: Window{Start: 0.1, End: 0.2}, RateFraction: nan}}}, "NaN"},
		{"nan packet loss", Schedule{Seed: 1, Horizon: 1, PacketLossProb: nan}, "NaN"},
		{"nan grant loss", Schedule{Seed: 1, Horizon: 1, GrantLossProb: nan}, "NaN"},
	} {
		err := tc.s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

// TestInjectorBoundaries: NextBoundaryAfter walks exactly the sorted set
// of window edges, and the fault state only changes across boundaries.
func TestInjectorBoundaries(t *testing.T) {
	s, err := Generate(testParams(3))
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(s)
	want := 2 * (len(s.LinkFaults) + len(s.Outages)) // edges may coincide, so this is an upper bound
	seen := 0
	prev := math.Inf(-1)
	t0 := 0.0
	for {
		b, ok := in.NextBoundaryAfter(t0)
		if !ok {
			break
		}
		if b <= prev || b <= t0 {
			t.Fatalf("boundary %g not strictly increasing after %g", b, t0)
		}
		if b < 0 || b > s.Horizon {
			t.Fatalf("boundary %g outside horizon", b)
		}
		prev, t0 = b, b
		if seen++; seen > want {
			t.Fatalf("more boundaries than window edges (%d > %d)", seen, want)
		}
	}
	if seen == 0 {
		t.Fatal("no boundaries for a schedule with windows")
	}
}

// TestLinkRateFraction: inside a fault window the port's fraction matches
// the fault; outside (and for other ports) it is 1.
func TestLinkRateFraction(t *testing.T) {
	s := &Schedule{
		Seed:    1,
		Horizon: 10,
		LinkFaults: []LinkFault{
			{Window: Window{Start: 1, End: 2}, Port: 0, RateFraction: 0},
			{Window: Window{Start: 4, End: 6}, Port: 1, RateFraction: 0.5},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	in := NewInjector(s)
	cases := []struct {
		port int
		t    float64
		want float64
	}{
		{0, 0.5, 1}, {0, 1, 0}, {0, 1.99, 0}, {0, 2, 1},
		{1, 1.5, 1}, {1, 5, 0.5}, {1, 6, 1},
		{2, 5, 1},
	}
	for _, c := range cases {
		if got := in.LinkRateFraction(c.port, c.t); got != c.want {
			t.Errorf("LinkRateFraction(%d, %g) = %g, want %g", c.port, c.t, got, c.want)
		}
	}
}

// TestSchedulerDown: half-open outage windows.
func TestSchedulerDown(t *testing.T) {
	s := &Schedule{Seed: 1, Horizon: 10, Outages: []Window{{Start: 2, End: 3}}}
	in := NewInjector(s)
	for _, c := range []struct {
		t    float64
		want bool
	}{{1.9, false}, {2, true}, {2.5, true}, {3, false}} {
		if got := in.SchedulerDown(c.t); got != c.want {
			t.Errorf("SchedulerDown(%g) = %v, want %v", c.t, got, c.want)
		}
	}
}

// TestTransitionsAt counts edges exactly at a boundary instant.
func TestTransitionsAt(t *testing.T) {
	s := &Schedule{
		Seed:       1,
		Horizon:    10,
		LinkFaults: []LinkFault{{Window: Window{Start: 1, End: 2}, Port: 0}},
		Outages:    []Window{{Start: 2, End: 3}},
	}
	in := NewInjector(s)
	ls, le, os, oe := in.TransitionsAt(2)
	if ls != 0 || le != 1 || os != 1 || oe != 0 {
		t.Fatalf("TransitionsAt(2) = %d %d %d %d", ls, le, os, oe)
	}
}

// TestLossRatesApproximate: the Bernoulli streams hit their configured
// rates and disabled streams never fire.
func TestLossRatesApproximate(t *testing.T) {
	s, err := Generate(Params{Seed: 9, Horizon: 1, PacketLossProb: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(s)
	const n = 20000
	drops := 0
	for i := 0; i < n; i++ {
		if in.DropPacket() {
			drops++
		}
		if in.DropGrant() {
			t.Fatal("grant loss fired with probability 0")
		}
	}
	if rate := float64(drops) / n; math.Abs(rate-0.3) > 0.02 {
		t.Fatalf("packet loss rate %g, want ~0.3", rate)
	}
}

// TestFirstLastFaultWindow: the recovery metric's anchors.
func TestFirstLastFaultWindow(t *testing.T) {
	s, err := Generate(testParams(5))
	if err != nil {
		t.Fatal(err)
	}
	first, last := s.FirstFaultStart(), s.LastFaultEnd()
	if first < activeLo*s.Horizon || last > activeHi*s.Horizon || first >= last {
		t.Fatalf("fault band [%g, %g] outside active band of horizon %g", first, last, s.Horizon)
	}
	empty := &Schedule{Seed: 1, Horizon: 1}
	if !math.IsInf(empty.FirstFaultStart(), 1) || !math.IsInf(empty.LastFaultEnd(), -1) {
		t.Fatal("empty schedule should have infinite fault anchors")
	}
}
