package sched

import (
	"testing"

	"basrpt/internal/flow"
	"basrpt/internal/stats"
)

// pooledDriver is benchDriver with flow recycling, so the driver's own
// arrivals and completions are allocation-free in steady state. That makes
// testing.AllocsPerRun attribute every observed allocation to the scheduler
// under test rather than to the harness.
type pooledDriver struct {
	r    *stats.RNG
	tab  *flow.Table
	pool flow.FreeList
	next flow.ID
}

func newPooledDriver(n, population int) *pooledDriver {
	d := &pooledDriver{r: stats.NewRNG(1719), tab: flow.NewTable(n), next: 1}
	for i := 0; i < population; i++ {
		d.arrive()
	}
	return d
}

func (d *pooledDriver) arrive() {
	n := d.tab.N()
	size := 1 + float64(d.r.Intn(1_000_000)) + float64(d.next)*1e-3
	f := d.pool.Get(d.next, d.r.Intn(n), d.r.Intn(n), flow.ClassOther, size, float64(d.next))
	d.next++
	d.tab.Add(f)
}

// touchAllPairs adds and removes one flow on every (src, dst) pair, so the
// table materializes all n² VOQs up front. A pair's first flow allocates
// its VOQ slot (and grows the index's per-slot stamps); without this a
// random arrival could hit a fresh pair inside the measured loop.
func (d *pooledDriver) touchAllPairs() {
	n := d.tab.N()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			f := d.pool.Get(0, src, dst, flow.ClassOther, 1, 0)
			d.tab.Add(f)
			d.tab.Remove(f)
			d.pool.Put(f)
		}
	}
}

// step serves the previous decision and replaces each completed flow with
// a fresh arrival drawn from the free list. Unlike benchDriver.step it
// holds the population exactly constant: every Get is preceded by a Put,
// so the free list never misses and the driver contributes zero
// allocations of its own.
func (d *pooledDriver) step(served []*flow.Flow) {
	for _, f := range served {
		if d.r.Float64() < 0.05 {
			d.tab.Drain(f, f.Remaining)
			d.tab.Remove(f)
			d.pool.Put(f)
			d.arrive() // keep the population (and load) steady
		} else {
			d.tab.Drain(f, 1+d.r.Float64()*f.Remaining*0.1)
		}
	}
}

// testScheduleZeroAlloc drives a scheduler to steady state (index built,
// every scratch buffer at its high-water capacity, free list populated) and
// then requires the serve-admit-schedule loop to allocate nothing at all.
// The warm-up first touches every pair: materializing a VOQ is a one-time
// allocation per pair, not a per-decision one.
// This is the regression gate behind the tentpole: any reintroduced
// per-decision allocation — a fresh decision slice, a map in the index
// check path, a boxed event — fails the test immediately.
func testScheduleZeroAlloc(t *testing.T, s Scheduler) {
	t.Helper()
	d := newPooledDriver(32, 600)
	d.touchAllPairs()
	var served []*flow.Flow
	for i := 0; i < 200; i++ {
		d.step(served)
		served = s.Schedule(d.tab)
	}
	avg := testing.AllocsPerRun(100, func() {
		d.step(served)
		served = s.Schedule(d.tab)
	})
	if avg != 0 {
		t.Fatalf("steady-state schedule loop allocates %.2f times per decision, want 0", avg)
	}
}

func TestScheduleZeroAllocSRPT(t *testing.T) {
	testScheduleZeroAlloc(t, NewSRPT())
}

func TestScheduleZeroAllocFastBASRPT(t *testing.T) {
	testScheduleZeroAlloc(t, NewFastBASRPT(2500))
}

// TestScheduleZeroAllocRegistry holds every full-size discipline in the
// registry to the same gate. exact-basrpt is left out: it is the
// exhaustive oracle, limited to DefaultExactMaxPorts.
func TestScheduleZeroAllocRegistry(t *testing.T) {
	for _, name := range Names() {
		if name == "exact-basrpt" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			s, err := New(name, Options{})
			if err != nil {
				t.Fatal(err)
			}
			testScheduleZeroAlloc(t, s)
		})
	}
}

// TestScheduleZeroAllocDistBASRPT covers the arbitration's round budget
// and its control-message loss, which the registry defaults leave off.
func TestScheduleZeroAllocDistBASRPT(t *testing.T) {
	loss := stats.NewRNG(41)
	for name, s := range map[string]Scheduler{
		"rounds-4": NewDistributed(2500, 4),
		"lossy":    NewLossyDistributed(2500, 4, func() bool { return loss.Float64() < 0.1 }),
	} {
		t.Run(name, func(t *testing.T) { testScheduleZeroAlloc(t, s) })
	}
}

// The Validator must reuse its port marks across calls: after warmup,
// validating a fresh decision allocates nothing.
func TestValidatorZeroAlloc(t *testing.T) {
	d := newPooledDriver(32, 600)
	s := NewFastBASRPT(2500)
	var served []*flow.Flow
	var v Validator
	for i := 0; i < 50; i++ {
		d.step(served)
		served = s.Schedule(d.tab)
		if err := v.ValidateDecision(d.tab.N(), served); err != nil {
			t.Fatalf("warmup decision invalid: %v", err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := v.ValidateDecision(d.tab.N(), served); err != nil {
			t.Fatalf("decision invalid: %v", err)
		}
		if !v.IsMaximalDecision(d.tab, served) {
			t.Fatal("greedy decision not maximal")
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state validation allocates %.2f times per call, want 0", avg)
	}
}
