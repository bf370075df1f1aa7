package workload

import (
	"errors"
	"reflect"
	"testing"

	"basrpt/internal/flow"
	"basrpt/internal/topology"
)

func TestNewIncastValidation(t *testing.T) {
	topo := topology.MustNew(topology.Scaled(2, 4))
	good := IncastConfig{Topology: topo, JobsPerSecond: 100, Fanout: 4, Duration: 1, Seed: 1}
	if _, err := NewIncast(good); err != nil {
		t.Fatal(err)
	}
	cases := []func(IncastConfig) IncastConfig{
		func(c IncastConfig) IncastConfig { c.Topology = nil; return c },
		func(c IncastConfig) IncastConfig { c.JobsPerSecond = 0; return c },
		func(c IncastConfig) IncastConfig { c.Fanout = 0; return c },
		func(c IncastConfig) IncastConfig { c.Fanout = topo.NumHosts(); return c },
		func(c IncastConfig) IncastConfig { c.Duration = 0; return c },
		func(c IncastConfig) IncastConfig { c.Seed = 0; return c }, // 0 used to alias to 1
	}
	for i, mutate := range cases {
		if _, err := NewIncast(mutate(good)); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("bad config %d accepted or wrong error: %v", i, err)
		}
	}
}

func TestIncastStructure(t *testing.T) {
	topo := topology.MustNew(topology.Scaled(2, 4))
	g, err := NewIncast(IncastConfig{
		Topology:      topo,
		JobsPerSecond: 200,
		Fanout:        5,
		Duration:      2,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	// Perfectly synchronized incast: responses arrive in bursts of Fanout
	// sharing a destination and timestamp.
	burst := map[float64][]Arrival{}
	total := 0
	for {
		a, ok := g.Next()
		if !ok {
			break
		}
		total++
		if a.Time < prev {
			t.Fatalf("out of order: %g after %g", a.Time, prev)
		}
		prev = a.Time
		if a.Class != flow.ClassQuery || a.Size != QueryBytes {
			t.Fatalf("unexpected arrival %+v", a)
		}
		if a.Src == a.Dst {
			t.Fatal("self response")
		}
		burst[a.Time] = append(burst[a.Time], a)
	}
	if total == 0 {
		t.Fatal("no arrivals")
	}
	for at, group := range burst {
		if len(group) != 5 {
			t.Fatalf("burst at %g has %d responses, want 5", at, len(group))
		}
		dst := group[0].Dst
		seenSrc := map[int]bool{}
		for _, a := range group {
			if a.Dst != dst {
				t.Fatalf("burst at %g mixes destinations", at)
			}
			if seenSrc[a.Src] {
				t.Fatalf("burst at %g repeats backend %d", at, a.Src)
			}
			seenSrc[a.Src] = true
		}
	}
}

func TestIncastWithBackground(t *testing.T) {
	topo := topology.MustNew(topology.Scaled(2, 4))
	g, err := NewIncast(IncastConfig{
		Topology:       topo,
		JobsPerSecond:  100,
		Fanout:         3,
		BackgroundLoad: 0.3,
		Duration:       1,
		Seed:           9,
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
			t.Fatalf("out of order: %g after %g", a.Time, prev)
		}
		prev = a.Time
		switch a.Class {
		case flow.ClassQuery:
			queries++
		case flow.ClassBackground:
			bgs++
			if !topo.SameRack(a.Src, a.Dst) {
				t.Fatal("background flow crossed racks")
			}
		}
	}
	if queries == 0 || bgs == 0 {
		t.Fatalf("classes missing: %d queries, %d background", queries, bgs)
	}
}

func TestIncastDeterministic(t *testing.T) {
	topo := topology.MustNew(topology.Scaled(2, 4))
	mk := func() []Arrival {
		g, err := NewIncast(IncastConfig{
			Topology: topo, JobsPerSecond: 150, Fanout: 4, Duration: 0.5, Seed: 11,
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
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs", i)
		}
	}
}

// TestIncastCheckpointRoundTrip: an incast generator with background
// traffic, checkpointed while its calendar holds a job tick
// and expanded responses still waiting their turn, restores into a fresh
// generator that re-snapshots to the same state and then yields exactly
// the remaining arrivals.
func TestIncastCheckpointRoundTrip(t *testing.T) {
	cfg := IncastConfig{
		Topology:       topology.MustNew(topology.Scaled(2, 4)),
		JobsPerSecond:  200,
		Fanout:         5,
		BackgroundLoad: 0.3,
		Duration:       0.5,
		Seed:           13,
	}
	g, err := NewIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Advance until the calendar holds the next job and pending responses.
	for g.queue.Len() < 2 {
		if _, ok := g.Next(); !ok {
			t.Fatal("stream exhausted before a job left responses pending")
		}
	}
	st, err := g.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, es := range st.Events {
		kinds[es.Kind]++
	}
	if kinds["job"] != 1 || kinds["arrival"] == 0 || st.Background == nil {
		t.Fatalf("snapshot holds %v events, background %v; want one job, pending arrivals and a background state",
			kinds, st.Background != nil)
	}

	fresh, err := NewIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreCheckpoint(st); err != nil {
		t.Fatal(err)
	}
	again, err := fresh.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, st) {
		t.Fatalf("restored generator snapshots differently:\n got %+v\nwant %+v", again, st)
	}
	n := 0
	for {
		want, ok := g.Next()
		got, gotOK := fresh.Next()
		if ok != gotOK || got != want {
			t.Fatalf("resumed arrival %d = (%+v, %v), want (%+v, %v)", n, got, gotOK, want, ok)
		}
		if !ok {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("no arrivals after the checkpoint")
	}
}
