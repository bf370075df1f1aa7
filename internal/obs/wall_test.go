package obs

import (
	"reflect"
	"testing"
)

func TestIsWallClock(t *testing.T) {
	cases := []struct {
		name string
		want bool
	}{
		{"wall.worker_wait_ns", true},
		{"wall.busy_ns", true},
		{"runtime.gc_cycles", true},
		{"runtime.heap_alloc_bytes", true},
		{"fabric.decisions", false},
		{"cell.msgs_sent", false},
		{"wall", false}, // bare prefix stem without the dot
		{"wallet.x", false},
		{"runtimes.x", false},
		{"", false},
	}
	for _, c := range cases {
		if got := IsWallClock(c.name); got != c.want {
			t.Errorf("IsWallClock(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

// notWall keeps the deterministic-plane instruments.
func notWall(name string) bool { return !IsWallClock(name) }

func TestSnapshotWithoutWall(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cell.decisions").Add(7)
	reg.Counter("wall.busy_ns").Add(12345)
	reg.Gauge("cell.eventq_high_water").Set(42)
	reg.Gauge("runtime.heap_alloc_bytes").Set(1 << 20)
	reg.Histogram("fabric.decision_size").Observe(3)
	reg.Histogram("wall.window_ns").Observe(999)

	got := reg.Snapshot().Filter(notWall)
	want := Snapshot{
		Counters:   []CounterSnapshot{{Name: "cell.decisions", Value: 7}},
		Gauges:     []GaugeSnapshot{{Name: "cell.eventq_high_water", Value: 42, Max: 42, Set: true}},
		Histograms: []HistogramSnapshot{{Name: "fabric.decision_size", Count: 1, Sum: 3, Buckets: []Bucket{{Le: 4, Count: 1}}}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Filter(notWall) mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestSnapshotWithoutWallDoesNotMutate(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a.x").Inc()
	reg.Counter("wall.y").Inc()
	snap := reg.Snapshot()
	_ = snap.Filter(notWall)
	if len(snap.Counters) != 2 {
		t.Fatalf("Filter mutated the receiver: %+v", snap)
	}
}
