package eventq

import "testing"

// TestHandleInvalidAfterRecycle: a handle to a popped event must stay
// invalid even after its entry is recycled for a later Schedule, while the
// new event's handle is valid.
func TestHandleInvalidAfterRecycle(t *testing.T) {
	var q Queue
	h1 := q.Schedule(1, "a")
	if !h1.Valid() {
		t.Fatal("pending handle reports invalid")
	}
	if ev, _, ok := q.Pop(); !ok || ev != "a" {
		t.Fatalf("Pop = %v, %v", ev, ok)
	}
	if h1.Valid() {
		t.Fatal("handle to popped event reports valid")
	}

	// The recycled entry now backs an unrelated event.
	h2 := q.Schedule(2, "b")
	if h1.Valid() {
		t.Fatal("stale handle turned valid after its entry was recycled")
	}
	if !h2.Valid() || q.Len() != 1 {
		t.Fatalf("recycled entry's new event: valid %v, Len = %d", h2.Valid(), q.Len())
	}
}

// TestClearRecyclesEntries: Clear invalidates every outstanding handle and
// returns the entries to the free list for later Schedules.
func TestClearRecyclesEntries(t *testing.T) {
	var q Queue
	h := q.Schedule(1, "a")
	q.Schedule(2, "b")
	q.Clear()
	if q.Len() != 0 {
		t.Fatalf("Len = %d after Clear, want 0", q.Len())
	}
	if h.Valid() {
		t.Fatal("handle survived Clear")
	}
	if len(q.free) != 2 {
		t.Fatalf("free list holds %d entries after Clear, want 2", len(q.free))
	}
}

// TestReserveSteadyStateZeroAlloc: after Reserve, a schedule/pop loop that
// never exceeds the reserved population allocates nothing — the calendar
// property the workload generator's pre-boxed stream events rely on.
func TestReserveSteadyStateZeroAlloc(t *testing.T) {
	var q Queue
	q.Reserve(4)
	// Pre-boxed events so the measurement loop does no interface boxing of
	// its own.
	evs := [4]Event{"e0", "e1", "e2", "e3"}
	time := 0.0
	avg := testing.AllocsPerRun(200, func() {
		for i, ev := range evs {
			time++
			q.Schedule(time+float64(i), ev)
		}
		for range evs {
			if _, _, ok := q.Pop(); !ok {
				t.Fatal("queue drained early")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state schedule/pop loop allocates %.2f times per cycle, want 0", avg)
	}
}
