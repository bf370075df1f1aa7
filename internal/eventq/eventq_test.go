package eventq

import (
	"sort"
	"testing"
	"testing/quick"

	"basrpt/internal/stats"
)

func TestPopOrder(t *testing.T) {
	var q Queue[string]
	q.Schedule(3, "c")
	q.Schedule(1, "a")
	q.Schedule(2, "b")
	want := []string{"a", "b", "c"}
	times := []float64{1, 2, 3}
	for i, w := range want {
		ev, tm, ok := q.Pop()
		if !ok {
			t.Fatalf("Pop %d: queue empty", i)
		}
		if ev != w || tm != times[i] {
			t.Fatalf("Pop %d = (%v, %g), want (%q, %g)", i, ev, tm, w, times[i])
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Schedule(5, i)
	}
	for i := 0; i < 100; i++ {
		ev, _, ok := q.Pop()
		if !ok || ev != i {
			t.Fatalf("tie-break violated: pop %d got %v", i, ev)
		}
	}
}

func TestPeekTime(t *testing.T) {
	var q Queue[struct{}]
	if _, ok := q.PeekTime(); ok {
		t.Fatal("PeekTime on empty queue reported ok")
	}
	q.Schedule(7, struct{}{})
	q.Schedule(4, struct{}{})
	if tm, ok := q.PeekTime(); !ok || tm != 4 {
		t.Fatalf("PeekTime = (%g, %v), want (4, true)", tm, ok)
	}
	if q.Len() != 2 {
		t.Fatalf("PeekTime consumed an event, Len = %d", q.Len())
	}
}

func TestHeapPropertyRandomized(t *testing.T) {
	f := func(seed uint64, opsRaw []uint16) bool {
		r := stats.NewRNG(seed)
		var q Queue[struct{}]
		prev := -1.0
		for range opsRaw {
			switch r.Intn(3) {
			case 0, 1:
				// Never schedule into the past: interleaved pops must stay
				// non-decreasing too.
				q.Schedule(prev+1+r.Float64()*1000, struct{}{})
			case 2:
				if _, tm, ok := q.Pop(); ok {
					if tm < prev {
						return false
					}
					prev = tm
				}
			}
		}
		// Drain: times must come out sorted.
		var popped []float64
		for {
			_, tm, ok := q.Pop()
			if !ok {
				break
			}
			popped = append(popped, tm)
		}
		return sort.Float64sAreSorted(popped)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestReserveSteadyStateZeroAlloc: after Reserve, a schedule/pop loop that
// never exceeds the reserved population allocates nothing.
func TestReserveSteadyStateZeroAlloc(t *testing.T) {
	var q Queue[int]
	q.Reserve(4)
	time := 0.0
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 4; i++ {
			time++
			q.Schedule(time+float64(i), i)
		}
		for i := 0; i < 4; i++ {
			if _, _, ok := q.Pop(); !ok {
				t.Fatal("queue drained early")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state schedule/pop loop allocates %.2f times per cycle, want 0", avg)
	}
}

// TestRestoreStateRoundTrip: a calendar rebuilt from its Entries walk pops
// the same events in the same order, same-time ties included, and a
// snapshot that breaks the heap order or the sequence numbers is refused.
func TestRestoreStateRoundTrip(t *testing.T) {
	var q Queue[int]
	for i, tm := range []float64{5, 3, 5, 1, 3, 8, 5} {
		q.Schedule(tm, i)
	}
	q.Pop()
	var entries []EntryState[int]
	q.Entries(func(tm float64, seq uint64, ev int) {
		entries = append(entries, EntryState[int]{Time: tm, Seq: seq, Event: ev})
	})
	var r Queue[int]
	if err := r.RestoreState(q.Seq(), q.HighWater(), entries); err != nil {
		t.Fatal(err)
	}
	if r.Seq() != q.Seq() || r.HighWater() != q.HighWater() || r.Len() != q.Len() {
		t.Fatalf("restored (seq %d, high water %d, len %d), want (%d, %d, %d)",
			r.Seq(), r.HighWater(), r.Len(), q.Seq(), q.HighWater(), q.Len())
	}
	for q.Len() > 0 {
		want, wantT, _ := q.Pop()
		got, gotT, _ := r.Pop()
		if got != want || gotT != wantT {
			t.Fatalf("restored pop = (%d, %g), want (%d, %g)", got, gotT, want, wantT)
		}
	}

	swapped := append([]EntryState[int](nil), entries...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	dup := append([]EntryState[int](nil), entries...)
	dup[1].Seq = dup[0].Seq
	for name, bad := range map[string][]EntryState[int]{"heap order": swapped, "duplicate seq": dup} {
		if err := r.RestoreState(q.Seq(), 0, bad); err == nil {
			t.Fatalf("%s: corrupt snapshot accepted", name)
		}
	}
	if err := r.RestoreState(entries[0].Seq-1, 0, entries[:1]); err == nil {
		t.Fatal("entry seq beyond the counter accepted")
	}
}

func BenchmarkScheduleAndPop(b *testing.B) {
	r := stats.NewRNG(1)
	times := make([]float64, 1024)
	for i := range times {
		times[i] = r.Float64()
	}
	b.ResetTimer()
	var q Queue[int]
	for i := 0; i < b.N; i++ {
		q.Schedule(times[i%1024], i)
		if q.Len() > 512 {
			q.Pop()
		}
	}
}
