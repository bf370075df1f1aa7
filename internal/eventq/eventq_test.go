package eventq

import (
	"sort"
	"testing"
	"testing/quick"

	"basrpt/internal/stats"
)

func TestPopOrder(t *testing.T) {
	var q Queue
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
		if ev.(string) != w || tm != times[i] {
			t.Fatalf("Pop %d = (%v, %g), want (%q, %g)", i, ev, tm, w, times[i])
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue
	for i := 0; i < 100; i++ {
		q.Schedule(5, i)
	}
	for i := 0; i < 100; i++ {
		ev, _, ok := q.Pop()
		if !ok || ev.(int) != i {
			t.Fatalf("tie-break violated: pop %d got %v", i, ev)
		}
	}
}

func TestPeekTime(t *testing.T) {
	var q Queue
	if _, ok := q.PeekTime(); ok {
		t.Fatal("PeekTime on empty queue reported ok")
	}
	q.Schedule(7, nil)
	q.Schedule(4, nil)
	if tm, ok := q.PeekTime(); !ok || tm != 4 {
		t.Fatalf("PeekTime = (%g, %v), want (4, true)", tm, ok)
	}
	if q.Len() != 2 {
		t.Fatalf("PeekTime consumed an event, Len = %d", q.Len())
	}
}

func TestClear(t *testing.T) {
	var q Queue
	h := q.Schedule(1, nil)
	q.Schedule(2, nil)
	q.Clear()
	if q.Len() != 0 {
		t.Fatalf("Len after Clear = %d", q.Len())
	}
	if h.Valid() {
		t.Fatal("handle valid after Clear")
	}
}

func TestHeapPropertyRandomized(t *testing.T) {
	f := func(seed uint64, opsRaw []uint16) bool {
		r := stats.NewRNG(seed)
		var q Queue
		prev := -1.0
		for range opsRaw {
			switch r.Intn(3) {
			case 0, 1:
				// Never schedule into the past: interleaved pops must stay
				// non-decreasing too.
				q.Schedule(prev+1+r.Float64()*1000, nil)
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

func TestInvalidHandleZeroValue(t *testing.T) {
	var h Handle
	if h.Valid() {
		t.Fatal("zero handle should be invalid")
	}
}

func BenchmarkScheduleAndPop(b *testing.B) {
	r := stats.NewRNG(1)
	times := make([]float64, 1024)
	for i := range times {
		times[i] = r.Float64()
	}
	b.ResetTimer()
	var q Queue
	for i := 0; i < b.N; i++ {
		q.Schedule(times[i%1024], nil)
		if q.Len() > 512 {
			q.Pop()
		}
	}
}
