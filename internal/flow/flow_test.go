package flow

import (
	"math"
	"testing"
	"testing/quick"

	"basrpt/internal/stats"
)

func TestClassString(t *testing.T) {
	if ClassQuery.String() != "query" || ClassBackground.String() != "background" ||
		ClassOther.String() != "other" {
		t.Fatal("class names wrong")
	}
	if Class(0).String() != "class(0)" {
		t.Fatal("unknown class formatting wrong")
	}
}

func TestNewFlow(t *testing.T) {
	f := NewFlow(7, 1, 2, ClassQuery, 20000, 1.5)
	if f.Remaining != 20000 || f.Size != 20000 {
		t.Fatalf("remaining/size = %g/%g, want 20000/20000", f.Remaining, f.Size)
	}
	if f.Attached() {
		t.Fatal("fresh flow should be detached")
	}
}

func TestVOQTopIsMinRemaining(t *testing.T) {
	var q VOQ
	sizes := []float64{50, 10, 30, 10, 90, 5}
	for i, s := range sizes {
		q.push(NewFlow(ID(i), 0, 0, ClassOther, s, 0))
	}
	if got := q.Top().Remaining; got != 5 {
		t.Fatalf("Top remaining = %g, want 5", got)
	}
	if got := q.Backlog(); got != 195 {
		t.Fatalf("Backlog = %g, want 195", got)
	}
	// Pop repeatedly by removing the top: must come out sorted.
	prev := -1.0
	for q.Len() > 0 {
		top := q.Top()
		if top.Remaining < prev {
			t.Fatalf("heap order violated: %g after %g", top.Remaining, prev)
		}
		prev = top.Remaining
		q.remove(top)
	}
	if q.Backlog() != 0 {
		t.Fatalf("backlog after drain = %g, want 0", q.Backlog())
	}
}

func TestVOQTieBreakByID(t *testing.T) {
	var q VOQ
	f2 := NewFlow(2, 0, 0, ClassOther, 10, 0)
	f1 := NewFlow(1, 0, 0, ClassOther, 10, 0)
	q.push(f2)
	q.push(f1)
	if q.Top() != f1 {
		t.Fatal("tie must break to lower ID")
	}
}

func TestTableAddRemove(t *testing.T) {
	tab := NewTable(4)
	f := NewFlow(1, 2, 3, ClassQuery, 100, 0)
	tab.Add(f)
	if tab.NumFlows() != 1 || tab.NumNonEmpty() != 1 {
		t.Fatalf("counts after add: flows=%d nonEmpty=%d", tab.NumFlows(), tab.NumNonEmpty())
	}
	if got := tab.IngressBacklog(2); got != 100 {
		t.Fatalf("ingress backlog = %g, want 100", got)
	}
	if got := tab.EgressBacklog(3); got != 100 {
		t.Fatalf("egress backlog = %g, want 100", got)
	}
	if got := tab.VOQ(2, 3).Top(); got != f {
		t.Fatal("VOQ top is not the added flow")
	}
	tab.Remove(f)
	if tab.NumFlows() != 0 || tab.NumNonEmpty() != 0 || tab.TotalBacklog() != 0 {
		t.Fatal("table not empty after remove")
	}
	if f.Attached() {
		t.Fatal("flow still attached after remove")
	}
}

func TestTableDrain(t *testing.T) {
	tab := NewTable(2)
	f := NewFlow(1, 0, 1, ClassOther, 100, 0)
	tab.Add(f)
	if got := tab.Drain(f, 30); got != 30 {
		t.Fatalf("Drain = %g, want 30", got)
	}
	if f.Remaining != 70 {
		t.Fatalf("Remaining = %g, want 70", f.Remaining)
	}
	if got := tab.IngressBacklog(0); got != 70 {
		t.Fatalf("ingress backlog = %g, want 70", got)
	}
	// Draining more than remaining clamps.
	if got := tab.Drain(f, 1000); got != 70 {
		t.Fatalf("over-drain = %g, want 70", got)
	}
	if f.Remaining != 0 {
		t.Fatalf("Remaining after over-drain = %g, want 0", f.Remaining)
	}
	// Draining zero or negative is a no-op.
	if got := tab.Drain(f, 0); got != 0 {
		t.Fatalf("zero drain = %g", got)
	}
	if got := tab.Drain(f, -5); got != 0 {
		t.Fatalf("negative drain = %g", got)
	}
}

func TestDrainReordersHeap(t *testing.T) {
	tab := NewTable(2)
	big := NewFlow(1, 0, 1, ClassOther, 100, 0)
	small := NewFlow(2, 0, 1, ClassOther, 50, 0)
	tab.Add(big)
	tab.Add(small)
	q := tab.VOQ(0, 1)
	if q.Top() != small {
		t.Fatal("top should be the 50-byte flow")
	}
	// Drain the big flow below the small one: top must flip.
	tab.Drain(big, 80)
	if q.Top() != big {
		t.Fatalf("top after drain = flow %d, want flow 1", q.Top().ID)
	}
}

func TestTablePanics(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("NewTable(0)", func() { NewTable(0) })
	tab := NewTable(2)
	f := NewFlow(1, 0, 1, ClassOther, 10, 0)
	assertPanics("Remove detached", func() { tab.Remove(f) })
	assertPanics("Drain detached", func() { tab.Drain(f, 1) })
	tab.Add(f)
	assertPanics("double Add", func() { tab.Add(f) })
	bad := NewFlow(2, 5, 0, ClassOther, 10, 0)
	assertPanics("out-of-range port", func() { tab.Add(bad) })
	assertPanics("VOQ out of range", func() { tab.VOQ(-1, 0) })
}

func TestNonEmptyTracking(t *testing.T) {
	tab := NewTable(3)
	flows := []*Flow{
		NewFlow(1, 0, 1, ClassOther, 10, 0),
		NewFlow(2, 0, 1, ClassOther, 20, 0),
		NewFlow(3, 1, 2, ClassOther, 30, 0),
		NewFlow(4, 2, 0, ClassOther, 40, 0),
	}
	for _, f := range flows {
		tab.Add(f)
	}
	if got := tab.NumNonEmpty(); got != 3 {
		t.Fatalf("NumNonEmpty = %d, want 3", got)
	}
	visited := 0
	tab.ForEachNonEmpty(func(*VOQ) { visited++ })
	if visited != 3 {
		t.Fatalf("ForEachNonEmpty visited %d VOQs, want 3", visited)
	}
	// Removing one of two flows in a VOQ keeps it non-empty.
	tab.Remove(flows[0])
	if got := tab.NumNonEmpty(); got != 3 {
		t.Fatalf("NumNonEmpty after partial remove = %d, want 3", got)
	}
	tab.Remove(flows[1])
	if got := tab.NumNonEmpty(); got != 2 {
		t.Fatalf("NumNonEmpty after full remove = %d, want 2", got)
	}
}

func TestMaxIngressBacklog(t *testing.T) {
	tab := NewTable(3)
	if port, b := tab.MaxIngressBacklog(); port != -1 || b != 0 {
		t.Fatalf("empty max = (%d, %g), want (-1, 0)", port, b)
	}
	tab.Add(NewFlow(1, 0, 1, ClassOther, 10, 0))
	tab.Add(NewFlow(2, 1, 2, ClassOther, 99, 0))
	port, b := tab.MaxIngressBacklog()
	if port != 1 || b != 99 {
		t.Fatalf("max = (%d, %g), want (1, 99)", port, b)
	}
}

// TestConservationProperty drives a random add/drain/remove workload and
// checks the bookkeeping identity: per-port and total backlogs always equal
// the sums over the live flows.
func TestConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		const n = 4
		tab := NewTable(n)
		var live []*Flow
		nextID := ID(1)
		for step := 0; step < 500; step++ {
			switch op := r.Intn(4); {
			case op <= 1 || len(live) == 0: // add
				fl := NewFlow(nextID, r.Intn(n), r.Intn(n), ClassOther, 1+r.Float64()*1000, 0)
				nextID++
				tab.Add(fl)
				live = append(live, fl)
			case op == 2: // drain
				fl := live[r.Intn(len(live))]
				tab.Drain(fl, r.Float64()*fl.Remaining*1.2)
			default: // remove
				i := r.Intn(len(live))
				tab.Remove(live[i])
				live = append(live[:i], live[i+1:]...)
			}
		}
		// Recompute ground truth from live flows.
		ingress := make([]float64, n)
		egress := make([]float64, n)
		var total float64
		for _, fl := range live {
			ingress[fl.Src] += fl.Remaining
			egress[fl.Dst] += fl.Remaining
			total += fl.Remaining
		}
		approx := func(a, b float64) bool { return math.Abs(a-b) < 1e-6*math.Max(1, math.Abs(b)) }
		for i := 0; i < n; i++ {
			if !approx(tab.IngressBacklog(i), ingress[i]) || !approx(tab.EgressBacklog(i), egress[i]) {
				return false
			}
		}
		if !approx(tab.TotalBacklog(), total) {
			return false
		}
		return tab.NumFlows() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVOQFlowsIsCopy(t *testing.T) {
	tab := NewTable(2)
	tab.Add(NewFlow(1, 0, 1, ClassOther, 10, 0))
	q := tab.VOQ(0, 1)
	flows := q.Flows()
	flows[0] = nil
	if q.Top() == nil {
		t.Fatal("Flows() exposed internal storage")
	}
}
