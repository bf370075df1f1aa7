package flow

import (
	"math"
	"testing"
	"testing/quick"
)

// DirtyVOQs appends pointers to every VOQ mutated since the last
// ClearDirty to dst and returns it — the tests' view of the dirty set.
func (t *Table) DirtyVOQs(dst []*VOQ) []*VOQ {
	t.ForEachDirty(func(q *VOQ) { dst = append(dst, q) })
	return dst
}

// voqSnapshot is the observable state of one VOQ: the flow set with
// remaining sizes, plus the cached backlog.
type voqSnapshot struct {
	flows   map[ID]float64
	backlog float64
}

// snapshotTable captures every VOQ's observable state for diffing.
func snapshotTable(t *Table) []voqSnapshot {
	n := t.N()
	snaps := make([]voqSnapshot, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			q := t.VOQ(i, j)
			s := voqSnapshot{flows: map[ID]float64{}, backlog: q.Backlog()}
			for _, f := range q.Flows() {
				s.flows[f.ID] = f.Remaining
			}
			snaps[i*n+j] = s
		}
	}
	return snaps
}

// sameVOQ reports whether a VOQ's observable state matches a snapshot.
func sameVOQ(q *VOQ, s voqSnapshot) bool {
	if q.Len() != len(s.flows) || q.Backlog() != s.backlog {
		return false
	}
	for _, f := range q.Flows() {
		if rem, ok := s.flows[f.ID]; !ok || rem != f.Remaining {
			return false
		}
	}
	return true
}

// splitmix is a tiny deterministic generator for the property drivers
// (internal/stats would be an import cycle from here).
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

func (s *splitmix) float64() float64 { return float64(s.next()>>11) / (1 << 53) }

// TestDirtySetMatchesFromScratchDiff drives a random Add/Drain/Remove
// event sequence and asserts, at random checkpoints, that the dirty set
// together with the clean VOQs exactly reproduces a from-scratch table
// diff: every VOQ whose state changed since the last ClearDirty is dirty,
// and every clean VOQ is bit-for-bit unchanged.
func TestDirtySetMatchesFromScratchDiff(t *testing.T) {
	f := func(seed uint64) bool {
		rng := splitmix(seed)
		n := 2 + rng.intn(4)
		tab := NewTable(n)
		var live []*Flow
		nextID := ID(1)
		snap := snapshotTable(tab)
		basisEpoch := tab.Epoch()
		tab.ClearDirty()

		for step := 0; step < 300; step++ {
			switch op := rng.intn(10); {
			case op < 4 || len(live) == 0: // add
				f := NewFlow(nextID, rng.intn(n), rng.intn(n), ClassOther,
					1+math.Floor(rng.float64()*1000), float64(step))
				nextID++
				tab.Add(f)
				live = append(live, f)
			case op < 8: // drain (sometimes of a zero amount: must stay clean)
				f := live[rng.intn(len(live))]
				amount := rng.float64() * f.Remaining * 1.2
				if rng.intn(5) == 0 {
					amount = 0
				}
				tab.Drain(f, amount)
			default: // remove
				i := rng.intn(len(live))
				f := live[i]
				tab.Remove(f)
				live = append(live[:i], live[i+1:]...)
			}

			if rng.intn(20) != 0 {
				continue
			}
			// Checkpoint: diff against the snapshot taken at the last clear.
			dirty := map[int]bool{}
			tab.ForEachDirty(func(q *VOQ) { dirty[q.Src*n+q.Dst] = true })
			if got := tab.NumDirty(); got != len(dirty) {
				t.Logf("NumDirty = %d but ForEachDirty visited %d distinct VOQs", got, len(dirty))
				return false
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					// Changed ⇒ dirty; equivalently every clean VOQ must be
					// bit-for-bit unchanged since the last clear.
					if !dirty[i*n+j] && !sameVOQ(tab.VOQ(i, j), snap[i*n+j]) {
						t.Logf("clean VOQ (%d,%d) diverged from snapshot", i, j)
						return false
					}
				}
			}
			if tab.Epoch() < basisEpoch {
				t.Log("epoch went backwards")
				return false
			}
			// Re-baseline, as the owning consumer would.
			tab.ClearDirty()
			if tab.NumDirty() != 0 || tab.DirtyBasis() != tab.Epoch() {
				t.Logf("ClearDirty left %d dirty, basis %d vs epoch %d",
					tab.NumDirty(), tab.DirtyBasis(), tab.Epoch())
				return false
			}
			snap = snapshotTable(tab)
			basisEpoch = tab.Epoch()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEpochCountsMutations(t *testing.T) {
	tab := NewTable(2)
	if tab.Epoch() != 0 || tab.DirtyBasis() != 0 {
		t.Fatalf("fresh table epoch/basis = %d/%d, want 0/0", tab.Epoch(), tab.DirtyBasis())
	}
	f := NewFlow(1, 0, 1, ClassOther, 100, 0)
	tab.Add(f)
	if tab.Epoch() != 1 {
		t.Fatalf("epoch after Add = %d, want 1", tab.Epoch())
	}
	tab.Drain(f, 10)
	if tab.Epoch() != 2 {
		t.Fatalf("epoch after Drain = %d, want 2", tab.Epoch())
	}
	// Zero-amount drains (explicit or via an exhausted flow) do not count.
	tab.Drain(f, 0)
	tab.Drain(f, -5)
	if tab.Epoch() != 2 {
		t.Fatalf("epoch after no-op drains = %d, want 2", tab.Epoch())
	}
	tab.Remove(f)
	if tab.Epoch() != 3 {
		t.Fatalf("epoch after Remove = %d, want 3", tab.Epoch())
	}
	if tab.DirtyBasis() != 0 {
		t.Fatalf("basis moved without ClearDirty: %d", tab.DirtyBasis())
	}
	tab.ClearDirty()
	if tab.DirtyBasis() != 3 || tab.NumDirty() != 0 {
		t.Fatalf("after ClearDirty basis = %d dirty = %d, want 3/0", tab.DirtyBasis(), tab.NumDirty())
	}
}

func TestDirtyVOQsIncludesEmptiedVOQ(t *testing.T) {
	tab := NewTable(2)
	f := NewFlow(1, 1, 0, ClassOther, 50, 0)
	tab.Add(f)
	tab.ClearDirty()
	tab.Remove(f)
	got := tab.DirtyVOQs(nil)
	if len(got) != 1 || got[0].Src != 1 || got[0].Dst != 0 || got[0].Len() != 0 {
		t.Fatalf("DirtyVOQs after emptying remove = %v", got)
	}
}

func TestDirtySetDeduplicates(t *testing.T) {
	tab := NewTable(2)
	f := NewFlow(1, 0, 1, ClassOther, 100, 0)
	tab.Add(f)
	tab.Drain(f, 1)
	tab.Drain(f, 1)
	if tab.NumDirty() != 1 {
		t.Fatalf("NumDirty = %d after repeated mutation of one VOQ, want 1", tab.NumDirty())
	}
	if tab.Epoch() != 3 {
		t.Fatalf("epoch = %d, want 3", tab.Epoch())
	}
}
