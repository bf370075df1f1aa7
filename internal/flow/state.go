package flow

import "fmt"

// FlowState is one flow's serializable fields. Heap position is implied by
// the flow's index in its VOQState.Flows slice, so restoring a snapshot
// reproduces the exact heap-array layout (not merely an equivalent heap):
// schedulers and validators iterate heaps in array order, and bit-for-bit
// resume requires that order to survive the round trip.
type FlowState struct {
	ID        int64   `json:"id"`
	Src       int     `json:"src"`
	Dst       int     `json:"dst"`
	Class     int     `json:"class"`
	Size      float64 `json:"size"`
	Remaining float64 `json:"remaining"`
	Arrival   float64 `json:"arrival"`
}

// VOQState is one non-empty VOQ: its flows in heap-array order plus the
// accumulated backlog, stored verbatim. The backlog is NOT recomputed from
// the flows on restore — incremental float accounting drifts below the
// byte level over long runs, and resuming bit-for-bit means resuming the
// drift too.
type VOQState struct {
	Src     int         `json:"src"`
	Dst     int         `json:"dst"`
	Backlog float64     `json:"backlog"`
	Flows   []FlowState `json:"flows"`
}

// TableState is the full serializable state of a Table. VOQs appear in
// nonEmpty-list order (which restore reproduces — scheduler index rebuilds
// iterate that order), Dirty preserves the dirty-list order, and every
// float accumulator is verbatim. Dirty names each VOQ by its pair index
// src*N+dst, never by table slot: slots depend on the order VOQs were
// materialized and released, which a checkpoint does not record and a
// resumed table does not reproduce.
type TableState struct {
	N              int        `json:"n"`
	Epoch          uint64     `json:"epoch"`
	DirtyBasis     uint64     `json:"dirtyBasis"`
	VOQs           []VOQState `json:"voqs,omitempty"`
	Dirty          []int      `json:"dirty,omitempty"`
	IngressBacklog []float64  `json:"ingressBacklog"`
	EgressBacklog  []float64  `json:"egressBacklog"`
	IngressFlows   []int      `json:"ingressFlows"`
	EgressFlows    []int      `json:"egressFlows"`
	NumFlows       int        `json:"numFlows"`
}

// StateSnapshot captures the table for checkpointing.
func (t *Table) StateSnapshot() TableState {
	st := TableState{
		N:              t.n,
		Epoch:          t.epoch,
		DirtyBasis:     t.dirtyBasis,
		IngressBacklog: append([]float64(nil), t.ingressBacklog...),
		EgressBacklog:  append([]float64(nil), t.egressBacklog...),
		IngressFlows:   append([]int(nil), t.ingressFlows...),
		EgressFlows:    append([]int(nil), t.egressFlows...),
		NumFlows:       t.numFlows,
	}
	for _, s := range t.dirty {
		q := t.at(s)
		st.Dirty = append(st.Dirty, q.Src*t.n+q.Dst)
	}
	for _, s := range t.nonEmpty {
		q := t.at(s)
		vs := VOQState{Src: q.Src, Dst: q.Dst, Backlog: q.backlog, Flows: make([]FlowState, len(q.flows))}
		for k, f := range q.flows {
			vs.Flows[k] = FlowState{
				ID: int64(f.ID), Src: f.Src, Dst: f.Dst, Class: int(f.Class),
				Size: f.Size, Remaining: f.Remaining, Arrival: f.Arrival,
			}
		}
		st.VOQs = append(st.VOQs, vs)
	}
	return st
}

// RestoreTable rebuilds a table from a snapshot, validating the structural
// invariants a live table guarantees (heap order, port ranges, consistent
// counts). It returns the table plus an ID-to-flow map so callers can
// resolve serialized flow references (decision buffers, held matchings)
// back into pointers.
func RestoreTable(st TableState) (*Table, map[ID]*Flow, error) {
	if st.N <= 0 {
		return nil, nil, fmt.Errorf("flow: restore: invalid port count %d", st.N)
	}
	n := st.N
	if len(st.IngressBacklog) != n || len(st.EgressBacklog) != n ||
		len(st.IngressFlows) != n || len(st.EgressFlows) != n {
		return nil, nil, fmt.Errorf("flow: restore: port array lengths (%d,%d,%d,%d) do not match n=%d",
			len(st.IngressBacklog), len(st.EgressBacklog), len(st.IngressFlows), len(st.EgressFlows), n)
	}
	if st.DirtyBasis > st.Epoch {
		return nil, nil, fmt.Errorf("flow: restore: dirty basis %d ahead of epoch %d", st.DirtyBasis, st.Epoch)
	}
	t := NewTable(n)
	byID := make(map[ID]*Flow, st.NumFlows)
	total := 0
	for _, vs := range st.VOQs {
		if vs.Src < 0 || vs.Src >= n || vs.Dst < 0 || vs.Dst >= n {
			return nil, nil, fmt.Errorf("flow: restore: VOQ (%d,%d) out of range for n=%d", vs.Src, vs.Dst, n)
		}
		q := t.materialize(vs.Src, vs.Dst)
		if len(q.flows) > 0 {
			return nil, nil, fmt.Errorf("flow: restore: VOQ (%d,%d) appears twice", vs.Src, vs.Dst)
		}
		if len(vs.Flows) == 0 {
			return nil, nil, fmt.Errorf("flow: restore: VOQ (%d,%d) serialized with no flows", vs.Src, vs.Dst)
		}
		for k, fs := range vs.Flows {
			f := &Flow{
				ID: ID(fs.ID), Src: fs.Src, Dst: fs.Dst, Class: Class(fs.Class),
				Size: fs.Size, Remaining: fs.Remaining, Arrival: fs.Arrival,
				slot: q.slot, heapIndex: int32(k),
			}
			if f.Src != vs.Src || f.Dst != vs.Dst {
				return nil, nil, fmt.Errorf("flow: restore: VOQ (%d,%d) holds misfiled flow %d addressed %d->%d",
					vs.Src, vs.Dst, f.ID, f.Src, f.Dst)
			}
			if f.Remaining < 0 || f.Remaining > f.Size {
				return nil, nil, fmt.Errorf("flow: restore: flow %d remaining %g outside [0, %g]", f.ID, f.Remaining, f.Size)
			}
			if _, dup := byID[f.ID]; dup {
				return nil, nil, fmt.Errorf("flow: restore: duplicate flow id %d", f.ID)
			}
			byID[f.ID] = f
			q.flows = append(q.flows, f)
			if k > 0 {
				parent := (k - 1) / 2
				if q.less(k, parent) {
					return nil, nil, fmt.Errorf("flow: restore: VOQ (%d,%d) heap order violated at index %d", vs.Src, vs.Dst, k)
				}
			}
		}
		q.backlog = vs.Backlog
		q.nonEmptyPos = int32(len(t.nonEmpty))
		t.nonEmpty = append(t.nonEmpty, q.slot)
		total += len(vs.Flows)
	}
	if total != st.NumFlows {
		return nil, nil, fmt.Errorf("flow: restore: %d flows serialized, header claims %d", total, st.NumFlows)
	}
	for _, i := range st.Dirty {
		if i < 0 || i >= n*n {
			return nil, nil, fmt.Errorf("flow: restore: dirty VOQ index %d out of range", i)
		}
		q := t.materialize(i/n, i%n)
		if q.dirtyPos >= 0 {
			return nil, nil, fmt.Errorf("flow: restore: dirty VOQ index %d appears twice", i)
		}
		q.dirtyPos = int32(len(t.dirty))
		t.dirty = append(t.dirty, q.slot)
	}
	t.epoch = st.Epoch
	t.dirtyBasis = st.DirtyBasis
	copy(t.ingressBacklog, st.IngressBacklog)
	copy(t.egressBacklog, st.EgressBacklog)
	copy(t.ingressFlows, st.IngressFlows)
	copy(t.egressFlows, st.EgressFlows)
	t.numFlows = st.NumFlows
	return t, byID, nil
}

// RestoreState refills the free list with n fresh (zeroed, detached)
// flows and restores the reuse counter. Pooled flows carry no observable
// state — Get fully reinitializes every field — so only the population
// and the hit count need to survive a checkpoint for the resumed run's
// allocation behavior (and pool counters) to match the uninterrupted one.
func (l *FreeList) RestoreState(n int, reuses int64) {
	l.free = make([]*Flow, n)
	for i := range l.free {
		l.free[i] = &Flow{heapIndex: -1}
	}
	l.reuses = reuses
}
