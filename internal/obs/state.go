package obs

import (
	"fmt"
	"math"
)

// bucketIndexOf inverts Bucket.Le (math.Ldexp(1, i)) back to the bucket
// index, rejecting edges that are not exact in-range powers of two.
func bucketIndexOf(le float64) (int, error) {
	frac, exp := math.Frexp(le) // le = frac * 2^exp
	if frac != 0.5 || exp < 1 || exp > histBuckets {
		return 0, fmt.Errorf("obs: restore: bucket edge %g is not a valid power of two", le)
	}
	return exp - 1, nil
}

// RestoreState overwrites the registry's instruments from a snapshot,
// creating any that do not yet exist. Existing instrument pointers stay
// valid — callers that resolved a counter before the restore observe the
// restored value afterwards — which is what lets a live simulator restore
// its registry in place.
func (r *Registry) RestoreState(st Snapshot) error {
	if r == nil {
		return fmt.Errorf("obs: restore into nil registry")
	}
	for _, cs := range st.Counters {
		r.Counter(cs.Name).v = cs.Value
	}
	for _, gs := range st.Gauges {
		g := r.Gauge(gs.Name)
		g.v, g.max, g.set = gs.Value, gs.Max, gs.Set
	}
	for _, hs := range st.Histograms {
		h := r.Histogram(hs.Name)
		h.counts = [histBuckets]int64{}
		var inBuckets int64
		prev := -1
		for _, b := range hs.Buckets {
			i, err := bucketIndexOf(b.Le)
			if err != nil {
				return fmt.Errorf("%w (histogram %q)", err, hs.Name)
			}
			if i <= prev {
				return fmt.Errorf("obs: restore: histogram %q buckets out of order", hs.Name)
			}
			if b.Count <= 0 {
				return fmt.Errorf("obs: restore: histogram %q bucket %g count %d", hs.Name, b.Le, b.Count)
			}
			prev = i
			h.counts[i] = b.Count
			inBuckets += b.Count
		}
		if inBuckets != hs.Count {
			return fmt.Errorf("obs: restore: histogram %q buckets hold %d observations, header claims %d",
				hs.Name, inBuckets, hs.Count)
		}
		h.count = hs.Count
		h.sum = hs.Sum
	}
	return nil
}

// TracerState is the event tracer's serializable position: the sequence
// counter plus the retained flight-recorder tail in chronological order.
type TracerState struct {
	Seq    uint64  `json:"seq"`
	Events []Event `json:"events,omitempty"`
}

// StateSnapshot captures the tracer (nil for a disabled handle). The
// registry is snapshotted separately via Registry().Snapshot.
func (o *Obs) StateSnapshot() *TracerState {
	if o == nil {
		return nil
	}
	return &TracerState{Seq: o.seq, Events: o.LastEvents(0)}
}

// RestoreState rewinds the tracer: the sequence counter resumes at
// st.Seq and the ring refills with the snapshotted tail (a checkpoint
// file is outside input, so a tail longer than RingCapacity keeps its
// most recent events, exactly as the ring itself would have). The sink
// is untouched — resume wiring decides where continued events stream.
func (o *Obs) RestoreState(st *TracerState) error {
	if o == nil {
		return fmt.Errorf("obs: restore into nil tracer")
	}
	if st == nil {
		return fmt.Errorf("obs: restore from nil tracer state")
	}
	var last uint64
	for i, ev := range st.Events {
		if ev.Seq == 0 || ev.Seq > st.Seq {
			return fmt.Errorf("obs: restore: event %d seq %d outside (0, %d]", i, ev.Seq, st.Seq)
		}
		if ev.Seq <= last {
			return fmt.Errorf("obs: restore: event seqs not strictly increasing at index %d", i)
		}
		last = ev.Seq
	}
	evs := st.Events
	if len(evs) > RingCapacity {
		evs = evs[len(evs)-RingCapacity:]
	}
	o.seq = st.Seq
	o.filled = copy(o.ring[:], evs)
	o.next = o.filled % RingCapacity
	return nil
}
