package workload

import (
	"errors"
	"fmt"

	"basrpt/internal/eventq"
	"basrpt/internal/flow"
	"basrpt/internal/stats"
)

// ErrBadState reports a generator checkpoint that fails validation.
var ErrBadState = errors.New("workload: invalid generator state")

// EventState is one pending calendar entry of a generator, tagged by kind:
// "stream" is a Mixed per-(host, class) arrival process, "job" is an
// Incast partition/aggregate job tick, "arrival" is a fully-materialized
// incast response waiting its turn.
type EventState struct {
	Time    float64  `json:"time"`
	Seq     uint64   `json:"seq"`
	Kind    string   `json:"kind"`
	Host    int      `json:"host,omitempty"`
	Class   int      `json:"class,omitempty"`
	Arrival *Arrival `json:"arrival,omitempty"`
}

// GeneratorState is the serializable position of a generator: which
// concrete type it is, its RNG stream, and its pending event calendar.
// Background nests the state of an Incast's embedded Mixed generator.
type GeneratorState struct {
	Kind           string          `json:"kind"` // "slice", "mixed", or "incast"
	Pos            int             `json:"pos,omitempty"`
	RNG            stats.RNGState  `json:"rng,omitempty"`
	QueueSeq       uint64          `json:"queueSeq,omitempty"`
	QueueHighWater int             `json:"queueHighWater,omitempty"`
	Events         []EventState    `json:"events,omitempty"`
	PendingBg      *Arrival        `json:"pendingBg,omitempty"`
	HasPendingBg   bool            `json:"hasPendingBg,omitempty"`
	Background     *GeneratorState `json:"background,omitempty"`
}

// Checkpointable is implemented by generators that can snapshot and
// restore their position mid-stream. All built-in generators qualify;
// user-supplied Generator implementations opt in by implementing it.
type Checkpointable interface {
	Generator
	// CheckpointState captures the generator's position.
	CheckpointState() (*GeneratorState, error)
	// RestoreCheckpoint rewinds this generator (which must be freshly
	// constructed from the identical configuration) to a captured position.
	RestoreCheckpoint(*GeneratorState) error
}

var (
	_ Checkpointable = (*SliceGenerator)(nil)
	_ Checkpointable = (*Mixed)(nil)
	_ Checkpointable = (*Incast)(nil)
)

// CheckpointState captures the replay cursor.
func (g *SliceGenerator) CheckpointState() (*GeneratorState, error) {
	return &GeneratorState{Kind: "slice", Pos: g.pos}, nil
}

// RestoreCheckpoint rewinds the replay cursor.
func (g *SliceGenerator) RestoreCheckpoint(st *GeneratorState) error {
	if st == nil || st.Kind != "slice" {
		return fmt.Errorf("%w: expected slice generator state", ErrBadState)
	}
	if st.Pos < 0 || st.Pos > len(g.arrivals) {
		return fmt.Errorf("%w: slice position %d outside [0, %d]", ErrBadState, st.Pos, len(g.arrivals))
	}
	g.pos = st.Pos
	return nil
}

// CheckpointState captures the RNG position and the pending per-stream
// calendar entries in heap-array order.
func (m *Mixed) CheckpointState() (*GeneratorState, error) {
	st := &GeneratorState{
		Kind:           "mixed",
		RNG:            m.rng.State(),
		QueueSeq:       m.queue.Seq(),
		QueueHighWater: m.queue.HighWater(),
	}
	m.queue.Entries(func(t float64, seq uint64, se streamEvent) {
		st.Events = append(st.Events, EventState{
			Time: t, Seq: seq, Kind: "stream", Host: se.host, Class: int(se.class),
		})
	})
	return st, nil
}

// RestoreCheckpoint rewinds a freshly-built Mixed generator.
func (m *Mixed) RestoreCheckpoint(st *GeneratorState) error {
	if st == nil || st.Kind != "mixed" {
		return fmt.Errorf("%w: expected mixed generator state", ErrBadState)
	}
	if err := m.rng.RestoreState(st.RNG); err != nil {
		return fmt.Errorf("%w: %v", ErrBadState, err)
	}
	entries := make([]eventq.EntryState[streamEvent], len(st.Events))
	for i, es := range st.Events {
		if es.Kind != "stream" {
			return fmt.Errorf("%w: mixed calendar cannot hold %q events", ErrBadState, es.Kind)
		}
		class := flow.Class(es.Class)
		if class != flow.ClassQuery && class != flow.ClassBackground {
			return fmt.Errorf("%w: stream event class %d", ErrBadState, es.Class)
		}
		if es.Host < m.srcLo || es.Host >= m.srcHi {
			return fmt.Errorf("%w: stream event host %d outside source range [%d, %d)",
				ErrBadState, es.Host, m.srcLo, m.srcHi)
		}
		entries[i] = eventq.EntryState[streamEvent]{Time: es.Time, Seq: es.Seq, Event: streamEvent{host: es.Host, class: class}}
	}
	if err := m.queue.RestoreState(st.QueueSeq, st.QueueHighWater, entries); err != nil {
		return fmt.Errorf("%w: %v", ErrBadState, err)
	}
	return nil
}

// CheckpointState captures the incast job calendar (including expanded
// responses still pending), the RNG position, the buffered background
// arrival, and the embedded background generator's state.
func (g *Incast) CheckpointState() (*GeneratorState, error) {
	st := &GeneratorState{
		Kind:           "incast",
		RNG:            g.rng.State(),
		QueueSeq:       g.queue.Seq(),
		QueueHighWater: g.queue.HighWater(),
		HasPendingBg:   g.hasPendingBg,
	}
	if g.hasPendingBg {
		a := g.pendingBg
		st.PendingBg = &a
	}
	g.queue.Entries(func(t float64, seq uint64, ev incastEvent) {
		if ev.job {
			st.Events = append(st.Events, EventState{Time: t, Seq: seq, Kind: "job"})
			return
		}
		a := ev.a
		st.Events = append(st.Events, EventState{Time: t, Seq: seq, Kind: "arrival", Arrival: &a})
	})
	if g.bg != nil {
		bgState, err := g.bg.CheckpointState()
		if err != nil {
			return nil, err
		}
		st.Background = bgState
	}
	return st, nil
}

// RestoreCheckpoint rewinds a freshly-built Incast generator. The
// snapshot must match the configuration's shape: a background generator
// state is required exactly when the configuration enables background
// traffic.
func (g *Incast) RestoreCheckpoint(st *GeneratorState) error {
	if st == nil || st.Kind != "incast" {
		return fmt.Errorf("%w: expected incast generator state", ErrBadState)
	}
	if (g.bg != nil) != (st.Background != nil) {
		return fmt.Errorf("%w: background generator presence mismatch", ErrBadState)
	}
	if st.HasPendingBg && st.PendingBg == nil {
		return fmt.Errorf("%w: pending background arrival missing", ErrBadState)
	}
	if err := g.rng.RestoreState(st.RNG); err != nil {
		return fmt.Errorf("%w: %v", ErrBadState, err)
	}
	entries := make([]eventq.EntryState[incastEvent], len(st.Events))
	for i, es := range st.Events {
		switch es.Kind {
		case "job":
			entries[i] = eventq.EntryState[incastEvent]{Time: es.Time, Seq: es.Seq, Event: incastEvent{job: true}}
		case "arrival":
			if es.Arrival == nil {
				return fmt.Errorf("%w: arrival event without payload", ErrBadState)
			}
			entries[i] = eventq.EntryState[incastEvent]{Time: es.Time, Seq: es.Seq, Event: incastEvent{a: *es.Arrival}}
		default:
			return fmt.Errorf("%w: incast calendar cannot hold %q events", ErrBadState, es.Kind)
		}
	}
	if err := g.queue.RestoreState(st.QueueSeq, st.QueueHighWater, entries); err != nil {
		return fmt.Errorf("%w: %v", ErrBadState, err)
	}
	if g.bg != nil {
		if err := g.bg.RestoreCheckpoint(st.Background); err != nil {
			return err
		}
	}
	g.hasPendingBg = st.HasPendingBg
	if st.HasPendingBg {
		g.pendingBg = *st.PendingBg
	} else {
		g.pendingBg = Arrival{}
	}
	return nil
}
