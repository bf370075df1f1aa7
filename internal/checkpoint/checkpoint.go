// Package checkpoint defines the deterministic on-disk snapshot format
// for a fabric simulation: a schema-versioned, CRC-guarded envelope
// around a JSON payload capturing every piece of simulator state that
// cannot be re-derived from the run configuration — VOQ heaps in array
// order, event-calendar entries with their FIFO tie-break counters, RNG
// stream positions, float accumulators verbatim.
//
// The contract is bit-for-bit resumability: restoring a checkpoint into a
// freshly-constructed simulator with the identical configuration and then
// running to the horizon produces a Result and JSONL trace byte-identical
// to the uninterrupted run's. Everything derived (scheduler candidate
// indexes, throughput rates, port aggregates already stored) is rebuilt
// or carried verbatim accordingly; nothing is recomputed if recomputation
// could diverge below the printable-float level.
//
// Layout:
//
//	offset 0  : 8-byte magic "BASRPTCK"
//	offset 8  : uint32 LE schema version
//	offset 12 : uint32 LE payload length
//	offset 16 : JSON payload
//	trailer   : uint32 LE CRC-32 (IEEE) over all preceding bytes
//
// Mismatched magic or truncation is ErrFormat, an unknown schema is
// ErrSchema, a failed CRC is ErrCRC, and restoring into a simulator whose
// configuration digest differs from the checkpoint's is ErrConfigMismatch
// — four distinct, explicitly distinguishable failure modes.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"basrpt/internal/faults"
	"basrpt/internal/flow"
	"basrpt/internal/metrics"
	"basrpt/internal/obs"
	"basrpt/internal/sched"
	"basrpt/internal/stats"
	"basrpt/internal/workload"
)

// SchemaVersion is the current payload schema. Bump it whenever the
// State layout changes incompatibly; Decode rejects other versions.
const SchemaVersion = 1

var magic = [8]byte{'B', 'A', 'S', 'R', 'P', 'T', 'C', 'K'}

const (
	headerLen  = 16 // magic + schema + payload length
	trailerLen = 4  // CRC-32
)

// Typed failure modes, distinguishable with errors.Is.
var (
	ErrFormat         = errors.New("checkpoint: malformed envelope")
	ErrSchema         = errors.New("checkpoint: unsupported schema version")
	ErrCRC            = errors.New("checkpoint: CRC mismatch")
	ErrConfigMismatch = errors.New("checkpoint: configuration does not match")
)

// SchedState is the scheduler-side state the fabric must carry across a
// resume: cumulative distributed-arbitration counters and, for randomized
// disciplines, the decision RNG position.
type SchedState struct {
	Rounds     int64          `json:"rounds,omitempty"`
	GrantsLost int64          `json:"grantsLost,omitempty"`
	HasRNG     bool           `json:"hasRng,omitempty"`
	RNG        stats.RNGState `json:"rng,omitempty"`
}

// StreamState carries the streaming-results window trackers: the
// cumulative totals already flushed at the last window boundary, from
// which the next flush computes its deltas.
type StreamState struct {
	NextWindow       float64 `json:"nextWindow"`
	FlushedDeparted  float64 `json:"flushedDeparted"`
	FlushedCompleted int     `json:"flushedCompleted"`
	FlushedFCTSum    float64 `json:"flushedFctSum"`
}

// State is the full serialized simulator. Field-by-field it mirrors
// fabricsim.Sim's mutable state; the fabricsim package owns the capture
// and restore logic, this package owns the format.
type State struct {
	// ConfigDigest fingerprints the run configuration (topology, horizon,
	// scheduler, seeds, fault schedule). Resume verifies it before
	// touching anything else.
	ConfigDigest string `json:"configDigest"`

	SimTime    float64 `json:"simTime"`
	NextID     int64   `json:"nextId"`
	NextSample float64 `json:"nextSample"`

	// NextCompletion is meaningful only when HasNextCompletion; +Inf ("no
	// selected flow completes on its own") does not survive JSON, so it is
	// flag-encoded.
	HasNextCompletion bool    `json:"hasNextCompletion,omitempty"`
	NextCompletion    float64 `json:"nextCompletion,omitempty"`

	HasPending     bool             `json:"hasPending,omitempty"`
	PendingArrival workload.Arrival `json:"pendingArrival,omitempty"`

	ArrivedFlows   int     `json:"arrivedFlows"`
	CompletedFlows int     `json:"completedFlows"`
	ArrivedBytes   float64 `json:"arrivedBytes"`
	DepartedBytes  float64 `json:"departedBytes"`
	FCTSum         float64 `json:"fctSum"`

	Stream *StreamState `json:"stream,omitempty"`

	FaultCounters metrics.FaultCounters   `json:"faultCounters,omitempty"`
	FCT           metrics.FCTState        `json:"fct"`
	Throughput    metrics.ThroughputState `json:"throughput"`

	QueueSeries        metrics.Series `json:"queueSeries"`
	TotalBacklogSeries metrics.Series `json:"totalBacklogSeries"`
	MaxPortSeries      metrics.Series `json:"maxPortSeries"`

	Table flow.TableState `json:"table"`

	// Decision is the current matching as flow IDs, resolved back to
	// pointers against the restored table.
	Decision []int64 `json:"decision,omitempty"`

	PoolFree   int   `json:"poolFree,omitempty"`
	PoolReuses int64 `json:"poolReuses,omitempty"`

	Generator *workload.GeneratorState `json:"generator,omitempty"`
	Injector  *faults.InjectorState    `json:"injector,omitempty"`
	Fallback  *sched.FallbackState     `json:"fallback,omitempty"`
	Sched     *SchedState              `json:"sched,omitempty"`

	Tracer   *obs.TracerState `json:"tracer,omitempty"`
	Registry obs.Snapshot     `json:"registry"`
}

// Encode serializes st into the enveloped format.
func Encode(st *State) ([]byte, error) {
	payload, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	if len(payload) > int(^uint32(0)) {
		return nil, fmt.Errorf("checkpoint: encode: payload too large (%d bytes)", len(payload))
	}
	out := make([]byte, 0, headerLen+len(payload)+trailerLen)
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, SchemaVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	return out, nil
}

// Decode validates the envelope and unmarshals the payload. The CRC is
// checked before the payload is parsed, so a truncated or bit-flipped
// file fails with ErrCRC or ErrFormat rather than a JSON syntax error
// deep inside a half-valid payload.
func Decode(data []byte) (*State, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the fixed framing", ErrFormat, len(data))
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, data[:8])
	}
	schema := binary.LittleEndian.Uint32(data[8:12])
	if schema != SchemaVersion {
		return nil, fmt.Errorf("%w: file has schema %d, this build reads %d", ErrSchema, schema, SchemaVersion)
	}
	payloadLen := int(binary.LittleEndian.Uint32(data[12:16]))
	if len(data) != headerLen+payloadLen+trailerLen {
		return nil, fmt.Errorf("%w: header claims %d payload bytes, file holds %d",
			ErrFormat, payloadLen, len(data)-headerLen-trailerLen)
	}
	body := data[:headerLen+payloadLen]
	want := binary.LittleEndian.Uint32(data[headerLen+payloadLen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: computed %#x, trailer says %#x", ErrCRC, got, want)
	}
	var st State
	if err := json.Unmarshal(body[headerLen:], &st); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrFormat, err)
	}
	return &st, nil
}
