package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// TimelineCoordinator is the track number of the coordinator (main
// goroutine) in a Timeline: the fold/route work that runs between
// lookahead windows, as opposed to the per-cell tracks numbered from 0.
const TimelineCoordinator = -1

// TimelineSpan is one recorded wall-clock interval on a Timeline track.
// Start and duration are nanoseconds relative to the recording run's
// origin (the recorder chooses the origin; only differences matter).
// Spans belong to the wall-clock observability plane: their order is
// deterministic for a fixed configuration, their times are not.
type TimelineSpan struct {
	Track   int    // cell index, or TimelineCoordinator
	Name    string // span kind: "window", "batch", "fold", "route"
	Window  int    // window index ("window" spans) or barrier index (all others)
	StartNs int64  // nanoseconds since the run origin
	DurNs   int64  // span duration in nanoseconds
}

// Timeline accumulates wall-clock spans from a sharded run for export in
// the Chrome trace_event format (chrome://tracing, Perfetto). It is a
// plain append-only container: the caller supplies timestamps, so a
// Timeline itself never reads the clock and tests can drive it with
// fixed values. Not safe for concurrent use — record from the
// coordinating goroutine only (the sharded engine appends between
// window barriers).
type Timeline struct {
	spans []TimelineSpan
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// Add appends one span. Nil-safe: recording into a nil *Timeline is a
// no-op, so engine code can call it unconditionally.
func (tl *Timeline) Add(span TimelineSpan) {
	if tl == nil {
		return
	}
	tl.spans = append(tl.spans, span)
}

// Spans returns the recorded spans in insertion order. The returned
// slice is the timeline's backing store; callers must not mutate it.
func (tl *Timeline) Spans() []TimelineSpan {
	if tl == nil {
		return nil
	}
	return tl.spans
}

// Len returns the number of recorded spans.
func (tl *Timeline) Len() int {
	if tl == nil {
		return 0
	}
	return len(tl.spans)
}

// trackTID maps a timeline track to a Chrome trace thread id: the
// coordinator renders as tid 0 and cell i as tid i+1, so the timeline
// viewer sorts the coordinator row first.
func trackTID(track int) int {
	if track == TimelineCoordinator {
		return 0
	}
	return track + 1
}

// trackName renders the human-readable row label for a track.
func trackName(track int) string {
	if track == TimelineCoordinator {
		return "coordinator"
	}
	return fmt.Sprintf("cell %d", track)
}

// WriteChromeTrace serializes the timeline as a Chrome trace_event JSON
// document: one complete ("ph":"X") event per span on one thread row
// per track, plus thread_name/process_name metadata, timestamps in
// microseconds as the format requires. The output loads directly in
// chrome://tracing or https://ui.perfetto.dev. Event order and all
// non-timestamp bytes are deterministic for a fixed span sequence; the
// timestamps themselves are wall-clock measurements and vary run to
// run. A nil or empty timeline writes a valid document with only
// process metadata.
func (tl *Timeline) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	fmt.Fprintf(bw, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"basrpt sharded fabric\"}}")

	// Thread-name metadata for every track that appears, coordinator
	// first then cells ascending, independent of span order.
	tracks := map[int]bool{}
	maxCell := -1
	for _, s := range tl.Spans() {
		tracks[s.Track] = true
		if s.Track > maxCell {
			maxCell = s.Track
		}
	}
	if tracks[TimelineCoordinator] {
		fmt.Fprintf(bw, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":%q}}", trackName(TimelineCoordinator))
	}
	for t := 0; t <= maxCell; t++ {
		if tracks[t] {
			fmt.Fprintf(bw, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":%q}}", trackTID(t), trackName(t))
		}
	}

	for _, s := range tl.Spans() {
		name := s.Name
		if strings.ContainsAny(name, "\"\\\n") {
			return fmt.Errorf("obs: timeline span name %q contains JSON-unsafe characters", s.Name)
		}
		if s.StartNs < 0 || s.DurNs < 0 {
			return fmt.Errorf("obs: timeline span %q has negative time (start %d dur %d)", s.Name, s.StartNs, s.DurNs)
		}
		// trace_event timestamps are microseconds; keep nanosecond
		// precision with three decimals.
		fmt.Fprintf(bw, ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%d.%03d,\"dur\":%d.%03d,\"pid\":0,\"tid\":%d,\"args\":{\"window\":%d,\"track\":%d}}",
			name, name, s.StartNs/1000, s.StartNs%1000, s.DurNs/1000, s.DurNs%1000, trackTID(s.Track), s.Window, s.Track)
	}
	fmt.Fprintf(bw, "\n]}\n")
	return bw.Flush()
}
