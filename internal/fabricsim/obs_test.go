package fabricsim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"basrpt/internal/faults"
	"basrpt/internal/flow"
	"basrpt/internal/obs"
	"basrpt/internal/sched"
	"basrpt/internal/topology"
	"basrpt/internal/trace"
	"basrpt/internal/workload"
)

// runTraced runs one seeded mixed-workload fabric with the JSONL trace
// sink attached and returns the raw trace bytes plus the result.
func runTraced(t *testing.T, seed uint64) ([]byte, *Result) {
	t.Helper()
	topo := topology.MustNew(topology.Scaled(2, 2))
	var buf bytes.Buffer
	ew, err := trace.NewEventWriter(&buf, trace.TraceHeader{
		Seed: int64(seed), Scheduler: "fast-basrpt", Hosts: topo.NumHosts(), Load: 0.7, DurationSec: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(obs.Options{Sink: ew})
	res := mustRun(t, Config{
		Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
		Scheduler: sched.NewFastBASRPT(2500),
		Generator: mixedGen(t, topo, 0.7, 0.3, seed),
		Duration:  0.3, Seed: seed, Obs: o,
	})
	if err := ew.Flush(); err != nil {
		t.Fatal(err)
	}
	if o.SinkErr() != nil {
		t.Fatal(o.SinkErr())
	}
	return buf.Bytes(), res
}

// TestTraceByteIdenticalAcrossRuns is the tentpole's determinism
// guarantee: two fixed-seed traced runs emit byte-identical JSONL.
func TestTraceByteIdenticalAcrossRuns(t *testing.T) {
	a, resA := runTraced(t, 99)
	b, resB := runTraced(t, 99)
	if !bytes.Equal(a, b) {
		t.Fatal("fixed-seed traced runs produced different trace bytes")
	}
	if resA.Decisions != resB.Decisions {
		t.Fatalf("decision counts diverged: %d vs %d", resA.Decisions, resB.Decisions)
	}
	// And the trace parses back into a well-formed event stream.
	h, events, err := trace.ReadTrace(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if h.Seed != 99 || len(events) == 0 {
		t.Fatalf("header %+v with %d events", h, len(events))
	}
	kinds := map[string]bool{}
	for _, ev := range events {
		kinds[ev.Kind] = true
	}
	for _, want := range []string{"sample.queue", "sample.total", "sample.maxport", "flow.done"} {
		if !kinds[want] {
			t.Fatalf("trace missing %q events (kinds seen: %v)", want, kinds)
		}
	}
}

// TestCounterMigrationPreservesReportedValues: the registry-backed
// Decisions/SchedNanos must report exactly what an obs-disabled run
// reports (the satellite-1 migration contract), and the snapshot must
// agree with the Result fields.
func TestCounterMigrationPreservesReportedValues(t *testing.T) {
	run := func(o *obs.Obs) *Result {
		topo := topology.MustNew(topology.Scaled(2, 2))
		return mustRun(t, Config{
			Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
			Scheduler: sched.NewFastBASRPT(2500),
			Generator: mixedGen(t, topo, 0.7, 0.3, 7),
			Duration:  0.3, Seed: 7, Obs: o,
		})
	}
	plain := run(nil)
	traced := run(obs.New(obs.Options{}))
	if plain.Decisions == 0 {
		t.Fatal("run took no decisions")
	}
	if plain.Decisions != traced.Decisions {
		t.Fatalf("decisions: disabled %d, enabled %d", plain.Decisions, traced.Decisions)
	}
	if plain.CompletedFlows != traced.CompletedFlows || plain.DepartedBytes != traced.DepartedBytes {
		t.Fatal("obs changed simulated results")
	}
	for _, res := range []*Result{plain, traced} {
		if got := res.Obs.Counter("fabric.decisions"); got != res.Decisions {
			t.Fatalf("snapshot decisions %d != result %d", got, res.Decisions)
		}
		if got := res.Obs.Counter("fabric.sched_nanos"); got != res.SchedNanos {
			t.Fatalf("snapshot sched_nanos %d != result %d", got, res.SchedNanos)
		}
		if got := res.Obs.Counter("fabric.completed_flows"); got != int64(res.CompletedFlows) {
			t.Fatalf("snapshot completed %d != result %d", got, res.CompletedFlows)
		}
	}
	if sn := traced.Obs.Counter("sched.index_repairs"); sn == 0 {
		t.Fatal("index repair count missing from snapshot")
	}
	if hw := traced.Obs; len(hw.Gauges) == 0 {
		t.Fatal("eventq high-water gauge missing from snapshot")
	}
}

// TestTruncatedFaultedRunPrintsLastEventsInOrder: a watchdog-truncated
// faulted run's Diagnosis carries at most the last 16 flight-recorder
// events, in order, and String() prints them after the summary line.
func TestTruncatedFaultedRunPrintsLastEventsInOrder(t *testing.T) {
	// An unfinishable flow plus a link fault: the t=1 sample trips the
	// 1000-byte watchdog after the fault boundary events fired.
	schedule := &faults.Schedule{
		Seed:    5,
		Horizon: 10,
		LinkFaults: []faults.LinkFault{
			{Window: faults.Window{Start: 0.2, End: 0.4}, Port: 0, RateFraction: 0},
		},
	}
	gen := workload.NewSliceGenerator([]workload.Arrival{
		{Time: 0.1, Src: 0, Dst: 1, Size: 1e6, Class: flow.ClassOther},
	})
	o := obs.New(obs.Options{})
	res := mustRun(t, Config{
		Hosts: 2, LinkBps: link, Scheduler: sched.NewSRPT(), Generator: gen,
		Duration: 10, SampleInterval: 1, Seed: 5,
		Faults:   faults.NewInjector(schedule),
		Watchdog: &Watchdog{MaxBacklogBytes: 1000},
		Obs:      o,
	})
	if !res.Truncated() {
		t.Fatal("watchdog did not truncate")
	}
	d := res.Diagnosis
	if len(d.LastEvents) == 0 {
		t.Fatal("diagnosis captured no flight-recorder events")
	}
	if len(d.LastEvents) > 16 {
		t.Fatalf("diagnosis captured %d events, want at most 16", len(d.LastEvents))
	}
	for i := 1; i < len(d.LastEvents); i++ {
		if d.LastEvents[i].Seq <= d.LastEvents[i-1].Seq {
			t.Fatalf("diagnosis events out of order at %d: %+v", i, d.LastEvents)
		}
		if d.LastEvents[i].T < d.LastEvents[i-1].T {
			t.Fatalf("diagnosis event times go backwards at %d", i)
		}
	}
	last := d.LastEvents[len(d.LastEvents)-1]
	if last.Kind != "watchdog.truncate" || last.Detail != "backlog-bound" {
		t.Fatalf("tail event = %+v, want the truncation marker", last)
	}
	kinds := map[string]bool{}
	for _, ev := range d.LastEvents {
		kinds[ev.Kind] = true
	}
	if !kinds["fault.link.start"] || !kinds["fault.link.end"] {
		t.Fatalf("fault boundary events missing from diagnosis (kinds: %v)", kinds)
	}

	out := d.String()
	if !strings.Contains(out, "last ") || !strings.Contains(out, "watchdog.truncate") {
		t.Fatalf("diagnosis missing events:\n%s", out)
	}
	// Printed order matches capture order.
	if strings.Index(out, "fault.link.start") > strings.Index(out, "watchdog.truncate") {
		t.Fatalf("diagnosis prints events out of order:\n%s", out)
	}
}

// TestObsDisabledRunsIdentical: a nil Obs changes nothing about the
// simulation (the disabled path is pure observation).
func TestObsDisabledRunsIdentical(t *testing.T) {
	run := func(o *obs.Obs) *Result {
		topo := topology.MustNew(topology.Scaled(2, 2))
		return mustRun(t, Config{
			Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(),
			Scheduler: sched.NewSRPT(),
			Generator: mixedGen(t, topo, 0.6, 0.25, 13),
			Duration:  0.25, Seed: 13, Obs: o,
		})
	}
	a, b := run(nil), run(obs.New(obs.Options{}))
	if a.Decisions != b.Decisions || a.CompletedFlows != b.CompletedFlows {
		t.Fatalf("obs perturbed the run: %d/%d vs %d/%d decisions/completions",
			a.Decisions, a.CompletedFlows, b.Decisions, b.CompletedFlows)
	}
	if math.Abs(a.DepartedBytes-b.DepartedBytes) > 0 {
		t.Fatalf("departed bytes diverged: %g vs %g", a.DepartedBytes, b.DepartedBytes)
	}
}
