package fabricsim

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"basrpt/internal/checkpoint"
	"basrpt/internal/faults"
	"basrpt/internal/flow"
	"basrpt/internal/obs"
	"basrpt/internal/sched"
	"basrpt/internal/stats"
	"basrpt/internal/topology"
	"basrpt/internal/trace"
	"basrpt/internal/workload"
)

// soakSchedule is the fault schedule the resume soak runs under: a dead
// link, a scheduler outage (exercising the fallback's held matching), and
// random packet loss (exercising the injector's RNG stream position).
func soakSchedule() *faults.Schedule {
	return &faults.Schedule{
		Seed:    7,
		Horizon: 0.3,
		LinkFaults: []faults.LinkFault{
			{Window: faults.Window{Start: 0.05, End: 0.09}, Port: 0, RateFraction: 0},
			{Window: faults.Window{Start: 0.2, End: 0.23}, Port: 2, RateFraction: 0.5},
		},
		Outages:        []faults.Window{{Start: 0.12, End: 0.14}},
		PacketLossProb: 0.05,
	}
}

// soakConfig builds one run configuration for the resume soak. Each call
// constructs fresh stateful components (generator, injector) so two runs
// never share mutable state.
func soakConfig(t *testing.T, seed uint64, withFaults bool, o *obs.Obs) Config {
	t.Helper()
	topo := topology.MustNew(topology.Scaled(2, 2))
	cfg := Config{
		Hosts:     topo.NumHosts(),
		LinkBps:   topo.HostLinkBps(),
		Scheduler: sched.NewFastBASRPT(2500),
		Generator: mixedGen(t, topo, 0.7, 0.3, seed),
		Duration:  0.3,
		Seed:      seed,
		Obs:       o,
	}
	if withFaults {
		cfg.Faults = faults.NewInjector(soakSchedule())
	}
	return cfg
}

func soakTraceWriter(t *testing.T, seed uint64) (*bytes.Buffer, *trace.EventWriter) {
	t.Helper()
	var buf bytes.Buffer
	ew, err := trace.NewEventWriter(&buf, trace.TraceHeader{
		Seed: int64(seed), Scheduler: "fast-basrpt", Hosts: 4, Load: 0.7, DurationSec: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &buf, ew
}

// TestCheckpointResumeByteIdentical is the tentpole's acceptance gate:
// for multiple seeds, with and without fault injection, a run halted at a
// mid-run checkpoint and resumed in a fresh simulator produces (a) a
// Result with the same deterministic digest as the uninterrupted run and
// (b) a trace whose concatenation with the pre-halt trace is
// byte-identical to the uninterrupted run's trace.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	for _, seed := range []uint64{17, 99} {
		for _, withFaults := range []bool{false, true} {
			name := map[bool]string{false: "clean", true: "faults"}[withFaults]
			t.Run(name, func(t *testing.T) {
				// Uninterrupted reference run.
				fullBuf, fullEW := soakTraceWriter(t, seed)
				fullRes := mustRun(t, soakConfig(t, seed, withFaults, obs.New(obs.Options{Sink: fullEW})))
				if err := fullEW.Flush(); err != nil {
					t.Fatal(err)
				}

				// Halted run: stop at the first periodic checkpoint (t >= 0.15).
				partBuf, partEW := soakTraceWriter(t, seed)
				haltCfg := soakConfig(t, seed, withFaults, obs.New(obs.Options{Sink: partEW}))
				haltCfg.CheckpointEvery = 0.15
				var ckpt []byte
				haltCfg.CheckpointSink = func(data []byte, simTime float64) error {
					ckpt = data
					return ErrStopAfterCheckpoint
				}
				partRes := mustRun(t, haltCfg)
				if err := partEW.Flush(); err != nil {
					t.Fatal(err)
				}
				if partRes.Diagnosis == nil || partRes.Diagnosis.Reason != "checkpoint-stop" {
					t.Fatalf("halted run diagnosis = %+v, want checkpoint-stop", partRes.Diagnosis)
				}
				if len(ckpt) == 0 || !bytes.Equal(partRes.Diagnosis.Checkpoint, ckpt) {
					t.Fatal("halted run did not surface the checkpoint bytes")
				}
				if partRes.Duration >= 0.3 || partRes.Duration < 0.15 {
					t.Fatalf("halt at t=%g, want within [0.15, 0.3)", partRes.Duration)
				}

				// Continuation: fresh simulator, fresh generator/injector,
				// headerless trace writer.
				var contBuf bytes.Buffer
				contEW := trace.NewContinuationWriter(&contBuf)
				contCfg := soakConfig(t, seed, withFaults, obs.New(obs.Options{Sink: contEW}))
				sim, err := Resume(contCfg, ckpt)
				if err != nil {
					t.Fatal(err)
				}
				contRes, err := sim.Run()
				if err != nil {
					t.Fatal(err)
				}
				if err := contEW.Flush(); err != nil {
					t.Fatal(err)
				}

				if got, want := contRes.DeterministicDigest(), fullRes.DeterministicDigest(); got != want {
					t.Errorf("seed %d: resumed digest %s != full digest %s", seed, got, want)
				}
				if contRes.CompletedFlows != fullRes.CompletedFlows ||
					contRes.ArrivedFlows != fullRes.ArrivedFlows ||
					contRes.DepartedBytes != fullRes.DepartedBytes ||
					contRes.Faults != fullRes.Faults {
					t.Errorf("seed %d: resumed result diverged: %+v vs %+v", seed, contRes, fullRes)
				}
				stitched := append(append([]byte(nil), partBuf.Bytes()...), contBuf.Bytes()...)
				if !bytes.Equal(stitched, fullBuf.Bytes()) {
					t.Errorf("seed %d: stitched trace (%d bytes) != full trace (%d bytes)",
						seed, len(stitched), len(fullBuf.Bytes()))
				}
				// The stitched trace must itself be a valid, monotonic trace.
				if _, evs, err := trace.ReadTrace(bytes.NewReader(stitched)); err != nil || len(evs) == 0 {
					t.Errorf("seed %d: stitched trace unreadable: %v (%d events)", seed, err, len(evs))
				}
			})
		}
	}
}

// TestGrantsLostReachesResult: a lossy dist-basrpt run reports the
// control messages its arbitration lost in Result.Faults, and a
// halted-and-resumed copy ends on the uninterrupted digest, which covers
// the fault counters.
func TestGrantsLostReachesResult(t *testing.T) {
	topo := topology.MustNew(topology.Scaled(2, 2))
	lossyConfig := func(drops *stats.RNG) (Config, *sched.Distributed) {
		s := sched.NewLossyDistributed(2500, 0, func() bool { return drops.Float64() < 0.2 })
		return Config{
			Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(), Scheduler: s,
			Generator: mixedGen(t, topo, 0.7, 0.3, 17), Duration: 0.3, Seed: 17,
		}, s
	}
	fullCfg, s := lossyConfig(stats.NewRNG(5))
	full := mustRun(t, fullCfg)
	if full.Faults.GrantsLost == 0 || full.Faults.GrantsLost != s.GrantsLost() || !full.Faults.Any() {
		t.Fatalf("Faults = %+v, scheduler lost %d grants", full.Faults, s.GrantsLost())
	}

	// The drop stream is the caller's, outside the checkpoint, so the
	// continuation restores its position by hand.
	haltDrops := stats.NewRNG(5)
	haltCfg, _ := lossyConfig(haltDrops)
	haltCfg.CheckpointEvery = 0.15
	var ckpt []byte
	var dropsAtHalt stats.RNGState
	haltCfg.CheckpointSink = func(data []byte, _ float64) error {
		ckpt, dropsAtHalt = data, haltDrops.State()
		return ErrStopAfterCheckpoint
	}
	if halted := mustRun(t, haltCfg); halted.Faults.GrantsLost == 0 {
		t.Fatalf("halted run lost no grants before t=%g", halted.Duration)
	}
	contDrops := stats.NewRNG(5)
	if err := contDrops.RestoreState(dropsAtHalt); err != nil {
		t.Fatal(err)
	}
	contCfg, _ := lossyConfig(contDrops)
	sim, err := Resume(contCfg, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cont.Faults != full.Faults || cont.DeterministicDigest() != full.DeterministicDigest() {
		t.Fatalf("resumed run: faults %+v digest %s, uninterrupted: faults %+v digest %s",
			cont.Faults, cont.DeterministicDigest(), full.Faults, full.DeterministicDigest())
	}
}

// TestPeriodicCheckpointsDoNotPerturb: a run that takes (and keeps
// running past) periodic checkpoints is bit-identical to one that never
// checkpoints — capture is observably side-effect free.
func TestPeriodicCheckpointsDoNotPerturb(t *testing.T) {
	plainBuf, plainEW := soakTraceWriter(t, 5)
	plain := mustRun(t, soakConfig(t, 5, true, obs.New(obs.Options{Sink: plainEW})))
	if err := plainEW.Flush(); err != nil {
		t.Fatal(err)
	}

	ckptBuf, ckptEW := soakTraceWriter(t, 5)
	cfg := soakConfig(t, 5, true, obs.New(obs.Options{Sink: ckptEW}))
	cfg.CheckpointEvery = 0.05
	taken := 0
	cfg.CheckpointSink = func(data []byte, simTime float64) error {
		taken++
		if _, err := checkpoint.Decode(data); err != nil {
			t.Errorf("periodic checkpoint at t=%g undecodable: %v", simTime, err)
		}
		return nil
	}
	res := mustRun(t, cfg)
	if err := ckptEW.Flush(); err != nil {
		t.Fatal(err)
	}
	if taken < 3 {
		t.Fatalf("took %d periodic checkpoints, want >= 3", taken)
	}
	if got, want := res.DeterministicDigest(), plain.DeterministicDigest(); got != want {
		t.Fatalf("checkpointing perturbed the run: %s != %s", got, want)
	}
	if !bytes.Equal(ckptBuf.Bytes(), plainBuf.Bytes()) {
		t.Fatal("checkpointing perturbed the trace")
	}
}

// TestWatchdogCheckpointResumable: a watchdog truncation carries a
// resumable checkpoint, and resuming with the watchdog relaxed drives the
// run to its natural horizon with bytes conserved.
func TestWatchdogCheckpointResumable(t *testing.T) {
	cfg := soakConfig(t, 23, true, nil)
	cfg.Watchdog = &Watchdog{MaxBacklogBytes: 1}
	res := mustRun(t, cfg)
	d := res.Diagnosis
	if d == nil || d.Reason != "backlog-bound" {
		t.Fatalf("diagnosis = %+v, want backlog-bound truncation", d)
	}
	if d.CheckpointErr != "" {
		t.Fatalf("truncation checkpoint failed: %s", d.CheckpointErr)
	}
	if len(d.Checkpoint) == 0 {
		t.Fatal("watchdog truncation carried no checkpoint")
	}

	// Resume with the limit relaxed: the run must finish the horizon.
	resumeCfg := soakConfig(t, 23, true, nil)
	sim, err := Resume(resumeCfg, d.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if full.Diagnosis != nil {
		t.Fatalf("resumed run still truncated: %+v", full.Diagnosis)
	}
	if full.Duration != 0.3 {
		t.Fatalf("resumed run stopped at t=%g, want 0.3", full.Duration)
	}
	if full.ArrivedFlows <= res.ArrivedFlows {
		t.Fatalf("resumed run made no progress: %d arrivals vs %d at truncation",
			full.ArrivedFlows, res.ArrivedFlows)
	}
	// Byte conservation across the splice: everything that arrived either
	// departed or is still queued.
	if diff := full.ArrivedBytes - full.DepartedBytes - full.LeftoverBytes; math.Abs(diff) > 1e-6*full.ArrivedBytes {
		t.Fatalf("conservation violated by %g bytes", diff)
	}
	// And it matches the never-truncated run bit for bit.
	ref := mustRun(t, soakConfig(t, 23, true, nil))
	if got, want := full.DeterministicDigest(), ref.DeterministicDigest(); got != want {
		t.Fatalf("watchdog-resumed digest %s != uninterrupted digest %s", got, want)
	}
}

// TestResumeRejectsMismatch: a checkpoint only restores into an
// equivalent configuration, and corruption is caught by the envelope.
func TestResumeRejectsMismatch(t *testing.T) {
	cfg := soakConfig(t, 17, false, nil)
	cfg.CheckpointEvery = 0.15
	var ckpt []byte
	cfg.CheckpointSink = func(data []byte, simTime float64) error {
		ckpt = data
		return ErrStopAfterCheckpoint
	}
	mustRun(t, cfg)
	if len(ckpt) == 0 {
		t.Fatal("no checkpoint captured")
	}

	badSeed := soakConfig(t, 18, false, nil)
	if _, err := Resume(badSeed, ckpt); !errors.Is(err, checkpoint.ErrConfigMismatch) {
		t.Fatalf("different seed: got %v, want ErrConfigMismatch", err)
	}
	withFaults := soakConfig(t, 17, true, nil)
	if _, err := Resume(withFaults, ckpt); !errors.Is(err, checkpoint.ErrConfigMismatch) {
		t.Fatalf("added faults: got %v, want ErrConfigMismatch", err)
	}
	flipped := append([]byte(nil), ckpt...)
	flipped[len(flipped)/2] ^= 1
	if _, err := Resume(soakConfig(t, 17, false, nil), flipped); !errors.Is(err, checkpoint.ErrCRC) {
		t.Fatalf("bit flip: got %v, want ErrCRC", err)
	}
	if _, err := Resume(soakConfig(t, 17, false, nil), ckpt[:10]); !errors.Is(err, checkpoint.ErrFormat) {
		t.Fatalf("truncated: got %v, want ErrFormat", err)
	}
}

// TestStreamingWindowsBounded: streaming mode emits periodic window.*
// events and keeps the per-class FCT tails bounded. The run completes
// more than 2 × streamKeep queries, so the tail trim fires.
func TestStreamingWindowsBounded(t *testing.T) {
	const seed, dur = 31, 0.3
	topo := topology.MustNew(topology.Scaled(2, 3))
	streamCfg := func(o *obs.Obs) Config {
		return Config{
			Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(), Scheduler: sched.NewFastBASRPT(2500),
			Generator: mixedGen(t, topo, 0.8, dur, seed), Duration: dur, Seed: seed,
			Obs: o, StreamWindow: 0.03,
		}
	}
	var buf bytes.Buffer
	ew, err := trace.NewEventWriter(&buf, trace.TraceHeader{
		Seed: seed, Scheduler: "fast-basrpt", Hosts: topo.NumHosts(), Load: 0.8, DurationSec: dur,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, streamCfg(obs.New(obs.Options{Sink: ew})))
	if err := ew.Flush(); err != nil {
		t.Fatal(err)
	}

	_, events, err := trace.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	windows := 0
	for _, ev := range events {
		if ev.Kind == "window.backlog" {
			windows++
		}
	}
	if windows < 4 {
		t.Fatalf("saw %d window flushes in the trace, want >= 4", windows)
	}
	if n := res.FCT.Count(flow.ClassQuery); n <= 2*streamKeep {
		t.Fatalf("run completed %d queries, need more than %d for the tail trim to fire", n, 2*streamKeep)
	}
	for _, cs := range res.FCT.StateSnapshot().Classes {
		if len(cs.Samples) > 2*streamKeep {
			t.Fatalf("class %d holds %d FCT samples, bound is %d", cs.Class, len(cs.Samples), 2*streamKeep)
		}
		if cs.Count == 0 {
			t.Fatalf("class %d lost its completion count", cs.Class)
		}
	}

	// Streaming runs resume bit-for-bit too: the window trackers and the
	// FCT tail bound are state, and the trim fires after the resume.
	cfg2 := streamCfg(nil)
	cfg2.CheckpointEvery = 0.15
	var ckpt []byte
	cfg2.CheckpointSink = func(data []byte, simTime float64) error {
		ckpt = data
		return ErrStopAfterCheckpoint
	}
	mustRun(t, cfg2)
	sim, err := Resume(streamCfg(nil), ckpt)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Reference streaming run without an Obs attached, like the resume.
	ref := mustRun(t, streamCfg(nil))
	if got, want := resumed.DeterministicDigest(), ref.DeterministicDigest(); got != want {
		t.Fatalf("streaming resume digest %s != reference %s", got, want)
	}
}

// plainGenerator satisfies workload.Generator but not Checkpointable.
type plainGenerator struct{}

func (plainGenerator) Next() (workload.Arrival, bool) { return workload.Arrival{}, false }

// TestCheckpointConfigValidation covers the New-time wiring rules.
func TestCheckpointConfigValidation(t *testing.T) {
	sink := func([]byte, float64) error { return nil }
	base := func(t *testing.T) Config { return soakConfig(t, 1, false, nil) }
	cases := []struct {
		name   string
		mutate func(Config) Config
	}{
		{"negative cadence", func(c Config) Config { c.CheckpointEvery = -1; return c }},
		{"NaN cadence", func(c Config) Config { c.CheckpointEvery = math.NaN(); c.CheckpointSink = sink; return c }},
		{"infinite cadence", func(c Config) Config { c.CheckpointEvery = math.Inf(1); c.CheckpointSink = sink; return c }},
		{"cadence without sink", func(c Config) Config { c.CheckpointEvery = 0.1; return c }},
		{"sink without cadence", func(c Config) Config { c.CheckpointSink = sink; return c }},
		{"negative window", func(c Config) Config { c.StreamWindow = -1; return c }},
		{"NaN window", func(c Config) Config { c.StreamWindow = math.NaN(); return c }},
		{"infinite window", func(c Config) Config { c.StreamWindow = math.Inf(1); return c }},
		{"non-checkpointable generator", func(c Config) Config {
			c.Generator = plainGenerator{}
			c.CheckpointEvery = 0.1
			c.CheckpointSink = sink
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.mutate(base(t))); err == nil {
				t.Fatal("bad config accepted")
			}
		})
	}
}
