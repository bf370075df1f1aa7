package fabricsim

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"basrpt/internal/faults"
	"basrpt/internal/obs"
	"basrpt/internal/sched"
	"basrpt/internal/trace"
)

// TestEngineGoldens pins both engines' output bytes across commits: the
// Result digest and the FNV-64a of the full JSONL trace, for six
// centralized runs (one with faults and deep validation, one halted at a
// checkpoint with faults on, one under dist-basrpt, one streaming windows
// with faults on, one truncated by the watchdog) and three decomposed
// runs (one under dist-basrpt); for the halted run also the FNV-64a of
// the checkpoint it wrote. The other byte-gates
// compare two runs of the same build, and the benchmark pins only Result
// digests, which omit trace ports and checkpoint bytes; these values
// catch a change that moves any of them. A refactor of the event loop or
// the configuration surface must leave every value here unchanged.
func TestEngineGoldens(t *testing.T) {
	type golden struct {
		name          string
		racks, hpr    int
		scheduler     string
		load, dur     float64
		seed          uint64
		shards        int     // 0: New+Run, else RunShard
		faulted       bool    // centralized only
		haltAt        float64 // centralized only: checkpoint interval; halt at the first
		window        float64 // centralized only: StreamWindow
		watchdog      float64 // centralized only: Watchdog.MaxBacklogBytes; the run must trip it
		digest, trace string
		checkpoint    string // FNV-64a of the halted run's checkpoint
	}
	cases := []golden{
		{name: "centralized", racks: 3, hpr: 4, scheduler: "fast-basrpt", load: 0.8, dur: 0.05, seed: 7,
			digest: "fe566d5aea6a0edb", trace: "eed46a974b94d2e9"},
		{name: "centralized-faults", racks: 2, hpr: 3, scheduler: "fast-basrpt", load: 0.8, dur: 0.2, seed: 5, faulted: true,
			digest: "cc574cff52b01035", trace: "32d2ae8f7639b8e0"},
		{name: "centralized-checkpoint", racks: 2, hpr: 3, scheduler: "fast-basrpt", load: 0.8, dur: 0.2, seed: 5, faulted: true, haltAt: 0.09,
			digest: "2f33ab1fa4c6c8e3", trace: "f1a921c3702e1c31", checkpoint: "25ff187eb6825dbd"},
		{name: "decomposed", racks: 4, hpr: 4, scheduler: "fast-basrpt", load: 0.7, dur: 0.01, seed: 13, shards: 2,
			digest: "f2c15499392de83c", trace: "9e26c5833fd40800"},
		{name: "decomposed-noisy", racks: 8, hpr: 3, scheduler: "noisy-basrpt", load: 0.7, dur: 0.005, seed: 21, shards: 4,
			digest: "077fcdb9c51cb2ff", trace: "970c5f05b526861f"},
		{name: "centralized-dist", racks: 3, hpr: 4, scheduler: "dist-basrpt", load: 0.8, dur: 0.05, seed: 7,
			digest: "ca78e3fcbb49796d", trace: "dcab3ed43017e809"},
		{name: "decomposed-dist", racks: 4, hpr: 4, scheduler: "dist-basrpt", load: 0.7, dur: 0.01, seed: 13, shards: 2,
			digest: "ec2f41fbed417b39", trace: "58396a588a7ff34e"},
		{name: "centralized-stream", racks: 2, hpr: 3, scheduler: "fast-basrpt", load: 0.9, dur: 0.2, seed: 5, faulted: true, window: 0.02,
			digest: "339af896df95e593", trace: "0bd0e4a0d7dd4d75"},
		{name: "centralized-watchdog", racks: 2, hpr: 3, scheduler: "srpt", load: 0.95, dur: 1, seed: 5, watchdog: 2e7,
			digest: "dc0bba5017c6dbbd", trace: "d932090352be40da"},
	}
	for _, g := range cases {
		t.Run(g.name, func(t *testing.T) {
			topo := shardTopo(t, g.racks, g.hpr)
			var buf bytes.Buffer
			ew, err := trace.NewEventWriter(&buf, trace.TraceHeader{
				Seed: int64(g.seed), Scheduler: g.scheduler, Hosts: topo.NumHosts(),
				Load: g.load, DurationSec: g.dur,
			})
			if err != nil {
				t.Fatal(err)
			}
			o := obs.New(obs.Options{Sink: ew})
			var res *Result
			var ckpt []byte
			if g.shards > 0 {
				res, err = RunShard(ShardConfig{
					Topology: topo, Scheduler: g.scheduler, Load: g.load, Duration: g.dur,
					Seed: g.seed, Shards: g.shards, ValidateDecisions: true, Obs: o,
				})
			} else {
				scheduler, serr := sched.New(g.scheduler, sched.Options{Seed: g.seed})
				if serr != nil {
					t.Fatal(serr)
				}
				cfg := Config{
					Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(), Scheduler: scheduler,
					Generator: mixedGen(t, topo, g.load, g.dur, g.seed),
					Duration:  g.dur, Seed: g.seed, Obs: o, StreamWindow: g.window,
				}
				if g.watchdog > 0 {
					cfg.Watchdog = &Watchdog{MaxBacklogBytes: g.watchdog}
				}
				if g.faulted {
					schedule, ferr := faults.Generate(faults.Params{
						Seed: 3, Horizon: g.dur, Ports: topo.NumHosts(), LinkFaults: 3, Outages: 1,
					})
					if ferr != nil {
						t.Fatal(ferr)
					}
					cfg.Faults = faults.NewInjector(schedule)
					cfg.ValidateDecisions = true
					cfg.DeepValidateEvery = 50
				}
				if g.haltAt > 0 {
					cfg.CheckpointEvery = g.haltAt
					cfg.CheckpointSink = func(data []byte, _ float64) error {
						ckpt = data
						return ErrStopAfterCheckpoint
					}
				}
				res = mustRun(t, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := ew.Flush(); err != nil {
				t.Fatal(err)
			}
			if res.CompletedFlows == 0 {
				t.Fatal("no flow completed; the golden is vacuous")
			}
			h := fnv.New64a()
			h.Write(buf.Bytes())
			if got := res.DeterministicDigest(); got != g.digest {
				t.Errorf("digest %s, want %s", got, g.digest)
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != g.trace {
				t.Errorf("trace hash %s, want %s (%d bytes)", got, g.trace, buf.Len())
			}
			if g.window > 0 && !bytes.Contains(buf.Bytes(), []byte(`"window.completed"`)) {
				t.Error("streaming run emitted no window events")
			}
			if g.watchdog > 0 && (res.Diagnosis == nil || res.Diagnosis.Reason != "backlog-bound") {
				t.Errorf("run was not truncated by the watchdog: %+v", res.Diagnosis)
			}
			if g.haltAt > 0 {
				if res.Diagnosis == nil || res.Diagnosis.Reason != "checkpoint-stop" || len(ckpt) == 0 {
					t.Fatalf("run did not halt at a checkpoint: %+v", res.Diagnosis)
				}
				h.Reset()
				h.Write(ckpt)
				if got := fmt.Sprintf("%016x", h.Sum64()); got != g.checkpoint {
					t.Errorf("checkpoint hash %s, want %s (%d bytes)", got, g.checkpoint, len(ckpt))
				}
			}
		})
	}
}
