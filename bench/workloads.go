package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"basrpt/internal/fabricsim"
	"basrpt/internal/obs"
	"basrpt/internal/sched"
	"basrpt/internal/topology"
	"basrpt/internal/trace"
	"basrpt/internal/workload"
)

// engine names the fabric engine a workload runs on.
type engine string

const (
	centralized engine = "centralized" // fabricsim.New + Sim.Run
	decomposed  engine = "decomposed"  // fabricsim.RunShard, one cell per rack
)

// spec is one benchmark workload. Every workload uses the paper's
// websearch mix with the default 10% query byte share; fast BASRPT runs
// at the scheduler registry's default V = 2500.
type spec struct {
	name     string
	engine   engine
	racks    int
	hpr      int // hosts per rack
	sched    string
	load     float64
	duration float64 // simulated seconds
	traced   bool    // the JSONL event trace is part of the workload
	// pin is the workload's DeterministicDigest at pinnedSeed. Any other
	// seed, or a shortened horizon, has no pin; its repetitions must then
	// agree with each other.
	pin string
}

// pinnedSeed is the workload seed the pins were recorded at.
const pinnedSeed = 1

// decomposedShards and decomposedWorkers fix the decomposed engine's
// grouping: the results are identical for every grouping, and two worker
// goroutines match the two CPUs the benchmark is sized for.
const (
	decomposedShards  = 2
	decomposedWorkers = 2
)

// specs are the benchmark's workloads, in run order. BENCHMARK.json and
// README.md say why each was chosen.
var specs = []spec{
	{name: "paper144-fast", engine: centralized, racks: 12, hpr: 12,
		sched: "fast-basrpt", load: 0.8, duration: 0.3, pin: "2558567dba2569a6"},
	{name: "paper144-srpt-sat-traced", engine: centralized, racks: 12, hpr: 12,
		sched: "srpt", load: 0.95, duration: 0.2, traced: true, pin: "ff69853b080ee344"},
	{name: "rack4128-decomposed", engine: decomposed, racks: 344, hpr: 12,
		sched: "fast-basrpt", load: 0.5, duration: 0.05, pin: "ea240bbea98b4146"},
	{name: "rack4128-centralized", engine: centralized, racks: 344, hpr: 12,
		sched: "fast-basrpt", load: 0.5, duration: 0.0005, pin: "b8024f1ac481262d"},
}

// specByName returns the named workload.
func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// repConfig is what one repetition runs on top of the workload itself.
type repConfig struct {
	seed uint64
	// probe turns on the per-layer instruments: a timed Generator, a
	// timed trace sink, and a shard Timeline. They slow the run, so
	// end-to-end repetitions leave it off.
	probe bool
	// noObs drops the workload's event trace, giving the reference the
	// obs overhead is measured against.
	noObs bool
	// workers overrides decomposedWorkers (0 keeps it).
	workers int
}

// rep is the outcome of one repetition.
type rep struct {
	digest    string
	setupS    float64 // time in the constructors
	runS      float64 // run wall time, setup excluded
	decisions int64
	heapLive  uint64 // bytes live at the end of the run; see liveHeap
	res       *fabricsim.Result

	// The centralized setup split, and allocation around setup and run.
	setupSchedS, setupWorkloadS, setupSimS float64
	memSetup, memRun                       memDelta

	// The traced workload's event stream.
	traceEvents, traceBytes int64

	// Probe-only instruments.
	gen      *timedGen
	sink     *timedSink
	timeline *obs.Timeline
}

// memDelta is the allocation and GC work between two MemStats reads.
type memDelta struct {
	bytes, objects uint64
	gcs            uint32
}

func deltaOf(a, b *runtime.MemStats) memDelta {
	return memDelta{bytes: b.TotalAlloc - a.TotalAlloc, objects: b.Mallocs - a.Mallocs, gcs: b.NumGC - a.NumGC}
}

// liveHeap collects garbage and returns the heap bytes left live. Called
// while a run's state is still reachable, it measures what the run
// holds: unlike a peak sampled between collections, it does not depend
// on where the collector's cycles happen to fall. It collects twice
// because sync.Pool contents survive one collection, and encoding/json's
// pool can hold the 8 MB buffer the previous repetition's digest grew.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// timedGen times every Next call of the generator it wraps. It forwards
// QueueHighWater, which the simulator reads into the eventq.high_water
// gauge: without it the gauge, and so the digest, would change.
type timedGen struct {
	g     *workload.Mixed
	calls int64
	busy  time.Duration
}

func (t *timedGen) Next() (workload.Arrival, bool) {
	start := time.Now()
	a, ok := t.g.Next()
	t.busy += time.Since(start)
	t.calls++
	return a, ok
}

func (t *timedGen) QueueHighWater() int { return t.g.QueueHighWater() }

// timedSink times every event the trace writer encodes.
type timedSink struct {
	w    obs.EventSink
	busy time.Duration
}

func (s *timedSink) WriteEvent(ev obs.Event) error {
	start := time.Now()
	err := s.w.WriteEvent(ev)
	s.busy += time.Since(start)
	return err
}

// byteCounter is io.Discard that counts what it discards.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// runRep runs one repetition of s.
func runRep(s spec, rc repConfig) (*rep, error) {
	topo, err := topology.New(topology.Scaled(s.racks, s.hpr))
	if err != nil {
		return nil, err
	}
	if s.engine == decomposed {
		return runDecomposed(s, rc, topo)
	}
	c, err := buildCentralized(s, rc, topo)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := c.sim.Run()
	c.r.runS = time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	if c.ew != nil {
		if err := c.ew.Flush(); err != nil {
			return nil, fmt.Errorf("trace flush: %w", err)
		}
		if err := c.o.SinkErr(); err != nil {
			return nil, fmt.Errorf("trace sink: %w", err)
		}
		c.r.traceEvents, c.r.traceBytes = c.ew.Events(), int64(*c.out)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.r.memRun = deltaOf(&c.msSetup, &ms)
	c.r.heapLive = liveHeap()
	c.r.finish(res)
	runtime.KeepAlive(c.sim)
	return c.r, nil
}

func (r *rep) finish(res *fabricsim.Result) {
	r.res = res
	r.digest = res.DeterministicDigest()
	r.decisions = res.Decisions
}

// centralizedRun is a built, not yet run, centralized repetition.
type centralizedRun struct {
	r       *rep
	sim     *fabricsim.Sim
	o       *obs.Obs
	ew      *trace.EventWriter
	out     *byteCounter
	msSetup runtime.MemStats
}

// buildCentralized times the layer constructors exactly as RunShard's
// one-shard path calls them, so the run's digest matches
// RunShard{Shards: 1} for the same configuration.
func buildCentralized(s spec, rc repConfig, topo *topology.Topology) (*centralizedRun, error) {
	c := &centralizedRun{r: &rep{}}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	scheduler, err := sched.New(s.sched, sched.Options{Seed: rc.seed})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	mixed, err := workload.NewMixed(workload.MixedConfig{
		Topology:          topo,
		Load:              s.load,
		QueryByteFraction: workload.DefaultQueryByteFraction,
		Duration:          s.duration,
		Seed:              rc.seed,
	})
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	var gen workload.Generator = mixed
	if rc.probe {
		c.r.gen = &timedGen{g: mixed}
		gen = c.r.gen
	}
	if s.traced && !rc.noObs {
		c.out = new(byteCounter)
		c.ew, err = trace.NewEventWriter(c.out, trace.TraceHeader{
			Seed: int64(rc.seed), Scheduler: s.sched, Hosts: topo.NumHosts(),
			Load: s.load, DurationSec: s.duration,
		})
		if err != nil {
			return nil, err
		}
		var sink obs.EventSink = c.ew
		if rc.probe {
			c.r.sink = &timedSink{w: c.ew}
			sink = c.r.sink
		}
		c.o = obs.New(obs.Options{Sink: sink})
	}
	c.sim, err = fabricsim.New(fabricsim.Config{
		Hosts:            topo.NumHosts(),
		LinkBps:          topo.HostLinkBps(),
		Scheduler:        scheduler,
		Generator:        gen,
		Duration:         s.duration,
		SampleInterval:   s.duration / 500,
		ThroughputBucket: s.duration / 50,
		Seed:             rc.seed,
		Obs:              c.o,
	})
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	c.r.setupS = t3.Sub(t0).Seconds()
	c.r.setupSchedS = t1.Sub(t0).Seconds()
	c.r.setupWorkloadS = t2.Sub(t1).Seconds()
	c.r.setupSimS = t3.Sub(t2).Seconds()
	runtime.ReadMemStats(&c.msSetup)
	c.r.memSetup = deltaOf(&ms0, &c.msSetup)
	return c, nil
}

// setupOnly times one centralized construction without running it: the
// extra setup_s samples for workloads whose repetitions are too few.
func setupOnly(s spec, seed uint64) (float64, error) {
	topo, err := topology.New(topology.Scaled(s.racks, s.hpr))
	if err != nil {
		return 0, err
	}
	c, err := buildCentralized(s, repConfig{seed: seed}, topo)
	if err != nil {
		return 0, err
	}
	return c.r.setupS, nil
}

// runDecomposed runs s on the decomposed engine. RunShard builds its
// cells internally, so setup is the time to the first OnWindow
// heartbeat, which also covers the first barrier's windows. The live
// heap is measured at the last heartbeat, while the cells still exist;
// that collection's time is taken out of the run time.
func runDecomposed(s spec, rc repConfig, topo *topology.Topology) (*rep, error) {
	r := &rep{}
	workers := rc.workers
	if workers == 0 {
		workers = decomposedWorkers
	}
	if rc.probe {
		r.timeline = obs.NewTimeline()
	}
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var setupEnd time.Time
	var heapS time.Duration
	res, err := fabricsim.RunShard(fabricsim.ShardConfig{
		Topology:  topo,
		Scheduler: s.sched,
		Load:      s.load,
		Duration:  s.duration,
		Seed:      rc.seed,
		Shards:    decomposedShards,
		Workers:   workers,
		Timeline:  r.timeline,
		OnWindow: func(p fabricsim.ShardProgress) {
			if setupEnd.IsZero() {
				setupEnd = time.Now()
				runtime.ReadMemStats(&ms1)
			}
			if p.SimTime >= p.Duration {
				runtime.ReadMemStats(&ms2)
				t := time.Now()
				r.heapLive = liveHeap()
				heapS = time.Since(t)
			}
		},
	})
	end := time.Now()
	if err != nil {
		return nil, err
	}
	r.setupS = setupEnd.Sub(start).Seconds()
	r.runS = (end.Sub(setupEnd) - heapS).Seconds()
	r.memSetup = deltaOf(&ms0, &ms1)
	r.memRun = deltaOf(&ms1, &ms2)
	r.finish(res)
	return r, nil
}
