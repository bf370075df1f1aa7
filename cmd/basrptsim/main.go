// Command basrptsim runs one flow-level fabric simulation with a chosen
// scheduler and workload and prints the resulting metrics:
//
//	basrptsim -scheduler fast-basrpt -v 2500 -load 0.95 -racks 4 -hosts 6 -duration 5
//	basrptsim -scheduler srpt -load 0.6 -json
//	basrptsim -scheduler srpt -load 0.8 -faults -faultseed 7   # inject link faults + a scheduler outage
//	basrptsim -scheduler srpt -load 0.95 -series /tmp/srpt      # also write /tmp/srpt_{queue,maxport,total_backlog,throughput}.csv
//	basrptsim -shards 4 -racks 344 -hosts 12 -duration 0.002 -timeline tl.json -ops 127.0.0.1:9090
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"basrpt"
	"basrpt/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "basrptsim:", err)
		os.Exit(1)
	}
}

// summary is the JSON export shape.
type summary struct {
	Scheduler      string  `json:"scheduler"`
	Hosts          int     `json:"hosts"`
	Load           float64 `json:"load"`
	DurationSec    float64 `json:"durationSec"`
	ArrivedFlows   int     `json:"arrivedFlows"`
	CompletedFlows int     `json:"completedFlows"`
	ThroughputGbps float64 `json:"throughputGbps"`
	LeftoverBytes  float64 `json:"leftoverBytes"`
	QueryAvgMs     float64 `json:"queryAvgMs"`
	QueryP99Ms     float64 `json:"queryP99Ms"`
	BgAvgMs        float64 `json:"backgroundAvgMs"`
	BgP99Ms        float64 `json:"backgroundP99Ms"`
	QueueVerdict   string  `json:"queueVerdict"`
	// Digest fingerprints every machine-independent result field: equal
	// digests mean equal runs, including checkpoint-resumed ones.
	Digest string `json:"digest"`

	Faults    *basrpt.FaultCounters   `json:"faults,omitempty"`
	Diagnosis *basrpt.FabricDiagnosis `json:"diagnosis,omitempty"`
	// Sharded-engine extras: the engine family that ran and the
	// wall-clock imbalance report (decomposed runs only; never part of
	// the digest).
	Shards    int                    `json:"shards,omitempty"`
	Imbalance *basrpt.ShardImbalance `json:"imbalance,omitempty"`
}

// writeFileAtomic replaces path via a temp file + rename, so a checkpoint
// reader never observes a half-written file even if the writer dies.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// options holds the parsed command line.
type options struct {
	scheduler       string
	v, threshold    float64
	load            float64
	racks, hosts    int
	duration        float64
	seed            uint64
	queryFrac       float64
	pattern         string
	fanout          int
	jobRate         float64
	faults          bool
	faultSeed       uint64
	json            bool
	series          string
	trace           string
	traceWall       bool
	checkpoint      string
	checkpointEvery float64
	haltAfter       bool
	resume          string
	window          float64
	shards          int
	workers         int
	timeline        string
	ops             string
}

// parseFlags parses the command line and rejects combinations no engine
// runs: each engine refuses the flags only the other one reads.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("basrptsim", flag.ContinueOnError)
	fs.StringVar(&o.scheduler, "scheduler", "fast-basrpt", fmt.Sprintf("scheduling discipline %v", basrpt.SchedulerNames()))
	fs.Float64Var(&o.v, "v", basrpt.DefaultV, "BASRPT tradeoff weight V")
	fs.Float64Var(&o.threshold, "threshold", 5e6, "threshold scheduler backlog threshold (bytes)")
	fs.Float64Var(&o.load, "load", 0.8, "per-port offered load in (0, 1)")
	fs.IntVar(&o.racks, "racks", 4, "number of racks")
	fs.IntVar(&o.hosts, "hosts", 6, "hosts per rack")
	fs.Float64Var(&o.duration, "duration", 4, "simulated seconds")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed")
	fs.Float64Var(&o.queryFrac, "queryfrac", basrpt.DefaultQueryByteFraction, "fraction of offered bytes carried by 20KB queries")
	fs.StringVar(&o.pattern, "workload", "mixed", "traffic pattern: mixed (paper Section V-A) or incast (partition/aggregate)")
	fs.IntVar(&o.fanout, "fanout", 8, "incast: backends per job")
	fs.Float64Var(&o.jobRate, "jobs", 500, "incast: partition/aggregate jobs per second")
	fs.BoolVar(&o.faults, "faults", false, "inject a deterministic fault schedule (link faults + a scheduler outage)")
	fs.Uint64Var(&o.faultSeed, "faultseed", 1, "seed of the injected fault schedule (nonzero)")
	fs.BoolVar(&o.json, "json", false, "emit a JSON summary instead of text")
	fs.StringVar(&o.series, "series", "", "also write the run's time series as PREFIX_{queue,maxport,total_backlog,throughput}.csv (centralized engine only)")
	fs.StringVar(&o.trace, "trace", "", "write a schema-versioned JSONL event trace to this file (byte-identical across fixed-seed runs)")
	fs.BoolVar(&o.traceWall, "tracewall", false, "stamp wall-clock nanos into trace events (breaks byte-identity across runs)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "persist periodic checkpoints to this file (atomic replace; also receives the watchdog's truncation checkpoint)")
	fs.Float64Var(&o.checkpointEvery, "checkpointevery", 0, "simulated seconds between checkpoints (default duration/4 when -checkpoint is set)")
	fs.BoolVar(&o.haltAfter, "halt-after-checkpoint", false, "stop cleanly right after the first persisted checkpoint (resume later with -resume)")
	fs.StringVar(&o.resume, "resume", "", "resume from this checkpoint file instead of starting at t=0 (flags must match the original run)")
	fs.Float64Var(&o.window, "window", 0, "streaming-results window in simulated seconds: emit window.* trace events and bound the in-memory FCT samples to a per-class tail")
	fs.IntVar(&o.shards, "shards", 0, "fabric engine: 0 = centralized (default), >= 2 = rack-decomposed parallel cells (mixed workload only)")
	fs.IntVar(&o.workers, "workers", 0, "with -shards >= 2: spans of cells each batch forks, one goroutine each (0 = GOMAXPROCS, capped at -shards; wall-clock only)")
	fs.StringVar(&o.timeline, "timeline", "", "with -shards >= 2: write a Chrome trace_event timeline of cell/coordinator wall-clock execution to this file (open in chrome://tracing or Perfetto)")
	fs.StringVar(&o.ops, "ops", "", "serve a live ops endpoint on this address while the run executes: Prometheus /metrics, /progress JSON, /debug/pprof")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.shards == 1 || o.shards < 0 {
		return nil, fmt.Errorf("-shards %d: use 0 (the default, centralized engine) or >= 2 (rack-decomposed engine)", o.shards)
	}
	type flagUse struct {
		name string
		set  bool
	}
	if o.shards >= 2 {
		for _, f := range []flagUse{
			{"-faults", o.faults},
			{"-checkpoint", o.checkpoint != ""},
			{"-halt-after-checkpoint", o.haltAfter},
			{"-resume", o.resume != ""},
			{"-window", o.window != 0},
			{"-series", o.series != ""},
		} {
			if f.set {
				return nil, fmt.Errorf("%s is not supported with -shards (the decomposed engine runs the mixed workload end to end)", f.name)
			}
		}
		if o.pattern != "mixed" {
			return nil, fmt.Errorf("-shards supports only -workload mixed")
		}
		return o, nil
	}
	for _, f := range []flagUse{{"-workers", o.workers != 0}, {"-timeline", o.timeline != ""}} {
		if f.set {
			return nil, fmt.Errorf("%s requires the decomposed engine (-shards >= 2)", f.name)
		}
	}
	if o.haltAfter && o.checkpoint == "" {
		return nil, fmt.Errorf("-halt-after-checkpoint requires -checkpoint")
	}
	if o.checkpointEvery < 0 {
		return nil, fmt.Errorf("-checkpointevery %g: want a positive interval, or 0 for duration/4", o.checkpointEvery)
	}
	return o, nil
}

// run is the one run path: set up the trace, timeline and ops endpoint,
// run the engine the flags select, then report the result.
func run(args []string, w io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	topo, err := basrpt.NewTopology(basrpt.ScaledTopology(o.racks, o.hosts))
	if err != nil {
		return err
	}
	if err := topo.ValidateNonBlocking(); err != nil {
		return err
	}
	schedOpts := basrpt.SchedulerOptions{V: o.v, Threshold: o.threshold, Seed: o.seed}
	scheduler, err := basrpt.NewScheduler(o.scheduler, schedOpts)
	if err != nil {
		return err
	}
	var opsSrv *basrpt.OpsServer
	if o.ops != "" {
		opsSrv, err = basrpt.NewOpsServer(o.ops)
		if err != nil {
			return fmt.Errorf("start ops endpoint: %w", err)
		}
		defer opsSrv.Close()
		fmt.Fprintf(w, "[ops endpoint listening on %s]\n", opsSrv.URL())
	}
	var traceFile *os.File
	var traceWriter *basrpt.TraceWriter
	var tracer *basrpt.Obs
	if o.trace != "" {
		traceFile, err = os.Create(o.trace)
		if err != nil {
			return fmt.Errorf("create trace: %w", err)
		}
		defer traceFile.Close()
		if o.resume != "" {
			// A resumed run's trace has no header: concatenating the
			// original (pre-halt) trace with this continuation yields one
			// valid trace, byte-identical to an uninterrupted run's.
			traceWriter = basrpt.NewTraceContinuationWriter(traceFile)
		} else {
			traceWriter, err = basrpt.NewTraceWriter(traceFile, basrpt.TraceHeader{
				Seed:        int64(o.seed),
				Scheduler:   o.scheduler,
				Hosts:       topo.NumHosts(),
				Load:        o.load,
				DurationSec: o.duration,
				WallClock:   o.traceWall,
			})
			if err != nil {
				return fmt.Errorf("start trace: %w", err)
			}
		}
		tracer = basrpt.NewObs(basrpt.ObsOptions{Sink: traceWriter, WallClock: o.traceWall})
	}
	var tl *basrpt.Timeline
	if o.timeline != "" {
		tl = basrpt.NewTimeline()
	}

	var res *basrpt.FabricResult
	if o.shards >= 2 {
		res, err = decomposedRun(o, topo, schedOpts, tracer, tl, opsSrv)
	} else {
		res, err = centralizedRun(o, topo, scheduler, tracer, opsSrv)
	}
	if err != nil {
		return err
	}

	if opsSrv != nil {
		opsSrv.PublishSnapshot(res.Obs)
	}
	if traceWriter != nil {
		if err := traceWriter.Flush(); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		if err := traceFile.Close(); err != nil {
			return fmt.Errorf("close trace: %w", err)
		}
	}
	if tl != nil {
		f, err := os.Create(o.timeline)
		if err != nil {
			return fmt.Errorf("create timeline: %w", err)
		}
		if err := tl.WriteChromeTrace(f); err != nil {
			f.Close()
			return fmt.Errorf("write timeline: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close timeline: %w", err)
		}
	}
	if o.series != "" {
		if err := writeSeries(o.series, res); err != nil {
			return err
		}
	}

	q := res.FCT.Stats(basrpt.ClassQuery)
	bg := res.FCT.Stats(basrpt.ClassBackground)
	out := summary{
		Scheduler:      res.SchedulerName,
		Hosts:          topo.NumHosts(),
		Load:           o.load,
		DurationSec:    o.duration,
		ArrivedFlows:   res.ArrivedFlows,
		CompletedFlows: res.CompletedFlows,
		ThroughputGbps: res.AverageGbps(),
		LeftoverBytes:  res.LeftoverBytes,
		QueryAvgMs:     q.MeanMs,
		QueryP99Ms:     q.P99Ms,
		BgAvgMs:        bg.MeanMs,
		BgP99Ms:        bg.P99Ms,
		QueueVerdict:   res.MaxPortSeries.Trend(basrpt.GrowthThreshold).Verdict.String(),
		Digest:         res.DeterministicDigest(),
		Diagnosis:      res.Diagnosis,
		Shards:         o.shards,
		Imbalance:      res.Imbalance,
	}
	if res.Faults.Any() {
		out.Faults = &res.Faults
	}
	// A watchdog truncation carries a resumable checkpoint; persist it so
	// the degraded run can be continued with -resume after relaxing the
	// bound that tripped.
	if d := res.Diagnosis; d != nil && len(d.Checkpoint) > 0 && o.checkpoint != "" {
		if err := writeFileAtomic(o.checkpoint, d.Checkpoint); err != nil {
			return fmt.Errorf("persist truncation checkpoint: %w", err)
		}
	}
	if o.json {
		return trace.WriteJSON(w, out)
	}

	title := fmt.Sprintf("%s on %d hosts at %.0f%% load for %gs", out.Scheduler, out.Hosts, out.Load*100, out.DurationSec)
	if out.Shards > 0 {
		title += fmt.Sprintf(" (%d shards)", out.Shards)
	}
	tbl := trace.Table{Title: title, Headers: []string{"metric", "value"}}
	tbl.AddRow("flows arrived/completed", fmt.Sprintf("%d / %d", out.ArrivedFlows, out.CompletedFlows))
	tbl.AddRow("throughput", trace.Gbps(out.ThroughputGbps)+" Gbps")
	tbl.AddRow("leftover backlog", trace.Bytes(out.LeftoverBytes))
	tbl.AddRow("query FCT avg / 99th", trace.Ms(out.QueryAvgMs)+" / "+trace.Ms(out.QueryP99Ms)+" ms")
	tbl.AddRow("background FCT avg / 99th", trace.Ms(out.BgAvgMs)+" / "+trace.Ms(out.BgP99Ms)+" ms")
	tbl.AddRow("queue trend", out.QueueVerdict)
	if c := out.Faults; c != nil {
		tbl.AddRow("link faults seen", fmt.Sprintf("%d started / %d ended", c.LinkFaultStarts, c.LinkFaultEnds))
		tbl.AddRow("scheduler outages", fmt.Sprintf("%d (held %d decisions)", c.OutageStarts, c.DecisionsHeld))
	}
	if d := out.Diagnosis; d != nil {
		tbl.AddRow("watchdog", d.String())
	}
	if traceWriter != nil {
		tbl.AddRow("trace", fmt.Sprintf("%d events -> %s", traceWriter.Events(), o.trace))
	}
	if tl != nil {
		tbl.AddRow("timeline", fmt.Sprintf("%d spans -> %s (open in chrome://tracing)", tl.Len(), o.timeline))
	}
	if o.series != "" {
		tbl.AddRow("series", o.series+"_{queue,maxport,total_backlog,throughput}.csv")
	}
	if d := out.Diagnosis; d != nil && len(d.Checkpoint) > 0 && o.checkpoint != "" {
		tbl.AddRow("checkpoint", fmt.Sprintf("%d bytes -> %s (resume with -resume %s)", len(d.Checkpoint), o.checkpoint, o.checkpoint))
	}
	tbl.AddRow("digest", out.Digest)
	fmt.Fprint(w, tbl.Render())
	fmt.Fprintln(w)
	if im := res.Imbalance; im != nil {
		fmt.Fprintln(w, im.String())
	}
	fmt.Fprint(w, trace.Chart("max-port backlog (bytes)", &res.MaxPortSeries, 60, 8))
	return nil
}

// centralizedRun builds and runs the centralized engine (New or Resume,
// then Run) with the workload, checkpoints, faults and ops heartbeat the
// flags ask for.
func centralizedRun(o *options, topo *basrpt.Topology, scheduler basrpt.Scheduler, tracer *basrpt.Obs, opsSrv *basrpt.OpsServer) (*basrpt.FabricResult, error) {
	var gen basrpt.Generator
	var err error
	switch o.pattern {
	case "mixed":
		gen, err = basrpt.NewMixedWorkload(basrpt.MixedConfig{
			Topology:          topo,
			Load:              o.load,
			QueryByteFraction: o.queryFrac,
			Duration:          o.duration,
			Seed:              o.seed,
		})
	case "incast":
		gen, err = basrpt.NewIncastWorkload(basrpt.IncastConfig{
			Topology:       topo,
			JobsPerSecond:  o.jobRate,
			Fanout:         o.fanout,
			BackgroundLoad: o.load,
			Duration:       o.duration,
			Seed:           o.seed,
		})
	default:
		return nil, fmt.Errorf("unknown workload %q (mixed|incast)", o.pattern)
	}
	if err != nil {
		return nil, err
	}
	cfg := basrpt.FabricConfig{
		Hosts:        topo.NumHosts(),
		LinkBps:      topo.HostLinkBps(),
		Scheduler:    scheduler,
		Generator:    gen,
		Duration:     o.duration,
		Seed:         o.seed,
		StreamWindow: o.window,
		Obs:          tracer,
	}
	if opsSrv != nil {
		cfg.OnProgress = opsSrv.PublishRun
	}
	if o.checkpoint != "" {
		every := o.checkpointEvery
		if every <= 0 {
			every = o.duration / 4
		}
		cfg.CheckpointEvery = every
		cfg.CheckpointSink = func(data []byte, simTime float64) error {
			if err := writeFileAtomic(o.checkpoint, data); err != nil {
				return err
			}
			if o.haltAfter {
				return basrpt.ErrStopAfterCheckpoint
			}
			return nil
		}
	}
	if o.faults {
		schedule, err := basrpt.GenerateFaults(basrpt.FaultParams{
			Seed:       o.faultSeed,
			Horizon:    o.duration,
			Ports:      topo.NumHosts(),
			LinkFaults: 3,
			Outages:    1,
		})
		if err != nil {
			return nil, err
		}
		cfg.Faults = basrpt.NewFaultInjector(schedule)
	}
	var sim *basrpt.FabricSim
	if o.resume != "" {
		data, err := os.ReadFile(o.resume)
		if err != nil {
			return nil, fmt.Errorf("read checkpoint: %w", err)
		}
		sim, err = basrpt.ResumeFabricSim(cfg, data)
		if err != nil {
			return nil, err
		}
	} else {
		sim, err = basrpt.NewFabricSim(cfg)
		if err != nil {
			return nil, err
		}
	}
	return sim.Run()
}

// decomposedRun runs the rack-decomposed engine, feeding the ops endpoint
// from its per-barrier heartbeat.
func decomposedRun(o *options, topo *basrpt.Topology, schedOpts basrpt.SchedulerOptions, tracer *basrpt.Obs, tl *basrpt.Timeline, opsSrv *basrpt.OpsServer) (*basrpt.FabricResult, error) {
	cfg := basrpt.ShardConfig{
		Topology:          topo,
		Scheduler:         o.scheduler,
		SchedOpts:         schedOpts,
		Load:              o.load,
		QueryByteFraction: o.queryFrac,
		Duration:          o.duration,
		Seed:              o.seed,
		Shards:            o.shards,
		Workers:           o.workers,
		Obs:               tracer,
		Timeline:          tl,
	}
	if opsSrv != nil {
		cfg.OnWindow = func(p basrpt.ShardProgress) {
			opsSrv.PublishRun(p.RunProgress)
			opsSrv.PublishShard(p.Imbalance)
		}
	}
	return basrpt.RunShardedFabric(cfg)
}

// writeSeries writes the run's time series as PREFIX_<name>.csv, one
// (time, value) file each: the monitored port's backlog, the max-port
// backlog behind the Figure 2/5(b) queue charts, the fabric's total
// backlog, and the global throughput.
func writeSeries(prefix string, res *basrpt.FabricResult) error {
	tput := res.Throughput.SeriesGbps()
	for _, e := range []struct {
		name, header string
		series       *basrpt.Series
	}{
		{"queue", "monitored_port_backlog_bytes", &res.QueueSeries},
		{"maxport", "maxport_backlog_bytes", &res.MaxPortSeries},
		{"total_backlog", "total_backlog_bytes", &res.TotalBacklogSeries},
		{"throughput", "throughput_gbps", &tput},
	} {
		path := prefix + "_" + e.name + ".csv"
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("series: %w", err)
		}
		writeErr := trace.WriteSeriesCSV(f, e.header, e.series)
		if err := f.Close(); writeErr == nil {
			writeErr = err
		}
		if writeErr != nil {
			return fmt.Errorf("series: write %s: %w", path, writeErr)
		}
	}
	return nil
}
