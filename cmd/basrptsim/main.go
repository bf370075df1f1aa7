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

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("basrptsim", flag.ContinueOnError)
	var (
		schedName = fs.String("scheduler", "fast-basrpt", fmt.Sprintf("scheduling discipline %v", basrpt.SchedulerNames()))
		v         = fs.Float64("v", basrpt.DefaultV, "BASRPT tradeoff weight V")
		threshold = fs.Float64("threshold", 5e6, "threshold scheduler backlog threshold (bytes)")
		load      = fs.Float64("load", 0.8, "per-port offered load in (0, 1)")
		racks     = fs.Int("racks", 4, "number of racks")
		hosts     = fs.Int("hosts", 6, "hosts per rack")
		duration  = fs.Float64("duration", 4, "simulated seconds")
		seed      = fs.Uint64("seed", 1, "random seed")
		queryFrac = fs.Float64("queryfrac", basrpt.DefaultQueryByteFraction, "fraction of offered bytes carried by 20KB queries")
		pattern   = fs.String("workload", "mixed", "traffic pattern: mixed (paper Section V-A) or incast (partition/aggregate)")
		fanout    = fs.Int("fanout", 8, "incast: backends per job")
		jobRate   = fs.Float64("jobs", 500, "incast: partition/aggregate jobs per second")
		inject    = fs.Bool("faults", false, "inject a deterministic fault schedule (link faults + a scheduler outage)")
		faultSeed = fs.Uint64("faultseed", 1, "seed of the injected fault schedule")
		jsonOut   = fs.Bool("json", false, "emit a JSON summary instead of text")
		series    = fs.String("series", "", "also write the run's time series as PREFIX_{queue,maxport,total_backlog,throughput}.csv (centralized engine only)")
		tracePath = fs.String("trace", "", "write a schema-versioned JSONL event trace to this file (byte-identical across fixed-seed runs)")
		traceWall = fs.Bool("tracewall", false, "stamp wall-clock nanos into trace events (breaks byte-identity across runs)")
		ckptPath  = fs.String("checkpoint", "", "persist periodic checkpoints to this file (atomic replace; also receives the watchdog's truncation checkpoint)")
		ckptEvery = fs.Float64("checkpointevery", 0, "simulated seconds between checkpoints (default duration/4 when -checkpoint is set)")
		haltAfter = fs.Bool("halt-after-checkpoint", false, "stop cleanly right after the first persisted checkpoint (resume later with -resume)")
		resumeIn  = fs.String("resume", "", "resume from this checkpoint file instead of starting at t=0 (flags must match the original run)")
		window    = fs.Float64("window", 0, "streaming-results window in simulated seconds: emit window.* trace events and bound in-memory series/FCT reservoirs")
		shards    = fs.Int("shards", 0, "fabric engine: 0 = centralized (default), >= 2 = rack-decomposed parallel cells (mixed workload only)")
		barrier   = fs.Int("barrier-every", 0, "with -shards >= 2: lookahead windows per coordinator barrier (0 = engine default; results are byte-identical at every value)")
		workers   = fs.Int("workers", 0, "with -shards >= 2: persistent worker goroutines executing the cells (0 = GOMAXPROCS; wall-clock only)")
		timeline  = fs.String("timeline", "", "with -shards >= 2: write a Chrome trace_event timeline of cell/coordinator wall-clock execution to this file (open in chrome://tracing or Perfetto)")
		opsAddr   = fs.String("ops", "", "serve a live ops endpoint on this address while the run executes: Prometheus /metrics, /progress JSON, /debug/pprof")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards == 1 || *shards < 0 {
		return fmt.Errorf("-shards %d: use 0 (the default, centralized engine) or >= 2 (rack-decomposed engine)", *shards)
	}

	topo, err := basrpt.NewTopology(basrpt.ScaledTopology(*racks, *hosts))
	if err != nil {
		return err
	}
	if err := topo.ValidateNonBlocking(); err != nil {
		return err
	}
	schedOpts := basrpt.SchedulerOptions{V: *v, Threshold: *threshold, Seed: *seed}
	scheduler, err := basrpt.NewScheduler(*schedName, schedOpts)
	if err != nil {
		return err
	}
	if *timeline != "" && *shards < 2 {
		return fmt.Errorf("-timeline requires the decomposed engine (-shards >= 2)")
	}
	if *shards >= 2 {
		for flagName, set := range map[string]bool{
			"-faults":     *inject,
			"-checkpoint": *ckptPath != "",
			"-resume":     *resumeIn != "",
			"-window":     *window != 0,
			"-series":     *series != "",
		} {
			if set {
				return fmt.Errorf("%s is not supported with -shards (the decomposed engine runs the mixed workload end to end)", flagName)
			}
		}
		if *pattern != "mixed" {
			return fmt.Errorf("-shards supports only -workload mixed")
		}
	}
	var opsSrv *basrpt.OpsServer
	if *opsAddr != "" {
		opsSrv, err = basrpt.NewOpsServer(*opsAddr)
		if err != nil {
			return fmt.Errorf("start ops endpoint: %w", err)
		}
		defer opsSrv.Close()
		fmt.Fprintf(w, "[ops endpoint listening on %s]\n", opsSrv.URL())
	}
	if *shards >= 2 {
		return runSharded(w, topo, schedOpts, opsSrv, shardedOptions{
			schedName: *schedName, load: *load, queryFrac: *queryFrac,
			duration: *duration, seed: *seed, shards: *shards,
			barrierEvery: *barrier, workers: *workers,
			timelinePath: *timeline, tracePath: *tracePath,
			traceWall: *traceWall, jsonOut: *jsonOut,
		})
	}
	var gen basrpt.Generator
	switch *pattern {
	case "mixed":
		gen, err = basrpt.NewMixedWorkload(basrpt.MixedConfig{
			Topology:          topo,
			Load:              *load,
			QueryByteFraction: *queryFrac,
			Duration:          *duration,
			Seed:              *seed,
		})
	case "incast":
		gen, err = basrpt.NewIncastWorkload(basrpt.IncastConfig{
			Topology:       topo,
			JobsPerSecond:  *jobRate,
			Fanout:         *fanout,
			BackgroundLoad: *load,
			Duration:       *duration,
			Seed:           *seed,
		})
	default:
		return fmt.Errorf("unknown workload %q (mixed|incast)", *pattern)
	}
	if err != nil {
		return err
	}
	cfg := basrpt.FabricConfig{
		Hosts:        topo.NumHosts(),
		LinkBps:      topo.HostLinkBps(),
		Scheduler:    scheduler,
		Generator:    gen,
		Duration:     *duration,
		Seed:         *seed,
		StreamWindow: *window,
	}
	if opsSrv != nil {
		cfg.OnProgress = func(p basrpt.RunProgress) {
			opsSrv.PublishRun(basrpt.OpsRunState{
				SimTimeS: p.SimTime, DurationS: p.Duration, Windows: p.Windows,
				Decisions: p.Decisions, ArrivedFlows: p.ArrivedFlows, CompletedFlows: p.CompletedFlows,
			})
		}
	}
	if *ckptPath != "" {
		every := *ckptEvery
		if every <= 0 {
			every = *duration / 4
		}
		cfg.CheckpointEvery = every
		cfg.CheckpointSink = func(data []byte, simTime float64) error {
			if err := writeFileAtomic(*ckptPath, data); err != nil {
				return err
			}
			if *haltAfter {
				return basrpt.ErrStopAfterCheckpoint
			}
			return nil
		}
	} else if *haltAfter {
		return fmt.Errorf("-halt-after-checkpoint requires -checkpoint")
	}
	if *inject {
		schedule, err := basrpt.GenerateFaults(basrpt.FaultParams{
			Seed:       *faultSeed,
			Horizon:    *duration,
			Ports:      topo.NumHosts(),
			LinkFaults: 3,
			Outages:    1,
		})
		if err != nil {
			return err
		}
		cfg.Faults = basrpt.NewFaultInjector(schedule)
	}
	var traceFile *os.File
	var traceWriter *basrpt.TraceWriter
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("create trace: %w", err)
		}
		defer traceFile.Close()
		if *resumeIn != "" {
			// A resumed run's trace has no header: concatenating the
			// original (pre-halt) trace with this continuation yields one
			// valid trace, byte-identical to an uninterrupted run's.
			traceWriter = basrpt.NewTraceContinuationWriter(traceFile)
		} else {
			traceWriter, err = basrpt.NewTraceWriter(traceFile, basrpt.TraceHeader{
				Seed:        int64(*seed),
				Scheduler:   *schedName,
				Hosts:       topo.NumHosts(),
				Load:        *load,
				DurationSec: *duration,
				WallClock:   *traceWall,
			})
			if err != nil {
				return fmt.Errorf("start trace: %w", err)
			}
		}
		cfg.Obs = basrpt.NewObs(basrpt.ObsOptions{Sink: traceWriter, WallClock: *traceWall})
	}
	var sim *basrpt.FabricSim
	if *resumeIn != "" {
		data, err := os.ReadFile(*resumeIn)
		if err != nil {
			return fmt.Errorf("read checkpoint: %w", err)
		}
		sim, err = basrpt.ResumeFabricSim(cfg, data)
		if err != nil {
			return err
		}
	} else {
		sim, err = basrpt.NewFabricSim(cfg)
		if err != nil {
			return err
		}
	}
	res, err := sim.Run()
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
	if *series != "" {
		if err := writeSeries(*series, res); err != nil {
			return err
		}
	}

	q := res.FCT.Stats(basrpt.ClassQuery)
	bg := res.FCT.Stats(basrpt.ClassBackground)
	out := summary{
		Scheduler:      res.SchedulerName,
		Hosts:          topo.NumHosts(),
		Load:           *load,
		DurationSec:    *duration,
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
	}
	if res.Faults.Any() {
		out.Faults = &res.Faults
	}
	out.Diagnosis = res.Diagnosis
	// A watchdog truncation carries a resumable checkpoint; persist it so
	// the degraded run can be continued with -resume after relaxing the
	// bound that tripped.
	if d := res.Diagnosis; d != nil && len(d.Checkpoint) > 0 && *ckptPath != "" {
		if err := writeFileAtomic(*ckptPath, d.Checkpoint); err != nil {
			return fmt.Errorf("persist truncation checkpoint: %w", err)
		}
	}
	if *jsonOut {
		return trace.WriteJSON(w, out)
	}

	tbl := trace.Table{
		Title:   fmt.Sprintf("%s on %d hosts at %.0f%% load for %gs", out.Scheduler, out.Hosts, out.Load*100, out.DurationSec),
		Headers: []string{"metric", "value"},
	}
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
		tbl.AddRow("trace", fmt.Sprintf("%d events -> %s", traceWriter.Events(), *tracePath))
	}
	if *series != "" {
		tbl.AddRow("series", *series+"_{queue,maxport,total_backlog,throughput}.csv")
	}
	if d := out.Diagnosis; d != nil && len(d.Checkpoint) > 0 && *ckptPath != "" {
		tbl.AddRow("checkpoint", fmt.Sprintf("%d bytes -> %s (resume with -resume %s)", len(d.Checkpoint), *ckptPath, *ckptPath))
	}
	tbl.AddRow("digest", out.Digest)
	fmt.Fprint(w, tbl.Render())
	fmt.Fprintln(w)
	fmt.Fprint(w, trace.Chart("max-port backlog (bytes)", &res.MaxPortSeries, 60, 8))
	return nil
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

// shardedOptions carries the flag values the sharded path consumes.
type shardedOptions struct {
	schedName    string
	load         float64
	queryFrac    float64
	duration     float64
	seed         uint64
	shards       int
	barrierEvery int
	workers      int
	timelinePath string
	tracePath    string
	traceWall    bool
	jsonOut      bool
}

// runSharded is the -shards path: one run on the rack-decomposed engine,
// with optional JSONL trace, Chrome timeline export, and live ops
// publishing.
func runSharded(w io.Writer, topo *basrpt.Topology, schedOpts basrpt.SchedulerOptions, opsSrv *basrpt.OpsServer, opt shardedOptions) error {
	cfg := basrpt.ShardConfig{
		Topology:          topo,
		Scheduler:         opt.schedName,
		SchedOpts:         schedOpts,
		Load:              opt.load,
		QueryByteFraction: opt.queryFrac,
		Duration:          opt.duration,
		Seed:              opt.seed,
		Shards:            opt.shards,
		BarrierEvery:      opt.barrierEvery,
		Workers:           opt.workers,
	}
	var traceFile *os.File
	var traceWriter *basrpt.TraceWriter
	if opt.tracePath != "" {
		var err error
		traceFile, err = os.Create(opt.tracePath)
		if err != nil {
			return fmt.Errorf("create trace: %w", err)
		}
		defer traceFile.Close()
		traceWriter, err = basrpt.NewTraceWriter(traceFile, basrpt.TraceHeader{
			Seed:        int64(opt.seed),
			Scheduler:   opt.schedName,
			Hosts:       topo.NumHosts(),
			Load:        opt.load,
			DurationSec: opt.duration,
			WallClock:   opt.traceWall,
		})
		if err != nil {
			return fmt.Errorf("start trace: %w", err)
		}
		cfg.Obs = basrpt.NewObs(basrpt.ObsOptions{Sink: traceWriter, WallClock: opt.traceWall})
	}
	var tl *basrpt.Timeline
	if opt.timelinePath != "" {
		tl = basrpt.NewTimeline()
		cfg.Timeline = tl
	}
	if opsSrv != nil {
		cfg.OnWindow = func(p basrpt.ShardProgress) {
			opsSrv.PublishRun(basrpt.OpsRunState{
				SimTimeS: p.SimTime, DurationS: p.Duration, Windows: p.Window + 1,
				Decisions: p.Decisions, ArrivedFlows: p.ArrivedFlows, CompletedFlows: p.CompletedFlows,
			})
			opsSrv.PublishShard(basrpt.OpsShardState{
				Barriers:          p.Barrier + 1,
				WindowsPerBarrier: p.WindowsPerBarrier,
				Cells:             p.Cells,
				Workers:           p.Workers,
				CellBusyNs:        p.CellBusyNs,
				CellWaitNs:        p.CellWaitNs,
			})
		}
	}
	res, err := basrpt.RunShardedFabric(cfg)
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
		f, err := os.Create(opt.timelinePath)
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

	q := res.FCT.Stats(basrpt.ClassQuery)
	bg := res.FCT.Stats(basrpt.ClassBackground)
	out := summary{
		Scheduler:      res.SchedulerName,
		Hosts:          topo.NumHosts(),
		Load:           opt.load,
		DurationSec:    opt.duration,
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
		Shards:         opt.shards,
		Imbalance:      res.Imbalance,
	}
	if opt.jsonOut {
		return trace.WriteJSON(w, out)
	}

	tbl := trace.Table{
		Title:   fmt.Sprintf("%s on %d hosts at %.0f%% load for %gs (%d shards)", out.Scheduler, out.Hosts, out.Load*100, out.DurationSec, out.Shards),
		Headers: []string{"metric", "value"},
	}
	tbl.AddRow("flows arrived/completed", fmt.Sprintf("%d / %d", out.ArrivedFlows, out.CompletedFlows))
	tbl.AddRow("throughput", trace.Gbps(out.ThroughputGbps)+" Gbps")
	tbl.AddRow("leftover backlog", trace.Bytes(out.LeftoverBytes))
	tbl.AddRow("query FCT avg / 99th", trace.Ms(out.QueryAvgMs)+" / "+trace.Ms(out.QueryP99Ms)+" ms")
	tbl.AddRow("background FCT avg / 99th", trace.Ms(out.BgAvgMs)+" / "+trace.Ms(out.BgP99Ms)+" ms")
	tbl.AddRow("queue trend", out.QueueVerdict)
	if traceWriter != nil {
		tbl.AddRow("trace", fmt.Sprintf("%d events -> %s", traceWriter.Events(), opt.tracePath))
	}
	if tl != nil {
		tbl.AddRow("timeline", fmt.Sprintf("%d spans -> %s (open in chrome://tracing)", tl.Len(), opt.timelinePath))
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
