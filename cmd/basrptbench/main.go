// Command basrptbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index):
//
//	basrptbench -exp all -scale medium
//	basrptbench -exp table1 -scale paper      # full 144-host, 500 s run
//	basrptbench -exp fig6 -v 2500
//	basrptbench -exp table1 -seeds 5 -parallel 4   # 5-seed aggregate with ±ci
//
// Experiments: fig1, fig2, table1, fig5, fig6, fig7, fig8, theory, dtmc,
// ablation, distributed, incast, noise, faults, all — plus the opt-in
// long-horizon "stability" showcase. Pass -csvdir to also export the
// series/rows as CSV.
//
// With -seeds N (N > 1) every experiment runs N independent replicates on
// up to -parallel workers and reports per-metric mean, ±95% confidence
// interval, stddev, min, and max instead of the single-seed tables. The
// aggregates are byte-identical for any -parallel value. Pass -benchjson
// to also time a serial rerun and write a speedup report (the
// benchmark-regression artifact BENCH_runner.json).
//
// With -schedbench PATH the tool skips the experiments and instead times
// the incremental scheduling core against the from-scratch baseline on
// byte-identical runs at 0.8 load, writing decisions/sec and speedup per
// discipline to PATH (the CI artifact BENCH_sched.json).
//
// With -obsbench PATH the tool instead measures the observability layer:
// disabled-path probe overhead against the per-decision scheduling cost
// (budget: 2%) and trace byte-determinism, written to PATH (the CI
// artifact BENCH_obs.json).
//
// With -allocbench PATH the tool instead measures steady-state allocator
// pressure: bytes and allocations per scheduling decision and GC cycles
// per million decisions, pooled default versus the non-pooled baseline on
// byte-identical runs, written to PATH (the CI artifact BENCH_alloc.json).
// Pass -allocbudget FILE to fail the run when allocs/decision exceeds the
// checked-in budget (the CI allocation gate).
//
// With -shardbench PATH the tool instead benchmarks the sharded fabric
// engine: the centralized 1-shard simulator against rack-decomposed arms
// doubling up to -shards, reporting decisions/sec, speedup, parallel
// speedup (widest arm vs 2 shards), and the per-arm barrier/imbalance
// attribution to PATH (the CI artifact BENCH_shard.json). Pass
// -shardbudget FILE to fail the run when the widest arm misses the
// checked-in scaling floor, and -barrier-every K to batch K lookahead
// windows per coordinator barrier in the decomposed arms. Every arm runs
// the full -duration.
//
// Profiling: -cpuprofile/-memprofile write pprof profiles around whatever
// work the other flags select; -pprof ADDR serves net/http/pprof for live
// inspection of long runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"basrpt"
	"basrpt/internal/core"
	"basrpt/internal/runner"
	"basrpt/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "basrptbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("basrptbench", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "all", "experiment id (fig1|fig2|table1|fig5|fig6|fig7|fig8|theory|dtmc|ablation|distributed|incast|noise|faults|all)")
		scaleName = fs.String("scale", "medium", "experiment scale (small|medium|paper)")
		v         = fs.Float64("v", 0, "BASRPT tradeoff weight V (0 = paper default 2500)")
		seed      = fs.Uint64("seed", 1, "random seed")
		duration  = fs.Float64("duration", 0, "override simulated seconds (0 = scale default)")
		racks     = fs.Int("racks", 0, "override rack count (0 = scale default)")
		hosts     = fs.Int("hosts", 0, "override hosts per rack (0 = scale default)")
		csvDir    = fs.String("csvdir", "", "when set, also export each experiment's series/rows as CSV into this directory")
		faultSeed = fs.Uint64("faultseed", 1, "seed of the faults experiment's fault schedule")
		seeds     = fs.Int("seeds", 1, "independent replicates per experiment; > 1 switches to aggregated ±ci output")
		parallel  = fs.Int("parallel", 0, "worker count for multi-seed runs (0 = GOMAXPROCS)")
		benchJSON = fs.String("benchjson", "", "multi-seed only: also rerun serially and write a runs/sec + speedup report to this path")
		schedJSON = fs.String("schedbench", "", "instead of experiments: benchmark the incremental scheduling core against the from-scratch baseline at this scale (load 0.8) and write decisions/sec + speedup to this path")
		obsJSON   = fs.String("obsbench", "", "instead of experiments: measure observability overhead + trace determinism at this scale (load 0.8) and write the report to this path")
		obsBudg   = fs.String("obsbudget", "", "with -obsbench: JSON budget file (max_disabled_overhead_pct, require_deterministic); exceeding it fails the run")
		allocJSON = fs.String("allocbench", "", "instead of experiments: measure steady-state allocations/GC per decision (pooled vs non-pooled byte-identical runs, load 0.8) and write the report to this path")
		allocBudg = fs.String("allocbudget", "", "with -allocbench: JSON budget file (max_allocs_per_decision, max_alloc_bytes_per_decision); exceeding it fails the run")
		shardJSON = fs.String("shardbench", "", "instead of experiments: benchmark the sharded fabric engine across shard counts at this scale (load 0.5) and write decisions/sec + speedup to this path")
		shards    = fs.Int("shards", 4, "with -shardbench: widest shard count (arms double from 2 up to this)")
		shardBudg = fs.String("shardbudget", "", "with -shardbench: JSON budget file (min_speedup_at_max_shards, min_parallel_speedup); missing the floor fails the run")
		barrier   = fs.Int("barrier-every", 0, "with -shardbench: windows per coordinator barrier for the decomposed arms (0 = engine default)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the selected work to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile (after the selected work) to this file")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while the work runs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("seeds %d < 1", *seeds)
	}

	if *pprofAddr != "" {
		go func() {
			// The DefaultServeMux carries the net/http/pprof handlers; the
			// server dies with the process, so errors are only reportable.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "basrptbench: pprof server:", err)
			}
		}()
		fmt.Fprintf(w, "[pprof serving on http://%s/debug/pprof/]\n", *pprofAddr)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "basrptbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "basrptbench: memprofile:", err)
			}
		}()
	}

	scale, err := pickScale(*scaleName)
	if err != nil {
		return err
	}
	scale.Seed = *seed
	if *duration > 0 {
		scale.Duration = *duration
	}
	if *racks > 0 {
		scale.Racks = *racks
	}
	if *hosts > 0 {
		scale.HostsPerRack = *hosts
	}

	if *schedJSON != "" {
		if *seeds > 1 {
			return fmt.Errorf("-schedbench runs single-seed pairs (drop -seeds)")
		}
		return runSchedBench(w, scale, *schedJSON)
	}
	if *obsJSON != "" {
		if *seeds > 1 {
			return fmt.Errorf("-obsbench runs single-seed pairs (drop -seeds)")
		}
		return runObsBench(w, scale, *obsJSON, *obsBudg)
	}
	if *allocJSON != "" {
		if *seeds > 1 {
			return fmt.Errorf("-allocbench runs single-seed pairs (drop -seeds)")
		}
		return runAllocBench(w, scale, *allocJSON, *allocBudg)
	}
	if *shardJSON != "" {
		if *seeds > 1 {
			return fmt.Errorf("-shardbench runs single-seed arms (drop -seeds)")
		}
		return runShardBench(w, scale, basrpt.ShardBenchOptions{
			MaxShards:    *shards,
			BarrierEvery: *barrier,
		}, *shardJSON, *shardBudg)
	}

	wanted := strings.Split(*exp, ",")
	selected := map[string]bool{}
	for _, e := range wanted {
		selected[strings.TrimSpace(e)] = true
	}
	all := selected["all"]

	if *seeds > 1 {
		return runMultiSeed(w, multiParams{
			scale:     scale,
			v:         *v,
			selected:  selected,
			all:       all,
			csvDir:    *csvDir,
			cfg:       runner.Config{Seeds: *seeds, Parallel: *parallel, RootSeed: *seed},
			benchJSON: *benchJSON,
		})
	}
	if *benchJSON != "" {
		return fmt.Errorf("-benchjson needs -seeds > 1 (it reports multi-seed speedup)")
	}

	ran := 0
	runExp := func(names []string, fn func() (string, error)) error {
		match := all
		for _, n := range names {
			if selected[n] {
				match = true
			}
		}
		if !match {
			return nil
		}
		start := time.Now()
		out, err := fn()
		if err != nil {
			return fmt.Errorf("%s: %w", names[0], err)
		}
		fmt.Fprintln(w, out)
		fmt.Fprintf(w, "[%s took %s]\n\n", strings.Join(names, "/"), time.Since(start).Round(time.Millisecond))
		ran++
		return nil
	}

	if err := runExp([]string{"fig1"}, func() (string, error) {
		res, err := basrpt.RunFig1()
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	}); err != nil {
		return err
	}

	if err := runExp([]string{"fig2"}, func() (string, error) {
		res, err := basrpt.RunFig2(scale, 0)
		if err != nil {
			return "", err
		}
		if err := exportSeries(*csvDir, map[string]*basrpt.Series{
			"fig2_srpt_queue":      &res.SRPT.MaxPortSeries,
			"fig2_threshold_queue": &res.Backlog.MaxPortSeries,
		}); err != nil {
			return "", err
		}
		return res.Render(), nil
	}); err != nil {
		return err
	}

	if selected["table1"] || selected["fig5"] || all {
		start := time.Now()
		res, err := basrpt.RunSaturation(scale, *v)
		if err != nil {
			return fmt.Errorf("saturation: %w", err)
		}
		if selected["table1"] || all {
			fmt.Fprintln(w, res.RenderTable1())
		}
		if selected["fig5"] || all {
			fmt.Fprintln(w, res.RenderFig5())
		}
		srptTput := res.SRPT.Throughput.SeriesGbps()
		fastTput := res.Fast.Throughput.SeriesGbps()
		if err := exportSeries(*csvDir, map[string]*basrpt.Series{
			"fig5_srpt_throughput_gbps": &srptTput,
			"fig5_fast_throughput_gbps": &fastTput,
			"fig5_srpt_queue_bytes":     &res.SRPT.MaxPortSeries,
			"fig5_fast_queue_bytes":     &res.Fast.MaxPortSeries,
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "[table1/fig5 took %s]\n\n", time.Since(start).Round(time.Millisecond))
		ran++
	}

	if err := runExp([]string{"fig6"}, func() (string, error) {
		res, err := basrpt.RunFig6(scale, *v, nil)
		if err != nil {
			return "", err
		}
		if *csvDir != "" {
			cols := [][]float64{nil, nil, nil, nil, nil, nil, nil}
			for _, row := range res.Rows {
				cols[0] = append(cols[0], row.Load)
				cols[1] = append(cols[1], row.SRPTQueryAvgMs)
				cols[2] = append(cols[2], row.FastQueryAvgMs)
				cols[3] = append(cols[3], row.SRPTQueryP99Ms)
				cols[4] = append(cols[4], row.FastQueryP99Ms)
				cols[5] = append(cols[5], row.SRPTGbps)
				cols[6] = append(cols[6], row.FastGbps)
			}
			headers := []string{"load", "srpt_query_avg_ms", "fast_query_avg_ms",
				"srpt_query_p99_ms", "fast_query_p99_ms", "srpt_gbps", "fast_gbps"}
			if err := exportColumns(*csvDir, "fig6_loads", headers, cols); err != nil {
				return "", err
			}
		}
		return res.Render(), nil
	}); err != nil {
		return err
	}

	if selected["fig7"] || selected["fig8"] || all {
		start := time.Now()
		res, err := basrpt.RunVSweep(scale, nil)
		if err != nil {
			return fmt.Errorf("vsweep: %w", err)
		}
		if selected["fig7"] || all {
			fmt.Fprintln(w, res.RenderFig7())
		}
		if selected["fig8"] || all {
			fmt.Fprintln(w, res.RenderFig8())
		}
		if *csvDir != "" {
			cols := [][]float64{nil, nil, nil, nil, nil, nil, nil}
			for _, row := range res.Rows {
				cols[0] = append(cols[0], row.V)
				cols[1] = append(cols[1], row.Gbps)
				cols[2] = append(cols[2], row.StableQueueByte)
				cols[3] = append(cols[3], row.QueryAvgMs)
				cols[4] = append(cols[4], row.QueryP99Ms)
				cols[5] = append(cols[5], row.BgAvgMs)
				cols[6] = append(cols[6], row.BgP99Ms)
			}
			headers := []string{"v", "gbps", "stable_queue_bytes",
				"query_avg_ms", "query_p99_ms", "bg_avg_ms", "bg_p99_ms"}
			if err := exportColumns(*csvDir, "fig7_fig8_vsweep", headers, cols); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "[fig7/fig8 took %s]\n\n", time.Since(start).Round(time.Millisecond))
		ran++
	}

	if err := runExp([]string{"theory"}, func() (string, error) {
		res, err := basrpt.RunTheorem1(4, 0.85, 200000, nil, basrpt.SeedRun(*seed))
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	}); err != nil {
		return err
	}

	if err := runExp([]string{"dtmc"}, func() (string, error) {
		res, err := basrpt.RunDTMC(0, 0)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	}); err != nil {
		return err
	}

	if err := runExp([]string{"ablation"}, func() (string, error) {
		res, err := basrpt.RunExactVsFast(5, 200, pickV(*v), basrpt.SeedRun(*seed))
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	}); err != nil {
		return err
	}

	if err := runExp([]string{"distributed"}, func() (string, error) {
		res, err := basrpt.RunDistributed(8, 200, pickV(*v), nil, basrpt.SeedRun(*seed))
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	}); err != nil {
		return err
	}

	// The stability showcase needs a long horizon (minutes of wall time),
	// so it is opt-in rather than part of -exp all.
	if selected["stability"] {
		start := time.Now()
		s := scale
		if s.Duration < 40 {
			s.Duration = 40
		}
		res, err := basrpt.RunStability(s, *v)
		if err != nil {
			return fmt.Errorf("stability: %w", err)
		}
		fmt.Fprintln(w, res.RenderStability())
		if err := exportSeries(*csvDir, map[string]*basrpt.Series{
			"stability_srpt_queue_bytes": &res.SRPT.MaxPortSeries,
			"stability_fast_queue_bytes": &res.Fast.MaxPortSeries,
		}); err != nil {
			return fmt.Errorf("stability csv: %w", err)
		}
		fmt.Fprintf(w, "[stability took %s]\n\n", time.Since(start).Round(time.Millisecond))
		ran++
	}

	if err := runExp([]string{"incast"}, func() (string, error) {
		res, err := basrpt.RunIncast(scale, *v, 0, 0, 0)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	}); err != nil {
		return err
	}

	if err := runExp([]string{"faults"}, func() (string, error) {
		res, err := basrpt.RunFaults(scale, *v, basrpt.Run{Seed: *seed, FaultSeed: *faultSeed})
		if err != nil {
			return "", err
		}
		if err := exportSeries(*csvDir, map[string]*basrpt.Series{
			"faults_srpt_backlog_bytes": &res.SRPT.Result.TotalBacklogSeries,
			"faults_fast_backlog_bytes": &res.Fast.Result.TotalBacklogSeries,
		}); err != nil {
			return "", err
		}
		return res.Render(), nil
	}); err != nil {
		return err
	}

	if err := runExp([]string{"noise"}, func() (string, error) {
		res, err := basrpt.RunNoise(scale, *v, 0.8, nil)
		if err != nil {
			return "", err
		}
		return res.Render(), nil
	}); err != nil {
		return err
	}

	if ran == 0 {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}

// multiParams carries the -seeds > 1 configuration into the multi-seed
// path.
type multiParams struct {
	scale     basrpt.Scale
	v         float64
	selected  map[string]bool
	all       bool
	csvDir    string
	cfg       runner.Config
	benchJSON string
}

// benchExperiment is one row of the benchmark-regression report: the
// parallel run's throughput and its speedup over a serial rerun of the
// identical work.
type benchExperiment struct {
	Experiment  string  `json:"experiment"`
	Seeds       int     `json:"seeds"`
	Parallel    int     `json:"parallel"`
	Units       int     `json:"units"`
	ParallelSec float64 `json:"parallel_sec"`
	SerialSec   float64 `json:"serial_sec"`
	Speedup     float64 `json:"speedup"`
	RunsPerSec  float64 `json:"runs_per_sec"`
}

// benchReport is the -benchjson artifact (BENCH_runner.json in CI).
type benchReport struct {
	GOMAXPROCS  int               `json:"gomaxprocs"`
	Experiments []benchExperiment `json:"experiments"`
}

// schedReport is the -schedbench artifact (BENCH_sched.json in CI): the
// measured decision rate of every index-routed discipline with the
// incremental candidate index on versus forced from-scratch, so the perf
// trajectory of the scheduling core is tracked across commits.
type schedReport struct {
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Scale      string                 `json:"scale"`
	Load       float64                `json:"load"`
	Schedulers []basrpt.SchedBenchRow `json:"schedulers"`
}

// runSchedBench is the -schedbench path: old-vs-new scheduling-core pairs
// on byte-identical runs, rendered as a table and written as JSON.
func runSchedBench(w io.Writer, scale basrpt.Scale, path string) error {
	start := time.Now()
	res, err := basrpt.RunSchedBench(scale, 0)
	if err != nil {
		return fmt.Errorf("schedbench: %w", err)
	}
	fmt.Fprintln(w, res.Render())
	fmt.Fprintf(w, "[schedbench took %s]\n", time.Since(start).Round(time.Millisecond))
	report := schedReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      res.Scale.String(),
		Load:       res.Load,
		Schedulers: res.Rows,
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("schedbench: marshal: %w", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("schedbench: %w", err)
	}
	fmt.Fprintf(w, "[sched report written to %s]\n", path)
	return nil
}

// obsReport is the -obsbench artifact (BENCH_obs.json in CI): the
// observability layer's disabled-path overhead against the per-decision
// scheduling cost, plus the trace byte-determinism verdict.
type obsReport struct {
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Scale      string                 `json:"scale"`
	Budget     *basrpt.ObsBudget      `json:"budget,omitempty"`
	Result     *basrpt.ObsBenchResult `json:"result"`
}

// runObsBench is the -obsbench path: overhead + determinism measurement,
// rendered as a table, written as JSON, and checked against the budget
// file when one is given (the CI observability gate).
func runObsBench(w io.Writer, scale basrpt.Scale, path, budgetPath string) error {
	start := time.Now()
	res, err := basrpt.RunObsBench(scale, 0)
	if err != nil {
		return fmt.Errorf("obsbench: %w", err)
	}
	fmt.Fprintln(w, res.Render())
	fmt.Fprintf(w, "[obsbench took %s]\n", time.Since(start).Round(time.Millisecond))
	report := obsReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      scale.String(),
		Result:     res,
	}
	var budgetErr error
	if budgetPath != "" {
		raw, err := os.ReadFile(budgetPath)
		if err != nil {
			return fmt.Errorf("obsbench: budget: %w", err)
		}
		var budget basrpt.ObsBudget
		if err := json.Unmarshal(raw, &budget); err != nil {
			return fmt.Errorf("obsbench: budget %s: %w", budgetPath, err)
		}
		report.Budget = &budget
		// Write the report even on a violation, so CI archives the numbers
		// that failed the gate.
		budgetErr = res.CheckBudget(budget)
	} else if !res.Deterministic {
		budgetErr = fmt.Errorf("traced fixed-seed runs were not byte-identical")
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("obsbench: marshal: %w", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("obsbench: %w", err)
	}
	fmt.Fprintf(w, "[obs report written to %s]\n", path)
	if budgetErr != nil {
		return fmt.Errorf("obsbench: %w", budgetErr)
	}
	if budgetPath != "" {
		fmt.Fprintf(w, "[obs budget OK: <= %.2f%% disabled overhead, determinism required: %v]\n",
			report.Budget.MaxDisabledOverheadPct, report.Budget.RequireDeterministic)
	}
	return nil
}

// allocReport is the -allocbench artifact (BENCH_alloc.json in CI): the
// steady-state allocator pressure of the hot path — bytes and allocations
// per decision, GC cycles per million decisions — for the pooled default
// against the non-pooled baseline on byte-identical runs, plus the budget
// the run was gated on (when one was supplied).
type allocReport struct {
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Scale      string                 `json:"scale"`
	Load       float64                `json:"load"`
	Budget     *basrpt.AllocBudget    `json:"budget,omitempty"`
	Schedulers []basrpt.AllocBenchRow `json:"schedulers"`
}

// runAllocBench is the -allocbench path: pooled-vs-baseline allocation
// pairs on byte-identical runs, rendered as a table, written as JSON, and
// checked against the budget file when one is given (the CI gate).
func runAllocBench(w io.Writer, scale basrpt.Scale, path, budgetPath string) error {
	start := time.Now()
	res, err := basrpt.RunAllocBench(scale, 0)
	if err != nil {
		return fmt.Errorf("allocbench: %w", err)
	}
	fmt.Fprintln(w, res.Render())
	fmt.Fprintf(w, "[allocbench took %s]\n", time.Since(start).Round(time.Millisecond))
	report := allocReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      res.Scale.String(),
		Load:       res.Load,
		Schedulers: res.Rows,
	}
	var budgetErr error
	if budgetPath != "" {
		raw, err := os.ReadFile(budgetPath)
		if err != nil {
			return fmt.Errorf("allocbench: budget: %w", err)
		}
		var budget basrpt.AllocBudget
		if err := json.Unmarshal(raw, &budget); err != nil {
			return fmt.Errorf("allocbench: budget %s: %w", budgetPath, err)
		}
		report.Budget = &budget
		// Write the report even on a violation, so CI archives the numbers
		// that failed the gate.
		budgetErr = res.CheckBudget(budget)
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("allocbench: marshal: %w", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("allocbench: %w", err)
	}
	fmt.Fprintf(w, "[alloc report written to %s]\n", path)
	if budgetErr != nil {
		return fmt.Errorf("allocbench: %w", budgetErr)
	}
	if budgetPath != "" {
		fmt.Fprintf(w, "[alloc budget OK: <= %.2f allocs/decision, <= %.0f bytes/decision]\n",
			report.Budget.MaxAllocsPerDecision, report.Budget.MaxAllocBytesPerDecision)
	}
	return nil
}

// shardReport is the -shardbench artifact (BENCH_shard.json in CI): the
// sharded fabric engine's decision throughput per shard count — the
// centralized 1-shard arm against rack-decomposed arms — plus the
// scaling budget the run was gated on (when one was supplied).
type shardReport struct {
	GOMAXPROCS int                      `json:"gomaxprocs"`
	Budget     *basrpt.ShardBudget      `json:"budget,omitempty"`
	Result     *basrpt.ShardBenchResult `json:"result"`
}

// runShardBench is the -shardbench path: shard-scaling arms on one
// topology, rendered as a table, written as JSON, and checked against
// the budget file when one is given (the CI scaling gate).
func runShardBench(w io.Writer, scale basrpt.Scale, opts basrpt.ShardBenchOptions, path, budgetPath string) error {
	start := time.Now()
	res, err := basrpt.RunShardBench(scale, opts)
	if err != nil {
		return fmt.Errorf("shardbench: %w", err)
	}
	fmt.Fprintln(w, res.Render())
	fmt.Fprintf(w, "[shardbench took %s]\n", time.Since(start).Round(time.Millisecond))
	report := shardReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Result:     res,
	}
	var budgetErr error
	if budgetPath != "" {
		raw, err := os.ReadFile(budgetPath)
		if err != nil {
			return fmt.Errorf("shardbench: budget: %w", err)
		}
		var budget basrpt.ShardBudget
		if err := json.Unmarshal(raw, &budget); err != nil {
			return fmt.Errorf("shardbench: budget %s: %w", budgetPath, err)
		}
		report.Budget = &budget
		// Write the report even on a violation, so CI archives the numbers
		// that failed the gate.
		budgetErr = res.CheckBudget(budget)
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("shardbench: marshal: %w", err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("shardbench: %w", err)
	}
	fmt.Fprintf(w, "[shard report written to %s]\n", path)
	if budgetErr != nil {
		return fmt.Errorf("shardbench: %w", budgetErr)
	}
	if budgetPath != "" {
		fmt.Fprintf(w, "[shard budget OK: >= %.2fx decisions/sec at %d shards vs centralized]\n",
			report.Budget.MinSpeedupAtMaxShards, res.Rows[len(res.Rows)-1].Shards)
	}
	return nil
}

// runMultiSeed is the -seeds > 1 path: every selected experiment fans its
// replicates across the worker pool and prints a per-metric mean/±ci95
// aggregate instead of the single-seed tables. Timing lines are bracketed
// so they can be stripped when comparing outputs across worker counts.
func runMultiSeed(w io.Writer, p multiParams) error {
	type timedRun struct {
		spec core.MultiSpec
		agg  *runner.Aggregate
	}
	var runs []timedRun
	for _, spec := range core.MultiSpecs() {
		match := p.all
		for _, n := range spec.Names {
			if p.selected[n] {
				match = true
			}
		}
		if !match {
			continue
		}
		agg, err := basrpt.RunMulti(spec.Names[0], p.scale, p.v, p.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Names[0], err)
		}
		fmt.Fprintln(w, agg.Render(spec.Title))
		fmt.Fprintf(w, "[%s took %s on %d workers, %.2f runs/s]\n\n",
			strings.Join(spec.Names, "/"), agg.Elapsed.Round(time.Millisecond),
			agg.Parallel, agg.RunsPerSec())
		if err := exportAggregate(p.csvDir, "multi_"+spec.Names[0], agg); err != nil {
			return err
		}
		runs = append(runs, timedRun{spec: spec, agg: agg})
	}
	if p.selected["stability"] {
		fmt.Fprintln(w, "stability: no multi-seed form (its value is one long trajectory); rerun with -seeds 1")
	}
	if len(runs) == 0 {
		return fmt.Errorf("no selected experiment has a multi-seed form")
	}
	if p.benchJSON == "" {
		return nil
	}

	// Benchmark-regression artifact: rerun each aggregate on one worker
	// and report wall-time speedup plus parallel runs/sec.
	report := benchReport{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, r := range runs {
		serialCfg := p.cfg
		serialCfg.Parallel = 1
		serial, err := basrpt.RunMulti(r.spec.Names[0], p.scale, p.v, serialCfg)
		if err != nil {
			return fmt.Errorf("%s serial rerun: %w", r.spec.Names[0], err)
		}
		row := benchExperiment{
			Experiment:  r.spec.Names[0],
			Seeds:       p.cfg.Seeds,
			Parallel:    r.agg.Parallel,
			Units:       r.agg.Units,
			ParallelSec: r.agg.Elapsed.Seconds(),
			SerialSec:   serial.Elapsed.Seconds(),
			RunsPerSec:  r.agg.RunsPerSec(),
		}
		if row.ParallelSec > 0 {
			row.Speedup = row.SerialSec / row.ParallelSec
		}
		report.Experiments = append(report.Experiments, row)
		fmt.Fprintf(w, "[bench %s: serial %.3fs, parallel %.3fs, speedup %.2fx]\n",
			row.Experiment, row.SerialSec, row.ParallelSec, row.Speedup)
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("benchjson: marshal: %w", err)
	}
	if err := os.WriteFile(p.benchJSON, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("benchjson: %w", err)
	}
	fmt.Fprintf(w, "[bench report written to %s]\n", p.benchJSON)
	return nil
}

// exportAggregate writes a multi-seed aggregate as <dir>/<name>.csv; a
// no-op when dir is empty.
func exportAggregate(dir, name string, agg *runner.Aggregate) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create csv dir: %w", err)
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	writeErr := agg.WriteCSV(f)
	closeErr := f.Close()
	if writeErr != nil {
		return fmt.Errorf("write %s: %w", path, writeErr)
	}
	if closeErr != nil {
		return fmt.Errorf("close %s: %w", path, closeErr)
	}
	return nil
}

// exportSeries writes each named series as <dir>/<name>.csv; a no-op when
// dir is empty.
func exportSeries(dir string, series map[string]*basrpt.Series) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create csv dir: %w", err)
	}
	for name, s := range series {
		path := filepath.Join(dir, name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		writeErr := trace.WriteSeriesCSV(f, name, s)
		closeErr := f.Close()
		if writeErr != nil {
			return fmt.Errorf("write %s: %w", path, writeErr)
		}
		if closeErr != nil {
			return fmt.Errorf("close %s: %w", path, closeErr)
		}
	}
	return nil
}

// exportColumns writes aligned columns as <dir>/<name>.csv; a no-op when
// dir is empty.
func exportColumns(dir, name string, headers []string, cols [][]float64) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create csv dir: %w", err)
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	writeErr := trace.WriteColumnsCSV(f, headers, cols)
	closeErr := f.Close()
	if writeErr != nil {
		return fmt.Errorf("write %s: %w", path, writeErr)
	}
	if closeErr != nil {
		return fmt.Errorf("close %s: %w", path, closeErr)
	}
	return nil
}

func pickScale(name string) (basrpt.Scale, error) {
	switch name {
	case "small":
		return basrpt.ScaleSmall, nil
	case "medium":
		return basrpt.ScaleMedium, nil
	case "paper":
		return basrpt.ScalePaper, nil
	default:
		return basrpt.Scale{}, fmt.Errorf("unknown scale %q (small|medium|paper)", name)
	}
}

func pickV(v float64) float64 {
	if v <= 0 {
		return basrpt.DefaultV
	}
	return v
}
