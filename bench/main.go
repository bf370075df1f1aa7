// Command bench is the repository's benchmark. It runs the simulator's
// workloads on both fabric engines, checks every run's deterministic
// digest, and reports end-to-end and per-layer metrics.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1|both] [-out FILE]
//
// -trace 0 runs the end-to-end pass, -trace 1 the per-layer pass, and
// both (the default) runs the two. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// full report goes to -out. The exit code is 1 when any run failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// resultsSchema names the results file layout.
const resultsSchema = "basrpt-bench/1"

// results is the JSON results file.
type results struct {
	Schema     string           `json:"schema"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       uint64           `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Workloads  []workloadResult `json:"workloads"`
}

// workloadResult is one workload's report.
type workloadResult struct {
	Name       string   `json:"name"`
	Engine     engine   `json:"engine"`
	Hosts      int      `json:"hosts"`
	Scheduler  string   `json:"scheduler"`
	Load       float64  `json:"load"`
	SimSeconds float64  `json:"sim_seconds"`
	Digest     string   `json:"digest"`
	Pinned     bool     `json:"pinned"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	FailedFrac float64  `json:"failed_frac"`
	EndToEnd   []metric `json:"end_to_end,omitempty"`
	PerLayer   []metric `json:"per_layer,omitempty"`
	Notes      []string `json:"notes,omitempty"`
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", pinnedSeed, "workload seed (>= 1)")
	seconds := fs.Float64("seconds", 20, "measured seconds per workload in the end-to-end pass")
	tracePass := fs.String("trace", "both", "0: end-to-end pass, 1: per-layer pass, both: the two")
	out := fs.String("out", filepath.Join(".bench_build", "results.json"), "results file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seed == 0 || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "bench: want only flags, a seed >= 1 and seconds >= 0")
		return 2
	}
	doE2E, doLayer := *tracePass == "0" || *tracePass == "both", *tracePass == "1" || *tracePass == "both"
	if !doE2E && !doLayer {
		fmt.Fprintf(os.Stderr, "bench: -trace %q: want 0, 1 or both\n", *tracePass)
		return 2
	}
	todo := specs
	if *name != "all" {
		s, ok := specByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []spec{s}
	}

	rs := results{
		Schema: resultsSchema, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: *seed, Seconds: *seconds,
	}
	for _, s := range todo {
		g := newGate(s, *seed)
		wr := workloadResult{
			Name: s.name, Engine: s.engine, Hosts: s.racks * s.hpr,
			Scheduler: s.sched, Load: s.load, SimSeconds: s.duration,
		}
		if doE2E {
			wr.EndToEnd = endToEnd(s, *seed, *seconds, g)
		}
		if doLayer {
			wr.PerLayer, wr.Notes = perLayer(s, *seed, g)
		}
		wr.Digest, wr.Pinned = g.want, *seed == pinnedSeed
		wr.Attempted, wr.Failed = g.attempted, g.failed
		wr.FailedFrac = float64(g.failed) / float64(g.attempted)
		printWorkload(stdout, wr)
		rs.Workloads = append(rs.Workloads, wr)
	}
	if err := writeResults(*out, rs); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}

	sum := summaryOf(rs, len(todo) > 1)
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !sum.Correct {
		return 1
	}
	return 0
}

// summaryOf folds the report into the summary line. Metric names carry
// a "<workload>." prefix when more than one workload ran.
func summaryOf(rs results, prefixed bool) summaryLine {
	sum := summaryLine{Metrics: map[string]metricValue{}}
	for _, w := range rs.Workloads {
		sum.Attempted += w.Attempted
		sum.Failed += w.Failed
		prefix := ""
		if prefixed {
			prefix = w.Name + "."
		}
		for _, m := range append(append([]metric(nil), w.EndToEnd...), w.PerLayer...) {
			sum.Metrics[prefix+m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
		}
	}
	sum.Correct = sum.Failed == 0 && sum.Attempted > 0
	return sum
}

func printWorkload(w io.Writer, wr workloadResult) {
	fmt.Fprintf(w, "== %s: %s engine, %d hosts, %s, load %g, %g s simulated\n",
		wr.Name, wr.Engine, wr.Hosts, wr.Scheduler, wr.Load, wr.SimSeconds)
	pin := "agreement across repetitions"
	if wr.Pinned {
		pin = "pinned"
	}
	fmt.Fprintf(w, "   digest %s (%s): %d runs, %d failed, failed_frac %g\n",
		wr.Digest, pin, wr.Attempted, wr.Failed, wr.FailedFrac)
	if len(wr.EndToEnd) > 0 {
		fmt.Fprintf(w, "   end-to-end (1 warm-up discarded):\n")
		for _, m := range wr.EndToEnd {
			fmt.Fprintf(w, "     %-26s median %-14.6g max %-14.6g %-6s n=%d\n", m.Name, m.Value, m.Max, m.Unit, m.N)
		}
	}
	if len(wr.PerLayer) > 0 {
		fmt.Fprintf(w, "   per-layer (one traced repetition):\n")
		for _, m := range wr.PerLayer {
			fmt.Fprintf(w, "     %-26s %-14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	for _, n := range wr.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

func writeResults(path string, rs results) error {
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("results directory: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}
