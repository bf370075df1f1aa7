// Command basrptbench prints the paper's theory experiments: the ones that
// run the slotted switch, the DTMC, or bare scheduling decisions rather
// than the fabric (see DESIGN.md §3 for the experiment index):
//
//	basrptbench -exp all
//	basrptbench -exp theory -seed 3
//	basrptbench -exp ablation,distributed -v 5000
//
// Experiments: fig1, theory, dtmc, ablation, distributed, all. The fabric
// experiments (Table I, Figures 2 and 5–8 and the extensions) are the
// scenario specs under scenarios/, run and checked by cmd/basrptexp; one
// fabric run is cmd/basrptsim. The simulator's performance benchmark is
// `bash bench/run.sh`, run from the repository root (see bench/README.md).
//
// Profiling: -cpuprofile/-memprofile write pprof profiles around whatever
// work the other flags select; -pprof ADDR serves net/http/pprof for live
// inspection of long runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"basrpt"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "basrptbench:", err)
		os.Exit(1)
	}
}

// renderer is what every theory experiment result prints through.
type renderer interface{ Render() string }

// experiment is one -exp id and the run it prints.
type experiment struct {
	name string
	run  func(v float64, seed uint64) (renderer, error)
}

// experiments lists the -exp ids in the order -exp all prints them.
var experiments = []experiment{
	{"fig1", func(float64, uint64) (renderer, error) { return basrpt.RunFig1() }},
	{"theory", func(_ float64, seed uint64) (renderer, error) {
		return basrpt.RunTheorem1(4, 0.85, 200000, nil, seed)
	}},
	{"dtmc", func(float64, uint64) (renderer, error) { return basrpt.RunDTMC(0, 0) }},
	{"ablation", func(v float64, seed uint64) (renderer, error) {
		return basrpt.RunExactVsFast(5, 200, v, seed)
	}},
	{"distributed", func(v float64, seed uint64) (renderer, error) {
		return basrpt.RunDistributed(8, 200, v, nil, seed)
	}},
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("basrptbench", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "all", "comma-separated experiment ids (fig1|theory|dtmc|ablation|distributed|all)")
		v         = fs.Float64("v", 0, "BASRPT tradeoff weight V of ablation and distributed (0 = paper default 2500)")
		seed      = fs.Uint64("seed", 1, "random seed of theory, ablation and distributed")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the selected work to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile (after the selected work) to this file")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while the work runs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	selected := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		selected[strings.TrimSpace(e)] = true
	}
	for name := range selected {
		if name != "all" && !known(name) {
			return fmt.Errorf("unknown experiment %q (fig1|theory|dtmc|ablation|distributed|all; "+
				"the fabric experiments are scenario specs: go run ./cmd/basrptexp -list)", name)
		}
	}
	if *v <= 0 {
		*v = basrpt.DefaultV
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

	for _, e := range experiments {
		if !selected["all"] && !selected[e.name] {
			continue
		}
		start := time.Now()
		res, err := e.run(*v, *seed)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(w, res.Render())
		fmt.Fprintf(w, "[%s took %s]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// known reports whether name is an -exp id.
func known(name string) bool {
	for _, e := range experiments {
		if e.name == name {
			return true
		}
	}
	return false
}
