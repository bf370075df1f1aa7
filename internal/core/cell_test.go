package core

import (
	"reflect"
	"strings"
	"testing"

	"basrpt/internal/fabricsim"
	"basrpt/internal/runner"
	"basrpt/internal/sched"
	"basrpt/internal/workload"
)

func tinyScale() Scale {
	return Scale{Racks: 2, HostsPerRack: 2, Duration: 0.4, Seed: 1}
}

// cellTask wraps a cell as a runner task whose replicate seed becomes the
// cell's workload seed — the shape internal/scenario builds.
func cellTask(name string, c Cell) runner.Task {
	return runner.Task{Name: name, Run: func(seed uint64) (runner.Sample, error) {
		c := c
		c.Scale.Seed = seed
		return RunCell(c)
	}}
}

// TestMultiFaultsParallel drives fault cells through the concurrent worker
// pool — with -race this is the proof that per-seed fault schedules,
// injectors, and watchdogs share nothing across workers.
func TestMultiFaultsParallel(t *testing.T) {
	var tasks []runner.Task
	for _, name := range []string{"srpt", "fast-basrpt"} {
		tasks = append(tasks, cellTask(name, Cell{
			Scale:     tinyScale(),
			Scheduler: name,
			Load:      0.8,
			Faults:    &CellFaults{LinkFaults: 3, Outages: 1},
		}))
	}
	agg, err := runner.Run(runner.Config{Seeds: 4, Parallel: 4}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []string{"srpt", "fast-basrpt"} {
		for _, metric := range []string{"recovered", "decisions_held", "truncated", "query_avg_ms", "gbps"} {
			name := cell + "/" + metric
			if m := agg.Metric(name); m == nil || m.N != 4 {
				t.Fatalf("metric %s missing or short: %+v", name, m)
			}
		}
	}
}

// TestMultiFaultSeedVariesPerReplicate checks that a fault cell with a
// zero fault seed draws its schedule from the replicate seed: two
// replicates must not see the same schedule (the whole point of
// multi-seed resilience runs), while a pinned fault seed gives every
// replicate the same one.
func TestMultiFaultSeedVariesPerReplicate(t *testing.T) {
	schedule := func(c Cell, seed uint64) string {
		s := tinyScale()
		s.Seed = seed
		sch, err := c.faultSchedule(s.Racks*s.HostsPerRack, s.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		return sch.String()
	}
	s1, s2 := runner.DeriveSeed(1, 0), runner.DeriveSeed(1, 1)
	drawn := Cell{Faults: &CellFaults{LinkFaults: 3, Outages: 1}}
	if schedule(drawn, s1) == schedule(drawn, s2) {
		t.Fatal("replicates drew identical fault schedules")
	}
	pinned := Cell{Faults: &CellFaults{LinkFaults: 3, Outages: 1, Seed: 7}}
	if schedule(pinned, s1) != schedule(pinned, s2) {
		t.Fatal("a pinned fault seed drew different schedules per replicate")
	}
	if sch, err := (Cell{}).faultSchedule(4, tinyScale()); sch != nil || err != nil {
		t.Fatalf("cell without faults drew (%v, %v)", sch, err)
	}
}

// TestMultiParallelAggregatesMatchSerial checks the determinism contract
// at the cell level: the same cells aggregated on 1 and 4 workers give
// identical metrics.
func TestMultiParallelAggregatesMatchSerial(t *testing.T) {
	tasks := func() []runner.Task {
		return []runner.Task{
			cellTask("srpt", Cell{Scale: tinyScale(), Scheduler: "srpt", Load: 0.95}),
			cellTask("fast-basrpt", Cell{Scale: tinyScale(), Scheduler: "fast-basrpt", Load: 0.95}),
		}
	}
	serial, err := runner.Run(runner.Config{Seeds: 3, RootSeed: 7, Parallel: 1}, tasks())
	if err != nil {
		t.Fatal(err)
	}
	par, err := runner.Run(runner.Config{Seeds: 3, RootSeed: 7, Parallel: 4}, tasks())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Metrics, par.Metrics) {
		t.Fatal("parallel metrics differ from serial")
	}
}

// TestMultiWatchdogTruncationParallel runs watchdog-truncated simulations
// concurrently: a 1-byte backlog bound trips immediately in every
// replicate, and the truncation diagnosis must still be populated per run
// with no cross-worker interference.
func TestMultiWatchdogTruncationParallel(t *testing.T) {
	scale := tinyScale()
	task := runner.Task{Name: "truncated", Run: func(seed uint64) (runner.Sample, error) {
		s := scale
		s.Seed = seed
		topo, err := s.Topology()
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewMixed(workload.MixedConfig{
			Topology:          topo,
			Load:              0.9,
			QueryByteFraction: workload.DefaultQueryByteFraction,
			Duration:          s.Duration,
			Seed:              seed,
		})
		if err != nil {
			return nil, err
		}
		sim, err := fabricsim.New(fabricsim.Config{
			Hosts:     topo.NumHosts(),
			LinkBps:   topo.HostLinkBps(),
			Scheduler: sched.NewSRPT(),
			Generator: gen,
			Duration:  s.Duration,
			Seed:      seed,
			Watchdog:  &fabricsim.Watchdog{MaxBacklogBytes: 1},
		})
		if err != nil {
			return nil, err
		}
		res, err := sim.Run()
		if err != nil {
			return nil, err
		}
		truncated := 0.0
		if res.Truncated() {
			truncated = 1
			if res.Diagnosis.Reason == "" {
				t.Error("truncated run lacks a diagnosis reason")
			}
		}
		return runner.Sample{"truncated": truncated, "sim_end_s": res.Diagnosis.SimTime}, nil
	}}
	agg, err := runner.Run(runner.Config{Seeds: 4, Parallel: 4}, []runner.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	m := agg.Metric("truncated/truncated")
	if m == nil || m.Mean != 1 {
		t.Fatalf("expected every replicate truncated, got %+v", m)
	}
}

// TestIncastCellMatchesRetiredDriver pins incast cells to the values the
// retired two-arm E14 driver produced for the same fabric, seed and
// defaults (fanout min(8, hosts−1), 400 jobs/s, background load 0.6,
// V = 2500): both arms reproduce bit for bit.
func TestIncastCellMatchesRetiredDriver(t *testing.T) {
	want := map[string]runner.Sample{
		"srpt": {
			"bg_avg_ms":       0.7439816067981265,
			"bg_p99_ms":       15.813034235240067,
			"completed_flows": 7093,
			"departed_mb":     2789.966750324811,
			"gbps":            44.639468005196946,
			"leftover_flows":  10,
			"maxport_tail_mb": 33.916845660165286,
			"query_avg_ms":    0.06452316134327982,
			"query_p99_ms":    0.11736681289846897,
			"queue_growth":    1.0787059262557024,
		},
		"fast-basrpt": {
			"bg_avg_ms":       0.7437200804910818,
			"bg_p99_ms":       15.813034235240067,
			"completed_flows": 7093,
			"departed_mb":     2789.987589732698,
			"gbps":            44.639801435723136,
			"leftover_flows":  10,
			"maxport_tail_mb": 33.79481428806992,
			"query_avg_ms":    0.06477383570122351,
			"query_p99_ms":    0.12215624277665596,
			"queue_growth":    1.0737397657241357,
		},
	}
	for name, w := range want {
		got, err := RunCell(Cell{
			Scale:     Scale{Racks: 2, HostsPerRack: 4, Duration: 0.5, Seed: 3},
			Scheduler: name,
			Load:      0.6,
			Incast:    true,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("%s incast cell drifted from the pinned driver values:\n got %v\nwant %v", name, got, w)
		}
	}
}

// TestNoiseCellKeepsThroughput: fast BASRPT scheduling from ±100% noisy
// size estimates keeps at least 90% of the exact-size throughput, because
// the backlog term of its key is measured, not estimated.
func TestNoiseCellKeepsThroughput(t *testing.T) {
	run := func(name string, noise float64) runner.Sample {
		s, err := RunCell(Cell{
			Scale:     Scale{Racks: 2, HostsPerRack: 4, Duration: 1.5, Seed: 1},
			Scheduler: name,
			Options:   sched.Options{NoiseLevel: noise},
			Load:      0.7,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return s
	}
	exact := run("fast-basrpt", 0)
	noisy := run("noisy-basrpt", 1)
	if exact["query_avg_ms"] <= 0 || noisy["query_avg_ms"] <= 0 {
		t.Fatalf("missing FCTs: exact %v, noisy %v", exact, noisy)
	}
	if noisy["gbps"] < 0.9*exact["gbps"] {
		t.Fatalf("throughput collapsed under noise: %g vs %g Gbps", noisy["gbps"], exact["gbps"])
	}
}

func TestRunCellRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		cell Cell
		want string
	}{
		{"load", Cell{Scale: tinyScale(), Scheduler: "srpt", Load: 1.5}, "load"},
		{"scheduler", Cell{Scale: tinyScale(), Scheduler: "bogus", Load: 0.5}, "bogus"},
	} {
		if _, err := RunCell(tc.cell); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestIncastCellRejects: the incast pattern owns the query class, so a
// query share is refused, and a fabric with no host besides the
// aggregator has no backend to fan out to.
func TestIncastCellRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		cell Cell
		want string
	}{
		{"query share", Cell{Scale: tinyScale(), Scheduler: "srpt", Load: 0.5, Incast: true, QueryFraction: 0.2}, "query fraction"},
		{"no backends", Cell{Scale: Scale{Racks: 1, HostsPerRack: 1, Duration: 0.1}, Scheduler: "srpt", Load: 0.5, Incast: true}, "workload"},
	} {
		if _, err := RunCell(tc.cell); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestNoiseCellRejects: a noisy-basrpt cell refuses an overloaded fabric
// and a negative noise level with an error rather than a panic.
func TestNoiseCellRejects(t *testing.T) {
	for _, tc := range []struct {
		name  string
		load  float64
		noise float64
		want  string
	}{
		{"overload", 1.5, 0.5, "load"},
		{"negative noise", 0.5, -1, "noise"},
	} {
		_, err := RunCell(Cell{
			Scale:     tinyScale(),
			Scheduler: "noisy-basrpt",
			Options:   sched.Options{NoiseLevel: tc.noise},
			Load:      tc.load,
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
