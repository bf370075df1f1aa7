package fabricsim

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"basrpt/internal/flow"
	"basrpt/internal/obs"
	"basrpt/internal/sched"
	"basrpt/internal/topology"
	"basrpt/internal/trace"
)

func shardTopo(t *testing.T, racks, hpr int) *topology.Topology {
	t.Helper()
	topo, err := topology.New(topology.Scaled(racks, hpr))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// runShardTraced executes the decomposed engine at the given window batch
// with a JSONL trace sink attached and returns the result plus the full
// trace bytes.
func runShardTraced(t *testing.T, cfg ShardConfig, batch int) (*Result, string) {
	t.Helper()
	var buf bytes.Buffer
	ew, err := trace.NewEventWriter(&buf, trace.TraceHeader{
		Seed:        int64(cfg.Seed),
		Scheduler:   cfg.Scheduler,
		Hosts:       cfg.Topology.NumHosts(),
		Load:        cfg.Load,
		DurationSec: cfg.Duration,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = obs.New(obs.Options{Sink: ew})
	res, err := runDecomposed(cfg, batch)
	if err != nil {
		t.Fatalf("shards=%d batch=%d: %v", cfg.Shards, batch, err)
	}
	if err := ew.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.String()
}

// TestRunShardDecomposedDeterminism pins the decomposed engine's
// determinism contract: every shard count >= 2, at every GOMAXPROCS,
// produces byte-identical digests and traces — the shard count only
// groups rack cells onto goroutines.
func TestRunShardDecomposedDeterminism(t *testing.T) {
	topo := shardTopo(t, 4, 4)
	base := ShardConfig{
		Topology: topo, Scheduler: "fast-basrpt", Load: 0.85,
		Duration: 0.01, Seed: 11, ValidateDecisions: true,
	}
	type arm struct {
		shards, procs int
	}
	arms := []arm{{2, 1}, {3, 1}, {4, 1}, {2, 4}, {4, 4}}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var wantDigest, wantTrace string
	var wantCompleted int
	for i, a := range arms {
		runtime.GOMAXPROCS(a.procs)
		cfg := base
		cfg.Shards = a.shards
		res, tr := runShardTraced(t, cfg, barrierEvery)
		if i == 0 {
			wantDigest, wantTrace, wantCompleted = res.DeterministicDigest(), tr, res.CompletedFlows
			if wantCompleted == 0 {
				t.Fatal("decomposed run completed no flows; determinism check is vacuous")
			}
			continue
		}
		if got := res.DeterministicDigest(); got != wantDigest {
			t.Fatalf("shards=%d GOMAXPROCS=%d digest %s != shards=%d digest %s",
				a.shards, a.procs, got, arms[0].shards, wantDigest)
		}
		if tr != wantTrace {
			t.Fatalf("shards=%d GOMAXPROCS=%d trace diverged (%d vs %d bytes)",
				a.shards, a.procs, len(tr), len(wantTrace))
		}
	}
}

// TestRunShardDecomposedConservation checks the decomposed engine's
// bookkeeping invariants: byte conservation (arrived = departed +
// leftover) and flow conservation, plus non-degenerate cross-rack
// traffic actually flowing through the proxy ports.
func TestRunShardDecomposedConservation(t *testing.T) {
	topo := shardTopo(t, 4, 4)
	res, err := RunShard(ShardConfig{
		Topology: topo, Scheduler: "srpt", Load: 0.9,
		Duration: 0.02, Seed: 3, Shards: 2, ValidateDecisions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ArrivedFlows == 0 || res.CompletedFlows == 0 {
		t.Fatalf("degenerate run: arrived %d completed %d", res.ArrivedFlows, res.CompletedFlows)
	}
	if got := res.CompletedFlows + res.LeftoverFlows; got != res.ArrivedFlows {
		t.Fatalf("flow conservation broken: %d completed + %d leftover != %d arrived",
			res.CompletedFlows, res.LeftoverFlows, res.ArrivedFlows)
	}
	sum := res.DepartedBytes + res.LeftoverBytes
	if diff := math.Abs(sum - res.ArrivedBytes); diff > 1e-6*math.Max(1, res.ArrivedBytes) {
		t.Fatalf("byte conservation broken: departed %g + leftover %g != arrived %g",
			res.DepartedBytes, res.LeftoverBytes, res.ArrivedBytes)
	}
	// Queries fan out fabric-wide, so a 4-rack run must complete flows
	// whose FCT includes the core hop — i.e. more completions than the
	// intra-rack-only background traffic could supply on its own.
	if res.FCT.Count(flow.ClassQuery) == 0 {
		t.Fatal("no query flows completed; cross-rack path untested")
	}
	if res.QueueSeries.Len() == 0 || res.TotalBacklogSeries.Len() == 0 || res.MaxPortSeries.Len() == 0 {
		t.Fatal("decomposed run recorded no sample series")
	}
}

// TestRunShardConfigValidation exercises the typed rejection of every
// malformed ShardConfig dimension. A shard count below 2 is one: the
// centralized engine is New + Run, not a RunShard family.
func TestRunShardConfigValidation(t *testing.T) {
	topo := shardTopo(t, 2, 4)
	ok := ShardConfig{Topology: topo, Scheduler: "srpt", Load: 0.5, Duration: 0.01, Seed: 1, Shards: 2}
	cases := []struct {
		name   string
		mutate func(*ShardConfig)
	}{
		{"nil topology", func(c *ShardConfig) { c.Topology = nil }},
		{"zero shards", func(c *ShardConfig) { c.Shards = 0 }},
		{"one shard", func(c *ShardConfig) { c.Shards = 1 }},
		{"negative shards", func(c *ShardConfig) { c.Shards = -2 }},
		{"zero duration", func(c *ShardConfig) { c.Duration = 0 }},
		{"NaN duration", func(c *ShardConfig) { c.Duration = math.NaN() }},
		{"infinite duration", func(c *ShardConfig) { c.Duration = math.Inf(1) }},
		{"bad load", func(c *ShardConfig) { c.Load = 1.5 }},
		{"NaN load", func(c *ShardConfig) { c.Load = math.NaN() }},
		{"NaN query fraction", func(c *ShardConfig) { c.QueryByteFraction = math.NaN() }},
		{"negative V", func(c *ShardConfig) { c.Scheduler = "fast-basrpt"; c.SchedOpts.V = -1 }},
		{"NaN V", func(c *ShardConfig) { c.Scheduler = "fast-basrpt"; c.SchedOpts.V = math.NaN() }},
		{"zero seed", func(c *ShardConfig) { c.Seed = 0 }},
		{"unknown scheduler", func(c *ShardConfig) { c.Scheduler = "nope" }},
	}
	for _, tc := range cases {
		cfg := ok
		tc.mutate(&cfg)
		if _, err := RunShard(cfg); !errors.Is(err, ErrShardConfig) {
			t.Errorf("%s: accepted or wrong error: %v", tc.name, err)
		}
	}
	if _, err := RunShard(ok); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestRunShardChecksExactBASRPTPorts: a rack cell has its hosts plus one
// proxy port per core (3 here), so exact BASRPT runs on 5 hosts per rack
// and is refused with ErrShardConfig on 6, instead of panicking on a
// span goroutine.
func TestRunShardChecksExactBASRPTPorts(t *testing.T) {
	run := func(hpr int) error {
		_, err := RunShard(ShardConfig{
			Topology: shardTopo(t, 2, hpr), Scheduler: "exact-basrpt", Load: 0.5,
			Duration: 0.002, Seed: 1, Shards: 2,
		})
		return err
	}
	if err := run(5); err != nil {
		t.Fatalf("8-port cells rejected: %v", err)
	}
	if err := run(6); !errors.Is(err, ErrShardConfig) || !strings.Contains(err.Error(), "exceeds limit 8") {
		t.Fatalf("9-port cells: err = %v, want ErrShardConfig naming the 8-port limit", err)
	}
}

// TestRunShardDecomposedSchedulerSweep runs every registered discipline
// through the decomposed engine once, checking the grouping-invariance
// contract holds for dirty-feed consumers and RNG schedulers alike.
func TestRunShardDecomposedSchedulerSweep(t *testing.T) {
	topo := shardTopo(t, 3, 4)
	for _, name := range sched.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			base := ShardConfig{
				Topology: topo, Scheduler: name, Load: 0.6,
				Duration: 0.005, Seed: 5, ValidateDecisions: true,
			}
			digests := make([]string, 0, 2)
			for _, shards := range []int{2, 3} {
				cfg := base
				cfg.Shards = shards
				res, err := RunShard(cfg)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				digests = append(digests, res.DeterministicDigest())
			}
			if digests[0] != digests[1] {
				t.Fatalf("scheduler %s not grouping-invariant:\n %s\n %s", name, digests[0], digests[1])
			}
		})
	}
}
