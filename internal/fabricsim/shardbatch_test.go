package fabricsim

import (
	"errors"
	"runtime"
	"testing"
)

// TestRunShardBatchInvariance is the sparse-barrier property: digests,
// JSONL traces, and per-cell ShardObs snapshots (wall-clock plane
// masked) must be byte-identical across every barrier batch size ×
// shard count × GOMAXPROCS combination. Batching only changes when the
// goroutines synchronize; the prefetch/extended-horizon routing
// contract guarantees every arrival still lands at the identical
// simulated instant.
func TestRunShardBatchInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	base := ShardConfig{
		Topology:  shardTopo(t, 8, 3),
		Scheduler: "fast-basrpt",
		Load:      0.7,
		Duration:  0.003,
		Seed:      13,
	}
	var wantDigest, wantTrace, wantObs string
	var wantWindows int
	first := true
	for _, batch := range []int{1, 2, 4, 8} {
		for _, shards := range []int{2, 4, 8} {
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				cfg := base
				cfg.Shards = shards
				res, tr := runShardTraced(t, cfg, batch)
				gotObs := maskWall(t, res.ShardObs)
				if first {
					first = false
					wantDigest, wantTrace, wantObs = res.DeterministicDigest(), tr, gotObs
					wantWindows = res.Imbalance.Windows
					if res.CompletedFlows == 0 {
						t.Fatal("reference arm completed no flows; property is vacuous")
					}
					continue
				}
				if got := res.DeterministicDigest(); got != wantDigest {
					t.Fatalf("batch=%d shards=%d procs=%d digest %s, want %s",
						batch, shards, procs, got, wantDigest)
				}
				if tr != wantTrace {
					t.Fatalf("batch=%d shards=%d procs=%d trace diverged (%d vs %d bytes)",
						batch, shards, procs, len(tr), len(wantTrace))
				}
				if gotObs != wantObs {
					t.Fatalf("batch=%d shards=%d procs=%d per-cell snapshots diverged",
						batch, shards, procs)
				}
				// The window GRID is also invariant — only barriers thin out.
				if res.Imbalance.Windows != wantWindows {
					t.Fatalf("batch=%d: %d windows, want %d", batch, res.Imbalance.Windows, wantWindows)
				}
				wantBarriers := (wantWindows + batch - 1) / batch
				if res.Imbalance.Barriers != wantBarriers {
					t.Fatalf("batch=%d: %d barriers, want %d", batch, res.Imbalance.Barriers, wantBarriers)
				}
			}
		}
	}
}

// TestRunShardBatchInvarianceDegraded repeats the batch-invariance
// property on a degraded-scheduling arm: the noisy-basrpt discipline
// perturbs every size estimate through a per-cell seeded RNG — the
// closest thing the sharded engine has to a fault schedule (ShardConfig
// carries no fault injection; faults.Schedule is a centralized-engine
// feature). RNG consumption is the most batch-order-sensitive state a
// cell owns, so this pins that batching never changes how the streams
// are drawn.
func TestRunShardBatchInvarianceDegraded(t *testing.T) {
	base := ShardConfig{
		Topology:  shardTopo(t, 4, 3),
		Scheduler: "noisy-basrpt",
		Load:      0.7,
		Duration:  0.003,
		Seed:      17,
	}
	var wantDigest, wantTrace string
	first := true
	for _, batch := range []int{1, 8} {
		for _, shards := range []int{2, 4} {
			cfg := base
			cfg.Shards = shards
			res, tr := runShardTraced(t, cfg, batch)
			if first {
				first = false
				wantDigest, wantTrace = res.DeterministicDigest(), tr
				if res.CompletedFlows == 0 {
					t.Fatal("degraded arm completed no flows")
				}
				continue
			}
			if got := res.DeterministicDigest(); got != wantDigest {
				t.Fatalf("batch=%d shards=%d degraded digest %s, want %s", batch, shards, got, wantDigest)
			}
			if tr != wantTrace {
				t.Fatalf("batch=%d shards=%d degraded trace diverged", batch, shards)
			}
		}
	}
}

// TestRunShardWorkerPoolDeterminism pins the worker count as a pure
// wall-clock control: every worker count produces the identical digest,
// and the pool shape lands in the imbalance report.
func TestRunShardWorkerPoolDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	base := ShardConfig{
		Topology:  shardTopo(t, 6, 3),
		Scheduler: "fast-basrpt",
		Load:      0.7,
		Duration:  0.003,
		Seed:      19,
		Shards:    6,
	}
	var want string
	for i, workers := range []int{1, 2, 3, 6, 0} {
		cfg := base
		cfg.Workers = workers
		// Batch 1 maximizes the barrier count, so every pool shape
		// synchronizes as often as the engine allows.
		res, err := runDecomposed(cfg, 1)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// The pool splits the 6 cells into one balanced span per
		// requested worker, capped at the cell count.
		requested := workers
		if requested == 0 {
			requested = 4 // GOMAXPROCS
		}
		wantWorkers := min(requested, 6)
		if res.Imbalance.Workers != wantWorkers {
			t.Fatalf("workers=%d: pool size %d, want %d",
				workers, res.Imbalance.Workers, wantWorkers)
		}
		if i == 0 {
			want = res.DeterministicDigest()
			continue
		}
		if got := res.DeterministicDigest(); got != want {
			t.Fatalf("workers=%d digest %s, want %s", workers, got, want)
		}
	}
}

// TestRunShardBatchKnobValidation exercises the pool and batch
// defaulting: a negative worker count is a typed config error, batch 1
// reproduces the dense one-barrier-per-window schedule, and RunShard's
// batch of barrierEvery thins the barriers without moving the window grid
// or the digest.
func TestRunShardBatchKnobValidation(t *testing.T) {
	topo := shardTopo(t, 2, 3)
	base := ShardConfig{
		Topology: topo, Scheduler: "srpt", Load: 0.5,
		Duration: 0.002, Seed: 1, Shards: 2,
	}
	negative := base
	negative.Workers = -3
	if _, err := RunShard(negative); !errors.Is(err, ErrShardConfig) {
		t.Errorf("negative workers: accepted or wrong error: %v", err)
	}

	res, err := runDecomposed(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Imbalance.Barriers != res.Imbalance.Windows || res.Imbalance.WindowsPerBarrier != 1 {
		t.Fatalf("batch 1 not dense: %d barriers, %d windows",
			res.Imbalance.Barriers, res.Imbalance.Windows)
	}

	def, err := RunShard(base)
	if err != nil {
		t.Fatal(err)
	}
	if def.Imbalance.Windows != res.Imbalance.Windows {
		t.Fatalf("window grid changed with batching: %d vs %d", def.Imbalance.Windows, res.Imbalance.Windows)
	}
	wantBarriers := (def.Imbalance.Windows + barrierEvery - 1) / barrierEvery
	if def.Imbalance.Barriers != wantBarriers {
		t.Fatalf("default batch: %d barriers, want %d", def.Imbalance.Barriers, wantBarriers)
	}
	if got, want := def.DeterministicDigest(), res.DeterministicDigest(); got != want {
		t.Fatalf("default batch digest %s != dense digest %s", got, want)
	}
}
