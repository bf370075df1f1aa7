package core

import (
	"errors"
	"strings"
	"testing"
)

func TestRunShardBenchSmall(t *testing.T) {
	scale := Scale{Racks: 3, HostsPerRack: 4, Duration: 0.01, Seed: 1}
	res, err := RunShardBench(scale, ShardBenchOptions{Load: 0.6, MaxShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (shards 1, 2, 4)", len(res.Rows))
	}
	if res.Rows[0].Engine != "centralized" || res.Rows[1].Engine != "decomposed" {
		t.Fatalf("engine labels %q, %q", res.Rows[0].Engine, res.Rows[1].Engine)
	}
	if res.Rows[1].Digest != res.Rows[2].Digest {
		t.Fatalf("decomposed digests diverged: %s vs %s", res.Rows[1].Digest, res.Rows[2].Digest)
	}
	if res.Rows[0].Digest == res.Rows[1].Digest {
		t.Fatal("centralized and decomposed digests identical; the families model different physics")
	}
	for _, row := range res.Rows {
		if row.Decisions == 0 || row.DecisionsPerSec <= 0 || row.WallSeconds <= 0 {
			t.Fatalf("degenerate row %+v", row)
		}
		if row.DurationSeconds != scale.Duration {
			t.Fatalf("uncapped row ran %gs, want %g", row.DurationSeconds, scale.Duration)
		}
	}
	if res.Rows[0].SpeedupVsCentralized != 1 {
		t.Fatalf("centralized speedup = %g, want 1", res.Rows[0].SpeedupVsCentralized)
	}
	// The parallel-speedup field is first-class per decomposed row (1.0
	// by definition at 2 shards) and absent on the centralized arm, and
	// decomposed rows carry the imbalance attribution.
	if res.Rows[0].ParallelSpeedup != 0 || res.Rows[0].Imbalance != nil {
		t.Fatalf("centralized row grew decomposed-only fields: %+v", res.Rows[0])
	}
	if res.Rows[1].ParallelSpeedup != 1 {
		t.Fatalf("2-shard parallel speedup = %g, want 1", res.Rows[1].ParallelSpeedup)
	}
	if res.Rows[2].ParallelSpeedup <= 0 {
		t.Fatalf("widest parallel speedup missing: %+v", res.Rows[2])
	}
	for _, row := range res.Rows[1:] {
		if row.Imbalance == nil || row.Imbalance.Barriers <= 0 || row.Imbalance.WindowsPerBarrier <= 0 {
			t.Fatalf("decomposed row lacks imbalance attribution: %+v", row)
		}
	}
	if out := res.Render(); !strings.Contains(out, "Shard scaling") {
		t.Fatalf("render missing title:\n%s", out)
	}

	// A disabled budget never trips; an absurd floor always does.
	if err := res.CheckBudget(ShardBudget{}); err != nil {
		t.Fatalf("disabled budget tripped: %v", err)
	}
	if err := res.CheckBudget(ShardBudget{MinSpeedupAtMaxShards: 1e9}); err == nil {
		t.Fatal("absurd speedup floor passed")
	}
	// The parallel floor reads the first-class field: forcing it below an
	// absurd bound trips exactly when the machine has >= 4 CPUs.
	err = res.CheckBudget(ShardBudget{MinParallelSpeedup: 1e9})
	if res.CPUs >= 4 && err == nil {
		t.Fatal("absurd parallel floor passed on a multi-core machine")
	}
	if res.CPUs < 4 && err != nil {
		t.Fatalf("parallel floor enforced on a %d-CPU machine: %v", res.CPUs, err)
	}
}

func TestRunShardBenchValidation(t *testing.T) {
	if _, err := RunShardBench(Scale{Racks: -1, HostsPerRack: 4, Duration: 0.01, Seed: 1}, ShardBenchOptions{Load: 0.5, MaxShards: 4}); !errors.Is(err, ErrScale) {
		t.Fatalf("negative racks accepted or wrong error: %v", err)
	}
	if _, err := RunShardBench(Scale{Racks: 2, HostsPerRack: 4, Duration: 0.01, Seed: 1}, ShardBenchOptions{Load: 1.5, MaxShards: 4}); err == nil {
		t.Fatal("load 1.5 accepted")
	}
	if _, err := RunShardBench(Scale{Racks: 2, HostsPerRack: 4, Duration: 0.01, Seed: 1}, ShardBenchOptions{Load: 0.5, MaxShards: 1}); err == nil {
		t.Fatal("max shards 1 accepted")
	}
}
