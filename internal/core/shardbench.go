package core

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"basrpt/internal/fabricsim"
	"basrpt/internal/trace"
)

// ShardBenchLoad is the operating point of the shard-scaling benchmark:
// moderate load, so the fabric stays stable at 4k+ hosts while every
// arm still takes tens of thousands of scheduling decisions.
const ShardBenchLoad = 0.5

// ShardBudget is the checked-in floor the CI shard-scaling gate
// enforces (bench_shard_budget.json at the repository root). The
// speedup bound is algorithmic — decomposing the fabric into per-rack
// matchings must beat the fabric-global matching regardless of core
// count — so it applies unconditionally. The parallel bound compares
// the widest decomposed arm against the 2-shard arm and only applies
// on machines with at least 4 CPUs, where worker parallelism can
// actually help; on smaller machines it is recorded but not enforced.
type ShardBudget struct {
	// MinSpeedupAtMaxShards is the minimum decisions/sec ratio of the
	// widest decomposed arm over the centralized (1-shard) arm. Zero or
	// negative disables the check.
	MinSpeedupAtMaxShards float64 `json:"min_speedup_at_max_shards"`
	// MinParallelSpeedup is the minimum ParallelSpeedup of the widest
	// decomposed arm (its decisions/sec over the 2-shard arm's),
	// enforced only when the machine has >= 4 CPUs. Zero or negative
	// disables the check.
	MinParallelSpeedup float64 `json:"min_parallel_speedup"`
}

// ShardBenchOptions tunes RunShardBench beyond the topology scale.
// The zero value selects every default.
type ShardBenchOptions struct {
	// Load is the per-port offered load; <= 0 selects ShardBenchLoad.
	Load float64
	// MaxShards is the widest decomposed arm (arms double from 2 up to
	// it); <= 0 selects 4.
	MaxShards int
	// BarrierEvery is forwarded to every decomposed arm (see
	// fabricsim.ShardConfig.BarrierEvery); 0 selects the engine default.
	BarrierEvery int
}

// ShardBenchRow reports one arm of the shard-scaling benchmark. Wall
// time spans the whole RunShard call, construction included, and
// decisions per second divide the run's scheduling decisions by that wall time.
// The JSON tags shape BENCH_shard.json, the scaling artifact CI
// archives per commit.
type ShardBenchRow struct {
	Shards int `json:"shards"`
	// Engine names the determinism family: "centralized" for the
	// 1-shard arm, "decomposed" for every other.
	Engine          string  `json:"engine"`
	Decisions       int64   `json:"decisions"`
	CompletedFlows  int     `json:"completed_flows"`
	WallSeconds     float64 `json:"wall_seconds"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	// DurationSeconds is the arm's simulated horizon: every arm runs
	// the scale's full Duration.
	DurationSeconds float64 `json:"duration_seconds"`
	// SpeedupVsCentralized is this arm's decisions/sec over the
	// centralized arm's (1.0 for the centralized arm itself).
	SpeedupVsCentralized float64 `json:"speedup_vs_centralized"`
	// ParallelSpeedup is this arm's decisions/sec over the 2-shard
	// arm's — the multi-core scaling signal the budget gates on, 0 for
	// the centralized arm.
	ParallelSpeedup float64 `json:"parallel_speedup,omitempty"`
	// Digest is the run's deterministic digest; every decomposed arm
	// must report the same value (grouping invariance).
	Digest string `json:"digest"`
	// Imbalance is the decomposed arm's wall-clock attribution report
	// (barriers, windows per barrier, worker pool busy/wait, per-cell
	// skew); nil for the centralized arm.
	Imbalance *fabricsim.ShardImbalance `json:"imbalance,omitempty"`
}

// ShardBenchResult is the shard-scaling comparison across engine arms.
type ShardBenchResult struct {
	Scale Scale           `json:"scale"`
	Load  float64         `json:"load"`
	Hosts int             `json:"hosts"`
	CPUs  int             `json:"cpus"`
	Rows  []ShardBenchRow `json:"rows"`
}

// RunShardBench measures scheduling throughput across shard counts on
// one topology: the centralized engine at 1 shard, then decomposed arms
// doubling from 2 up to MaxShards, all on the full horizon. All decomposed arms
// must produce identical deterministic digests — the bench fails
// otherwise, making every CI bench run double as a grouping-invariance
// check at scale.
func RunShardBench(scale Scale, opts ShardBenchOptions) (*ShardBenchResult, error) {
	scale = scale.withDefaults()
	if err := scale.Validate(); err != nil {
		return nil, fmt.Errorf("shard bench: %w", err)
	}
	load := opts.Load
	if load <= 0 {
		load = ShardBenchLoad
	}
	if load >= 1 {
		return nil, fmt.Errorf("shard bench: load %g outside (0, 1)", load)
	}
	maxShards := opts.MaxShards
	if maxShards <= 0 {
		maxShards = 4
	}
	if maxShards < 2 {
		return nil, fmt.Errorf("shard bench: max shards %d < 2 leaves nothing to compare", maxShards)
	}
	topo, err := scale.Topology()
	if err != nil {
		return nil, err
	}
	arms := []int{1}
	for s := 2; s <= maxShards; s *= 2 {
		arms = append(arms, s)
	}
	res := &ShardBenchResult{
		Scale: scale,
		Load:  load,
		Hosts: topo.NumHosts(),
		CPUs:  runtime.NumCPU(),
	}
	var decomposedDigest string
	for _, shards := range arms {
		start := time.Now()
		run, err := fabricsim.RunShard(fabricsim.ShardConfig{
			Topology:     topo,
			Scheduler:    "fast-basrpt",
			Load:         load,
			Duration:     scale.Duration,
			Seed:         scale.Seed,
			Shards:       shards,
			BarrierEvery: opts.BarrierEvery,
		})
		wall := time.Since(start).Seconds()
		if err != nil {
			return nil, fmt.Errorf("shard bench (shards=%d): %w", shards, err)
		}
		if run.Decisions == 0 {
			return nil, fmt.Errorf("shard bench (shards=%d): run took no decisions", shards)
		}
		engine := "decomposed"
		if shards == 1 {
			engine = "centralized"
		}
		digest := run.DeterministicDigest()
		if shards > 1 {
			if decomposedDigest == "" {
				decomposedDigest = digest
			} else if digest != decomposedDigest {
				return nil, fmt.Errorf(
					"shard bench: decomposed digest diverged at shards=%d:\n  %s\n  %s",
					shards, decomposedDigest, digest)
			}
		}
		res.Rows = append(res.Rows, ShardBenchRow{
			Shards:          shards,
			Engine:          engine,
			Decisions:       run.Decisions,
			CompletedFlows:  run.CompletedFlows,
			WallSeconds:     wall,
			DecisionsPerSec: float64(run.Decisions) / wall,
			DurationSeconds: scale.Duration,
			Digest:          digest,
			Imbalance:       run.Imbalance,
		})
	}
	base := res.Rows[0].DecisionsPerSec
	var twoShard float64
	if two := res.row(2); two != nil {
		twoShard = two.DecisionsPerSec
	}
	for i := range res.Rows {
		res.Rows[i].SpeedupVsCentralized = res.Rows[i].DecisionsPerSec / base
		if res.Rows[i].Shards > 1 && twoShard > 0 {
			res.Rows[i].ParallelSpeedup = res.Rows[i].DecisionsPerSec / twoShard
		}
	}
	return res, nil
}

// row returns the bench row at the given shard count, nil if absent.
func (r *ShardBenchResult) row(shards int) *ShardBenchRow {
	for i := range r.Rows {
		if r.Rows[i].Shards == shards {
			return &r.Rows[i]
		}
	}
	return nil
}

// check evaluates both floors against a result, returning one message
// per violation. Zero or negative bounds disable their checks, and the
// parallel-speedup bound is skipped on machines with fewer than 4 CPUs
// — the algorithmic bound is the one that must hold everywhere.
func (r *ShardBudget) check(res *ShardBenchResult) []string {
	var violations []string
	widest := &res.Rows[len(res.Rows)-1]
	if r.MinSpeedupAtMaxShards > 0 && widest.SpeedupVsCentralized < r.MinSpeedupAtMaxShards {
		violations = append(violations, fmt.Sprintf(
			"shards=%d: %.2fx decisions/sec vs centralized, budget requires >= %.2fx",
			widest.Shards, widest.SpeedupVsCentralized, r.MinSpeedupAtMaxShards))
	}
	if r.MinParallelSpeedup > 0 && res.CPUs >= 4 && widest.Shards > 2 && widest.ParallelSpeedup > 0 {
		if widest.ParallelSpeedup < r.MinParallelSpeedup {
			violations = append(violations, fmt.Sprintf(
				"shards=%d: %.2fx decisions/sec vs 2 shards on %d CPUs, budget requires >= %.2fx",
				widest.Shards, widest.ParallelSpeedup, res.CPUs, r.MinParallelSpeedup))
		}
	}
	return violations
}

// CheckBudget verifies the scaling floors against the checked-in
// budget; see ShardBudget for which bounds apply where.
func (r *ShardBenchResult) CheckBudget(b ShardBudget) error {
	if violations := b.check(r); len(violations) > 0 {
		return fmt.Errorf("shard budget exceeded:\n  %s", strings.Join(violations, "\n  "))
	}
	return nil
}

// Render prints the shard-scaling comparison.
func (r *ShardBenchResult) Render() string {
	tbl := trace.Table{
		Title: fmt.Sprintf("Shard scaling — %d hosts at %.0f%% load, %s (%d CPUs)",
			r.Hosts, r.Load*100, r.Scale, r.CPUs),
		Headers: []string{"shards", "engine", "sim s", "decisions", "wall s", "dec/s", "speedup", "parallel", "win/bar", "wait%", "digest"},
	}
	for _, row := range r.Rows {
		parallel, winbar, wait := "-", "-", "-"
		if row.ParallelSpeedup > 0 {
			parallel = fmt.Sprintf("%.2fx", row.ParallelSpeedup)
		}
		if row.Imbalance != nil {
			winbar = fmt.Sprintf("%.1f", row.Imbalance.WindowsPerBarrier)
			wait = fmt.Sprintf("%.1f%%", 100*row.Imbalance.BarrierWaitFraction)
		}
		tbl.AddRow(
			fmt.Sprintf("%d", row.Shards),
			row.Engine,
			fmt.Sprintf("%g", row.DurationSeconds),
			fmt.Sprintf("%d", row.Decisions),
			fmt.Sprintf("%.3f", row.WallSeconds),
			fmt.Sprintf("%.0f", row.DecisionsPerSec),
			fmt.Sprintf("%.2fx", row.SpeedupVsCentralized),
			parallel, winbar, wait,
			row.Digest)
	}
	var b strings.Builder
	b.WriteString(tbl.Render())
	b.WriteString("\nwall time spans the whole run (construction included); decomposed arms must share one digest\n")
	return b.String()
}
