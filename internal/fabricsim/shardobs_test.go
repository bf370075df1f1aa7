package fabricsim

import (
	"encoding/json"
	"runtime"
	"slices"
	"testing"

	"basrpt/internal/obs"
	"basrpt/internal/sched"
	"basrpt/internal/topology"
)

// shardObsConfig is the small decomposed fixture the per-cell
// observability tests share: 4 racks so there is real cross-rack
// traffic and real grouping freedom.
func shardObsConfig(t *testing.T, shards int) ShardConfig {
	t.Helper()
	return ShardConfig{
		Topology:  shardTopo(t, 4, 3),
		Scheduler: "fast-basrpt",
		Load:      0.7,
		Duration:  0.004,
		Seed:      11,
		Shards:    shards,
	}
}

// notWall keeps the deterministic-plane instruments (obs.Snapshot.Filter).
func notWall(name string) bool { return !obs.IsWallClock(name) }

// maskWall strips the wall-clock plane from per-cell snapshots and
// JSON-encodes the remainder — the byte string the grouping-invariance
// property compares.
func maskWall(t *testing.T, snaps []obs.Snapshot) string {
	t.Helper()
	det := make([]obs.Snapshot, len(snaps))
	for i, s := range snaps {
		det[i] = s.Filter(notWall)
	}
	b, err := json.Marshal(det)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestShardObsGroupingInvariance is the deterministic-plane property:
// the per-cell registry snapshots (wall-clock entries masked) must be
// byte-identical across shard counts and GOMAXPROCS values — the same
// contract PR 8 established for the merged Result, now per cell.
func TestShardObsGroupingInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type arm struct {
		shards, procs int
	}
	arms := []arm{{2, 1}, {3, 1}, {4, 1}, {2, 4}, {4, 4}}
	var want string
	var wantDigest string
	for i, a := range arms {
		runtime.GOMAXPROCS(a.procs)
		res, err := RunShard(shardObsConfig(t, a.shards))
		if err != nil {
			t.Fatalf("shards=%d procs=%d: %v", a.shards, a.procs, err)
		}
		if len(res.ShardObs) != 4 {
			t.Fatalf("ShardObs cells = %d, want 4", len(res.ShardObs))
		}
		got := maskWall(t, res.ShardObs)
		digest := res.DeterministicDigest()
		if i == 0 {
			want, wantDigest = got, digest
			continue
		}
		if got != want {
			t.Errorf("shards=%d procs=%d: per-cell snapshots differ:\n got %s\nwant %s", a.shards, a.procs, got, want)
		}
		if digest != wantDigest {
			t.Errorf("shards=%d procs=%d: digest %s, want %s (digest now folds ShardObs in)", a.shards, a.procs, digest, wantDigest)
		}
	}
}

// TestShardObsCellAttribution sanity-checks that the per-cell counters
// attribute the merged totals: decisions sum to Result.Decisions, every
// cell advanced every window, and the inter-shard message flow is
// conserved (delivered <= sent; undelivered messages are exactly the
// ones still in flight past the horizon).
func TestShardObsCellAttribution(t *testing.T) {
	res, err := RunShard(shardObsConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	var decisions, sent, delivered int64
	for i, snap := range res.ShardObs {
		decisions += snap.Counter("cell.decisions")
		sent += snap.Counter("cell.msgs_sent")
		delivered += snap.Counter("cell.msgs_delivered")
		if w := snap.Counter("cell.windows"); int(w) != res.Imbalance.Windows {
			t.Errorf("cell %d advanced %d windows, run had %d", i, w, res.Imbalance.Windows)
		}
		// The wall-clock plane must be present per cell but excluded by
		// the deterministic mask.
		found := false
		for _, c := range snap.Counters {
			if c.Name == "wall.busy_ns" {
				found = true
			}
		}
		if !found {
			t.Errorf("cell %d snapshot lacks wall.busy_ns", i)
		}
		if det := snap.Filter(notWall); det.Counter("wall.busy_ns") != 0 {
			t.Errorf("cell %d: the deterministic view kept a wall counter", i)
		}
	}
	if decisions != res.Decisions {
		t.Errorf("cell decisions sum %d != merged %d", decisions, res.Decisions)
	}
	if sent == 0 || delivered == 0 {
		t.Errorf("no inter-shard traffic recorded (sent %d, delivered %d) — fixture too small?", sent, delivered)
	}
	if delivered > sent {
		t.Errorf("delivered %d > sent %d", delivered, sent)
	}
}

// TestShardTimelineOrderingInvariance is the wall-clock-plane property:
// the timeline's span SEQUENCE (track, name, window — durations masked)
// must be byte-identical across shard counts and GOMAXPROCS, because
// spans are recorded in rack order at each barrier regardless of how
// the workers interleaved.
func TestShardTimelineOrderingInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type ev struct {
		Track, Window int
		Name          string
	}
	order := func(shards, procs int) []ev {
		runtime.GOMAXPROCS(procs)
		cfg := shardObsConfig(t, shards)
		cfg.Timeline = obs.NewTimeline()
		if _, err := RunShard(cfg); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		var out []ev
		for _, s := range cfg.Timeline.Spans() {
			out = append(out, ev{Track: s.Track, Window: s.Window, Name: s.Name})
		}
		return out
	}
	want := order(2, 1)
	if len(want) == 0 {
		t.Fatal("no timeline spans recorded")
	}
	for _, a := range []struct{ shards, procs int }{{3, 1}, {4, 4}, {2, 4}} {
		got := order(a.shards, a.procs)
		if len(got) != len(want) {
			t.Fatalf("shards=%d procs=%d: %d spans, want %d", a.shards, a.procs, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shards=%d procs=%d: span %d = %+v, want %+v", a.shards, a.procs, i, got[i], want[i])
			}
		}
	}
	// Span-shape spot checks on the reference ordering: each barrier opens
	// with the coordinator route pass, then per cell in rack order its
	// window spans plus one batch span, then the coordinator fold.
	// Batch/fold/route spans carry the barrier index in Window; per-window
	// "window" spans carry the absolute window index.
	if want[0] != (ev{Track: obs.TimelineCoordinator, Window: 0, Name: "route"}) {
		t.Errorf("first span = %+v, want coordinator route for barrier 0", want[0])
	}
	perBarrier := map[string]int{}
	windowSpans := 0
	for _, e := range want {
		if e.Name == "window" {
			if e.Window == 0 {
				windowSpans++
			}
			continue
		}
		if e.Window == 0 {
			perBarrier[e.Name]++
		}
	}
	if windowSpans != 4 || len(perBarrier) != 3 || perBarrier["batch"] != 4 || perBarrier["fold"] != 1 || perBarrier["route"] != 1 {
		t.Errorf("barrier-0 span census = %v (+%d window-0 spans), want 4 window / 4 batch / 1 fold / 1 route",
			perBarrier, windowSpans)
	}
}

// TestShardImbalanceReport checks the post-run attribution report's
// invariants (not its timings, which are machine facts): shape, bounded
// fractions, the slowest cell being the busiest, a digest the
// coordinator's serial-share accounting does not touch, and absence from
// the centralized engine.
func TestShardImbalanceReport(t *testing.T) {
	res, err := RunShard(shardObsConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	im := res.Imbalance
	if im == nil {
		t.Fatal("decomposed run has no imbalance report")
	}
	if im.Cells != 4 || len(im.BusyNs) != 4 {
		t.Fatalf("report shape wrong: %+v", im)
	}
	if im.Windows <= 0 || im.Barriers <= 0 || im.Barriers > im.Windows {
		t.Fatalf("windows = %d, barriers = %d", im.Windows, im.Barriers)
	}
	if got, want := im.WindowsPerBarrier, float64(im.Windows)/float64(im.Barriers); got != want {
		t.Fatalf("windows per barrier %g, want %g", got, want)
	}
	if im.Workers < 1 || im.Workers > im.Cells ||
		len(im.WorkerBusyNs) != im.Workers || len(im.WorkerWaitNs) != im.Workers {
		t.Fatalf("worker accounting shape wrong: %+v", im)
	}
	if im.BarrierWaitFraction < 0 || im.BarrierWaitFraction > 1 {
		t.Fatalf("barrier-wait fraction %g outside [0,1]", im.BarrierWaitFraction)
	}
	if im.SlowestCell < 0 || im.SlowestCell >= im.Cells {
		t.Fatalf("slowest cell %d out of range", im.SlowestCell)
	}
	var totalBusy int64
	for i, ns := range im.BusyNs {
		totalBusy += ns
		if ns < 0 {
			t.Fatalf("negative busy time for cell %d: %+v", i, im)
		}
		if slow := im.BusyNs[im.SlowestCell]; ns > slow || (ns == slow && i < im.SlowestCell) {
			t.Fatalf("slowest cell %d (busy %d ns) is not the busiest: cell %d busy %d ns", im.SlowestCell, slow, i, ns)
		}
	}
	if got, want := im.SkewRatio, float64(im.BusyNs[im.SlowestCell])/(float64(totalBusy)/float64(im.Cells)); got != want {
		t.Fatalf("skew ratio %g, want the slowest cell's busy over the mean, %g", got, want)
	}
	if im.CoordinatorNs <= 0 || im.SerialFraction <= 0 || im.SerialFraction >= 1 {
		t.Fatalf("coordinator %d ns, serial fraction %g: want > 0 and a fraction in (0, 1)",
			im.CoordinatorNs, im.SerialFraction)
	}
	if got := res.Obs.Counter("wall.coordinator_ns"); got != im.CoordinatorNs {
		t.Fatalf("wall.coordinator_ns = %d, imbalance says %d", got, im.CoordinatorNs)
	}
	if im.String() == "" {
		t.Fatal("empty imbalance rendering")
	}
	// The serial share is wall-clock plane: timing the coordinator's spans
	// into a Timeline moves it, the digest must not move.
	tcfg := shardObsConfig(t, 2)
	tcfg.Timeline = obs.NewTimeline()
	tres, err := RunShard(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tres.DeterministicDigest(), res.DeterministicDigest(); got != want {
		t.Fatalf("digest with a Timeline %s, without %s", got, want)
	}

	// The centralized engine (New + Run) reports neither per-cell
	// snapshots nor an imbalance, and its registry holds no wall-clock
	// counters.
	scheduler, err := sched.New(tcfg.Scheduler, sched.Options{Seed: tcfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	cres := mustRun(t, Config{
		Hosts: tcfg.Topology.NumHosts(), LinkBps: tcfg.Topology.HostLinkBps(), Scheduler: scheduler,
		Generator: mixedGen(t, tcfg.Topology, tcfg.Load, tcfg.Duration, tcfg.Seed),
		Duration:  tcfg.Duration, Seed: tcfg.Seed,
	})
	if cres.Imbalance != nil || cres.ShardObs != nil {
		t.Fatal("centralized run grew decomposed-only observability fields")
	}
	for _, c := range cres.Obs.Counters {
		if obs.IsWallClock(c.Name) {
			t.Fatalf("centralized run registry has wall-clock counter %s", c.Name)
		}
	}
}

// TestArbitrationRoundsOnBothEngines: a dist-basrpt run reports its
// request/grant rounds on either engine, and the decomposed engine folds
// the per-cell counts into a value that does not depend on the grouping.
func TestArbitrationRoundsOnBothEngines(t *testing.T) {
	topo := shardTopo(t, 4, 4)
	const load, dur, seed = 0.7, 0.01, 13
	scheduler, err := sched.New("dist-basrpt", sched.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cres := mustRun(t, Config{
		Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(), Scheduler: scheduler,
		Generator: mixedGen(t, topo, load, dur, seed), Duration: dur, Seed: seed,
	})
	if got := cres.Obs.Counter("sched.arbitration_rounds"); got <= 0 {
		t.Fatalf("centralized sched.arbitration_rounds = %d, want > 0", got)
	}
	var rounds []int64
	for _, shards := range []int{2, 3} {
		res, err := RunShard(ShardConfig{
			Topology: topo, Scheduler: "dist-basrpt", Load: load, Duration: dur, Seed: seed, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, res.Obs.Counter("sched.arbitration_rounds"))
	}
	if rounds[0] <= 0 || rounds[0] != rounds[1] {
		t.Fatalf("decomposed sched.arbitration_rounds = %d at 2 shards, %d at 3; want equal and > 0", rounds[0], rounds[1])
	}
}

// TestShardOnWindowHeartbeat checks the decomposed heartbeat: one
// callback per barrier, monotone sim time and window count, cumulative
// counters matching the final result, a live imbalance report shaped to
// the fabric, and a last beat whose report and backlog are the run's
// final ones.
func TestShardOnWindowHeartbeat(t *testing.T) {
	cfg := shardObsConfig(t, 2)
	var beats []ShardProgress
	cfg.OnWindow = func(p ShardProgress) { beats = append(beats, p) }
	res, err := RunShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(beats) != res.Imbalance.Barriers {
		t.Fatalf("%d heartbeats, %d barriers", len(beats), res.Imbalance.Barriers)
	}
	for i, b := range beats {
		im := b.Imbalance
		if im.Barriers != i+1 || im.Windows != b.Windows || im.Cells != 4 || b.Duration != cfg.Duration {
			t.Fatalf("beat %d malformed: %+v", i, b)
		}
		if im.Workers < 1 || im.Workers > im.Cells || im.WindowsPerBarrier <= 0 {
			t.Fatalf("beat %d pool fields malformed: %+v", i, b)
		}
		if len(im.BusyNs) != 4 || len(im.WorkerBusyNs) != im.Workers || len(im.WorkerWaitNs) != im.Workers {
			t.Fatalf("beat %d wall arrays malformed: %+v", i, b)
		}
		if i > 0 && (b.SimTime <= beats[i-1].SimTime || b.Windows <= beats[i-1].Windows) {
			t.Fatalf("beat %d position not monotone", i)
		}
		if i > 0 && (b.Decisions < beats[i-1].Decisions || b.CompletedFlows < beats[i-1].CompletedFlows) {
			t.Fatalf("beat %d counters regressed", i)
		}
	}
	last := beats[len(beats)-1]
	if last.SimTime != cfg.Duration || last.Decisions != res.Decisions || last.CompletedFlows != res.CompletedFlows ||
		last.ArrivedFlows != res.ArrivedFlows {
		t.Fatalf("final beat %+v does not match result (decisions %d arrived %d completed %d)",
			last.RunProgress, res.Decisions, res.ArrivedFlows, res.CompletedFlows)
	}
	want := res.Imbalance
	if last.Windows != want.Windows || last.Imbalance.Barriers != want.Barriers ||
		last.Imbalance.Cells != want.Cells || last.Imbalance.Workers != want.Workers ||
		!slices.Equal(last.Imbalance.BusyNs, want.BusyNs) {
		t.Fatalf("final beat windows %d, imbalance %+v; result imbalance %+v", last.Windows, last.Imbalance, *want)
	}
	totals := res.TotalBacklogSeries.Values
	if last.BacklogBytes != totals[len(totals)-1] {
		t.Fatalf("final beat backlog %g, last total-backlog sample %g", last.BacklogBytes, totals[len(totals)-1])
	}
}

// TestRunProgressPercentDone: the run's position as a share of its
// horizon, and 0 when the horizon is unknown.
func TestRunProgressPercentDone(t *testing.T) {
	if p := (RunProgress{SimTime: 1, Duration: 4}).PercentDone(); p != 25 {
		t.Errorf("percent = %g, want 25", p)
	}
	if p := (RunProgress{SimTime: 1}).PercentDone(); p != 0 {
		t.Errorf("unknown horizon percent = %g, want 0", p)
	}
}

// TestCentralizedOnProgressHeartbeat checks the centralized engine's
// sample-tick heartbeat (Config.OnProgress through New and Run) and that
// enabling it changes nothing deterministic.
func TestCentralizedOnProgressHeartbeat(t *testing.T) {
	topo, err := topology.New(topology.Scaled(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	const dur = 0.05
	run := func(onProgress func(RunProgress)) *Result {
		scheduler, err := sched.New("fast-basrpt", sched.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, Config{
			Hosts: topo.NumHosts(), LinkBps: topo.HostLinkBps(), Scheduler: scheduler,
			Generator: mixedGen(t, topo, 0.7, dur, 7),
			Duration:  dur, Seed: 7, OnProgress: onProgress,
		})
	}
	plain := run(nil)
	var beats []RunProgress
	res2 := run(func(p RunProgress) { beats = append(beats, p) })
	if len(beats) == 0 {
		t.Fatal("no heartbeats at sample ticks")
	}
	for i, b := range beats {
		if b.Duration != dur {
			t.Fatalf("beat %d duration %g", i, b.Duration)
		}
		if i > 0 && b.SimTime < beats[i-1].SimTime {
			t.Fatalf("beat %d sim time regressed", i)
		}
	}
	if got, want := res2.DeterministicDigest(), plain.DeterministicDigest(); got != want {
		t.Fatalf("OnProgress changed the run: %s vs %s", got, want)
	}
}
