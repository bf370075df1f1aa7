package fabricsim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"basrpt/internal/flow"
	"basrpt/internal/metrics"
	"basrpt/internal/obs"
	"basrpt/internal/runner"
	"basrpt/internal/sched"
	"basrpt/internal/topology"
	"basrpt/internal/workload"
)

// ErrShardConfig reports an invalid sharded-run configuration.
var ErrShardConfig = errors.New("fabricsim: invalid shard configuration")

// barrierEvery is the decomposed engine's window batch: how many
// consecutive lookahead windows every cell advances through between
// coordinator barriers. Results are byte-identical for every batch size
// (runDecomposed takes it as a parameter so tests can sweep it); the batch
// trades barrier-synchronization overhead against cross-rack routing
// latency tolerance (messages are still delivered on the exact same
// simulated clock — see the prefetch contract on shardCell.prefetch). 8
// was the fastest of {1, 8, 32} in EXPERIMENTS E18.
const barrierEvery = 8

// ShardConfig parameterizes a run of the rack-decomposed engine
// (RunShard): one conservative-PDES cell per rack, cross-rack arrivals
// delivered after the topology's CoreHopLatency lookahead. Unlike Config
// it receives the recipe (registry name, options, workload parameters)
// instead of built scheduler and generator instances, so the engine can
// instantiate one copy per cell. Queue samples are Duration/500 apart,
// throughput buckets Duration/50 wide, and QueueSeries monitors host 0 —
// the centralized engine's defaults.
//
// Results are byte-identical across every Shards >= 2, every Workers
// count, and every GOMAXPROCS: those only choose how rack cells are
// grouped into the spans each batch forks, never the physics. They are
// not byte-identical to the centralized engine (New + Run):
// decomposition replaces the fabric-global crossbar matching with
// per-rack matchings (uplink traffic enters the destination rack through
// core-proxy ingress ports), which is the modeling change that makes 4k+
// host fabrics tractable.
type ShardConfig struct {
	// Topology shapes the fabric: rack boundaries are the decomposition
	// units and CoreHopLatency is the conservative lookahead.
	Topology *topology.Topology
	// Scheduler is the sched registry name (see sched.Names).
	Scheduler string
	// SchedOpts carries the discipline parameters. A zero Seed inherits
	// the run Seed; each cell's scheduler derives a private seed from it
	// so RNG disciplines stay grouping-invariant.
	SchedOpts sched.Options
	// Load is the per-port offered load in (0, 1).
	Load float64
	// QueryByteFraction is the query byte share; 0 selects the workload
	// default.
	QueryByteFraction float64
	// Duration is the simulated horizon in seconds.
	Duration float64
	// Seed drives the workload (and, via derivation, every per-cell
	// stream). Must be nonzero.
	Seed uint64
	// Shards must be at least 2 (the centralized engine is New + Run). It
	// caps the spans: each batch forks min(Shards, racks, Workers) span
	// goroutines (Workers defaulting to GOMAXPROCS).
	Shards int
	// Workers sets the spans forked per batch, one goroutine each; 0
	// defaults to GOMAXPROCS. The cells split into min(Shards, racks,
	// Workers) contiguous rack-order spans whose sizes differ by at most
	// one. Wall-clock plane only.
	Workers int
	// Obs, when non-nil, receives the run's trace. Per-cell events are
	// buffered during each batch and replayed in deterministic (time,
	// cell, sequence) merge order at the barrier, so traced runs stay
	// byte-identical across shard counts.
	Obs *obs.Obs
	// ValidateDecisions re-checks the crossbar constraint on every
	// decision of every cell.
	ValidateDecisions bool
	// Timeline, when non-nil, records wall-clock spans — per cell one
	// "window" span per lookahead window plus one "batch" span per
	// barrier, and coordinator "fold"/"route" spans per barrier — for
	// Chrome trace_event export
	// (obs.Timeline.WriteChromeTrace). Span ORDER is deterministic (rack
	// order within each barrier); span times are wall-clock measurements.
	Timeline *obs.Timeline
	// OnWindow, when non-nil, is called on the coordinating goroutine
	// after every barrier with the run's live position — the decomposed
	// engine's heartbeat for ops endpoints (the centralized engine's is
	// Config.OnProgress). Wall-clock plane only: results are
	// byte-identical whether or not it is set.
	OnWindow func(ShardProgress)
}

// ShardProgress is the live heartbeat handed to ShardConfig.OnWindow
// after each decomposed barrier.
type ShardProgress struct {
	// SimTime is the barrier's end on the simulated clock; Duration the
	// configured horizon.
	SimTime  float64
	Duration float64
	// Window is the zero-based index of the last lookahead window the
	// barrier completed; Barrier the zero-based barrier index. With
	// window batching one barrier completes several windows, so Window
	// advances by the batch (8 windows) per beat.
	Window  int
	Barrier int
	// WindowsPerBarrier is the cumulative mean batch width so far.
	WindowsPerBarrier float64
	// Cells is the number of PDES cells advancing in lockstep and
	// Workers the number of spans each batch forks, one goroutine each.
	Cells   int
	Workers int
	// Decisions, ArrivedFlows, and CompletedFlows are cumulative sums
	// over all cells at the barrier.
	Decisions      int64
	ArrivedFlows   int
	CompletedFlows int
	// CellBusyNs is each cell's cumulative wall-clock busy nanoseconds
	// (a copy; safe to retain). Wall-clock plane only.
	CellBusyNs []int64
}

// ShardImbalance is the decomposed engine's post-run wall-clock
// attribution report: how the run's real time split between cell work
// and barrier waiting, and which cell was busiest. Everything
// here is measured on the host machine — wall-clock plane, never part
// of a deterministic artifact.
type ShardImbalance struct {
	// Cells is the number of PDES cells (racks); Windows the number of
	// lookahead windows the run advanced through; Barriers the number of
	// coordinator barriers that synchronized them (Windows/8, up to
	// rounding); WindowsPerBarrier their ratio; Workers the number of
	// spans each batch forks, one goroutine each.
	Cells             int     `json:"cells"`
	Windows           int     `json:"windows"`
	Barriers          int     `json:"barriers"`
	WindowsPerBarrier float64 `json:"windows_per_barrier"`
	Workers           int     `json:"workers"`
	// BusyNs[i] is cell i's total in-window execution time.
	BusyNs []int64 `json:"busy_ns"`
	// WorkerBusyNs[g] is worker g's total batch-execution wall time and
	// WorkerWaitNs[g] its total time blocked at barriers for slower
	// workers — the parallel-efficiency ledger.
	WorkerBusyNs []int64 `json:"worker_busy_ns"`
	WorkerWaitNs []int64 `json:"worker_wait_ns"`
	// SlowestCell is the cell with the largest BusyNs (lowest rack wins
	// ties).
	SlowestCell int `json:"slowest_cell"`
	// BarrierWaitFraction is total worker barrier wait over total worker
	// (busy + wait) time — the fraction of the spans' wall clock lost to
	// the lockstep, in [0, 1]. 0 when a single worker runs every cell. It
	// counts only waits inside a batch, not the coordinator's serial work
	// between batches; SerialFraction reports that.
	BarrierWaitFraction float64 `json:"barrier_wait_fraction"`
	// CoordinatorNs is the run loop's wall time outside the batches'
	// fork/join: routing, folding, accounting, and heartbeats, during
	// which no span runs. SerialFraction is CoordinatorNs over the run
	// loop's wall time, in [0, 1] — the Amdahl serial share that caps the
	// spans' speedup at 1/SerialFraction.
	CoordinatorNs  int64   `json:"coordinator_ns"`
	SerialFraction float64 `json:"serial_fraction"`
	// SkewRatio is the maximum per-cell busy time over the mean — 1.0
	// for a perfectly balanced fabric.
	SkewRatio float64 `json:"skew_ratio"`
}

// String renders a one-paragraph imbalance summary for run footers.
func (im *ShardImbalance) String() string {
	if im == nil || im.Cells == 0 {
		return "imbalance: no decomposed windows recorded"
	}
	var totalBusy, workerWait int64
	for _, ns := range im.BusyNs {
		totalBusy += ns
	}
	for _, ns := range im.WorkerWaitNs {
		workerWait += ns
	}
	return fmt.Sprintf(
		"imbalance: %d cells x %d windows over %d barriers (%.1f windows/barrier, %d workers); busy %.1fms; worker wait %.1fms (%.1f%% of span time); coordinator serial %.1fms (%.1f%% of the run loop); skew ratio %.2f; slowest cell %d (busy %.1fms)",
		im.Cells, im.Windows, im.Barriers, im.WindowsPerBarrier, im.Workers,
		float64(totalBusy)/1e6, float64(workerWait)/1e6, 100*im.BarrierWaitFraction,
		float64(im.CoordinatorNs)/1e6, 100*im.SerialFraction,
		im.SkewRatio, im.SlowestCell, float64(im.BusyNs[im.SlowestCell])/1e6)
}

// cellIDShift positions the source-rack tag inside a decomposed flow ID:
// the low 40 bits count flows generated by the rack, the bits above tag
// the rack (+1 so no decomposed ID collides with the centralized
// engine's small sequential IDs). IDs are a pure function of (rack,
// generation order), so every table and scheduler tie-break that reads
// them is grouping-invariant.
const cellIDShift = 40

// RunShard executes one fabric run on the rack-decomposed engine. See
// ShardConfig for its determinism contract. The centralized engine's
// entry point is New + Run.
func RunShard(cfg ShardConfig) (*Result, error) {
	return runDecomposed(cfg, barrierEvery)
}

// shardMsg is a cross-rack flow arrival in flight between cells. Ports
// are global host ids; genTime is the arrival time at the source (the
// FCT clock starts there, so the core hop is part of the flow's FCT).
type shardMsg struct {
	src, dst int
	size     float64
	class    flow.Class
	genTime  float64
	id       flow.ID
}

// routedMsg is a shardMsg stamped with its delivery time and source
// cell — the (time, shard id, seq) merge key that fixes the global
// admission order. seq is the message's position in its source outbox,
// which routeOutboxes keeps: it appends each source's messages in outbox
// order and orders each destination's inbox by a stable sort on the
// delivery time alone.
type routedMsg struct {
	deliver float64
	srcCell int
	msg     shardMsg
}

// cellSample is one queue-sample tick recorded by a cell, folded into
// the global series at the barrier.
type cellSample struct {
	t       float64
	monitor float64 // monitored port's backlog; owner cell only
	total   float64 // cell backlog including core-proxy ports
	maxPort int     // global id of the cell's worst HOST ingress port
	maxB    float64
}

// cellDone is a buffered flow.done trace event; the barrier replays
// them in (time, cell, seq) order so traced decomposed runs stay
// byte-identical across shard counts.
type cellDone struct {
	t     float64
	src   int // global ingress port
	fct   float64
	class string
}

// localArrival is one prefetched intra-rack arrival waiting in a cell's
// local queue, carrying the flow ID minted at generation time (IDs are
// allocated in stream order, local and cross-rack alike, so prefetch
// depth never changes an ID).
type localArrival struct {
	a  workload.Arrival
	id flow.ID
}

// shardCell is one rack's private simulator: a cell over the rack's
// hosts plus one core-proxy ingress port per core switch, with its own
// scheduler instance, workload stream, metrics, and flow pool. The cell
// is the same physics and event step the centralized engine runs;
// shardCell is its calendar — prefetched local arrivals merged with
// delivered cross-rack messages, sample ticks into the barrier buffer —
// and adds the lookahead windows and the buffers the barrier folds. Cells
// only ever touch their own state inside a batch; all cross-cell traffic
// moves through the outbox/inbox exchange at barriers on the main
// goroutine. Both are plain slices: the outbox is a FIFO in delivery
// order (the stream is drawn in time order and delivery = generation +
// lookahead), and the inbox is delivery-sorted and consumed positionally.
type shardCell struct {
	cell

	rack    int
	base    int // global id of the rack's first host
	hpr     int // local host ports [0, hpr)
	uplinks int // core-proxy ingress ports [hpr, hpr+uplinks)

	look    float64
	monitor int // local monitor port, -1 unless this cell owns it

	// Workload prefetch state: the cell pulls its stream eagerly up to
	// each batch's horizon (see prefetch), queueing intra-rack arrivals
	// in localQ (consumed positionally) and diverting cross-rack ones to
	// the outbox. genT is the time of the last pulled arrival; genDone
	// marks stream exhaustion.
	gen      *workload.Mixed
	localQ   []localArrival
	localPos int
	genT     float64
	genDone  bool

	inbox    []routedMsg
	inboxPos int
	outbox   []routedMsg

	nextSeq uint64 // per-rack flow counter; see cellIDShift

	// Barrier buffers: samples feed the series on every run; dones and
	// remoteSrc (a proxy-admitted flow's global source) only on traced
	// runs, where remoteSrc is non-nil and bufferDone is the done hook.
	remoteSrc map[flow.ID]int
	samples   []cellSample
	dones     []cellDone

	// reg is the cell's private deterministic-plane registry; its
	// snapshot survives into Result.ShardObs. The cell's decision
	// counters are its cell.decisions and wall.sched_nanos; the resolved
	// instruments below keep the hot paths at one pointer-indirected add.
	reg            *obs.Registry
	cMsgsSent      *obs.Counter
	cMsgsDelivered *obs.Counter
	cWindows       *obs.Counter

	// Wall-clock plane: the span goroutine stamps each window's
	// start/duration (nanoseconds since the run origin) into
	// winStarts/winDurs; the coordinator reads them after the barrier
	// join, so no extra synchronization beyond the join is needed.
	winStarts []int64
	winDurs   []int64
	busyNs    int64

	err error
}

// errorf wraps a cell failure with replay context.
func (c *shardCell) errorf(format string, args ...any) error {
	return fmt.Errorf("fabricsim shard [cell=%d t=%gs decisions=%d]: %w",
		c.rack, c.now, c.cDecisions.Value(), fmt.Errorf(format, args...))
}

// allocID mints the next flow ID for traffic generated by this rack.
func (c *shardCell) allocID() flow.ID {
	c.nextSeq++
	return flow.ID(uint64(c.rack+1)<<cellIDShift | c.nextSeq)
}

// prefetch pulls the cell's workload stream through time `to`: every
// intra-rack arrival is queued on localQ (with its stream-order flow
// ID) and every cross-rack arrival is appended to the outbox stamped
// with its delivery time (generation time plus the lookahead; messages
// that could not arrive before the horizon are dropped, mirroring the
// centralized engine's refusal to admit arrivals at t >= Duration).
// The stream is drawn in time order and adding the lookahead is
// monotone, so appending keeps the outbox in delivery order.
//
// This is the sparse-barrier enabler: calling prefetch(batchEnd) before
// a batch guarantees that any cross-rack message materialized LATER —
// by a deeper prefetch or by the next batch — was generated at or after
// batchEnd and therefore delivers at or after batchEnd + lookahead,
// strictly beyond every window the batch will run. Skipped intra-batch
// barriers consequently had nothing to route, and one routing pass with
// the batch-end horizon replaces them exactly.
//
// Pull timing never changes the physics: IDs are minted in stream
// order, the generator's internal event calendar is caller-agnostic,
// and both queues are consumed by simulated time, so every batch size
// admits every arrival at the identical instant.
func (c *shardCell) prefetch(to float64) {
	if c.localPos > 0 {
		n := copy(c.localQ, c.localQ[c.localPos:])
		c.localQ = c.localQ[:n]
		c.localPos = 0
	}
	// The admission slack (timeEps) is part of the horizon: an arrival
	// within timeEps past a window cap is admitted inside that window,
	// so it must be materialized with the batch that runs the window.
	for !c.genDone && c.genT <= to+timeEps {
		a, ok := c.gen.Next()
		if !ok {
			c.genDone = true
			return
		}
		c.genT = a.Time
		id := c.allocID()
		if a.Dst >= c.base && a.Dst < c.base+c.hpr {
			c.localQ = append(c.localQ, localArrival{a: a, id: id})
			continue
		}
		deliver := a.Time + c.look
		if deliver >= c.horizon {
			continue
		}
		c.outbox = append(c.outbox, routedMsg{deliver: deliver, srcCell: c.rack, msg: shardMsg{
			src: a.Src, dst: a.Dst, size: a.Size, class: a.Class,
			genTime: a.Time, id: id,
		}})
		c.cMsgsSent.Inc()
	}
}

// addFlow admits one flow into the cell's table using local port
// indices; globalSrc is remembered for traced proxy flows so their
// completion events can name the true source port.
func (c *shardCell) addFlow(id flow.ID, src, dst int, class flow.Class, size, arrival float64, globalSrc int) {
	c.add(id, src, dst, class, size, arrival)
	if c.remoteSrc != nil && src >= c.hpr {
		c.remoteSrc[id] = globalSrc
	}
}

// nextArrival is the earlier of the local queue's head and the inbox's
// next delivery (+Inf: neither holds one).
func (c *shardCell) nextArrival() float64 {
	t := math.Inf(1)
	if c.localPos < len(c.localQ) {
		t = c.localQ[c.localPos].a.Time
	}
	if c.inboxPos < len(c.inbox) && c.inbox[c.inboxPos].deliver < t {
		t = c.inbox[c.inboxPos].deliver
	}
	return t
}

// admitArrival admits the next arrival in (time, source cell) order — a
// local arrival's source cell is this rack, so a delivery at the same
// instant goes first only from a lower rack. A delivered cross-rack
// arrival enters through the core-proxy ingress port assigned to its
// source (globalSrc mod uplinks — the static core-switch hash of the
// multi-rooted tree).
func (c *shardCell) admitArrival() error {
	remote := c.inboxPos < len(c.inbox)
	if remote && c.localPos < len(c.localQ) {
		in, local := c.inbox[c.inboxPos], c.localQ[c.localPos].a.Time
		remote = in.deliver < local || (in.deliver == local && in.srcCell < c.rack)
	}
	if remote {
		m := c.inbox[c.inboxPos].msg
		c.inboxPos++
		dst := m.dst - c.base
		if dst < 0 || dst >= c.hpr || !positiveFinite(m.size) {
			return fmt.Errorf("misrouted cross-rack arrival %+v", m)
		}
		c.addFlow(m.id, c.hpr+m.src%c.uplinks, dst, m.class, m.size, m.genTime, m.src)
		c.cMsgsDelivered.Inc()
		return nil
	}
	la := c.localQ[c.localPos]
	c.localPos++
	a := la.a
	src, dst := a.Src-c.base, a.Dst-c.base
	if src < 0 || src >= c.hpr || dst < 0 || dst >= c.hpr || src == dst || !positiveFinite(a.Size) {
		return fmt.Errorf("generator produced invalid local arrival %+v", a)
	}
	c.addFlow(la.id, src, dst, a.Class, a.Size, a.Time, a.Src)
	return nil
}

// bufferDone is a traced cell's completion hook: it buffers the flow.done
// event for the barrier replay, naming a proxy-admitted flow by its true
// source host.
func (c *shardCell) bufferDone(f *flow.Flow, fct float64) {
	src := c.base + f.Src
	if f.Src >= c.hpr {
		src = c.remoteSrc[f.ID]
		delete(c.remoteSrc, f.ID)
	}
	c.dones = append(c.dones, cellDone{t: c.now, src: src, fct: fct, class: f.Class.String()})
}

// sample records one queue tick into the cell's window buffer. The
// per-port maximum spans HOST ports only: core-proxy backlog is an
// artifact of the decomposition, not a host queue, though it does count
// toward the cell total (those bytes are genuinely in the fabric).
func (c *shardCell) sample() {
	s := cellSample{t: c.now, total: c.table.TotalBacklog()}
	if c.monitor >= 0 {
		s.monitor = c.table.IngressBacklog(c.monitor)
	}
	maxP, maxB := 0, c.table.IngressBacklog(0)
	for p := 1; p < c.hpr; p++ {
		if b := c.table.IngressBacklog(p); b > maxB {
			maxP, maxB = p, b
		}
	}
	s.maxPort, s.maxB = c.base+maxP, maxB
	c.samples = append(c.samples, s)
}

// runWindow advances the cell to capT, the current window's end, one
// cell.step at a time. Events at exactly capT are processed inside this
// window; window boundaries are global multiples of the lookahead, so the
// split is identical for every shard count and batch size. The inbox may
// hold deliveries beyond capT (routing runs once per batch with the
// batch-end horizon); they are invisible here because the step consults
// the calendar by simulated time.
func (c *shardCell) runWindow(capT float64) {
	c.cWindows.Inc()
	for {
		t, err := c.step(capT, c)
		if err != nil {
			c.err = c.errorf("%w", err)
			return
		}
		if t >= capT {
			return
		}
	}
}

// runTimedWindow stamps one window's wall-clock start and duration
// around runWindow.
func (c *shardCell) runTimedWindow(capT float64, origin time.Time) {
	start := time.Since(origin).Nanoseconds()
	c.runWindow(capT)
	dur := time.Since(origin).Nanoseconds() - start
	c.winStarts = append(c.winStarts, start)
	c.winDurs = append(c.winDurs, dur)
	c.busyNs += dur
}

// runBatch advances the cell through every window of one batch, then
// prefetches the next batch's workload (prefetchTo < 0 skips — final
// batch). Runs on its span's goroutine; touches only cell-local state.
func (c *shardCell) runBatch(capTs []float64, prefetchTo float64, origin time.Time) {
	for _, capT := range capTs {
		if c.err != nil {
			return
		}
		c.runTimedWindow(capT, origin)
	}
	if prefetchTo >= 0 && c.err == nil {
		c.prefetch(prefetchTo)
	}
}

// poolWorker is one span of the decomposed engine: a contiguous
// rack-order run of cells that one goroutine advances per batch. The
// stamps and accumulators are wall-clock plane; the coordinator reads
// them after the batch's join, which orders them.
type poolWorker struct {
	cells []*shardCell

	startNs int64 // current batch start (since run origin)
	endNs   int64 // current batch end
	busyNs  int64 // cumulative batch-execution time
	waitNs  int64 // cumulative barrier-blocked time
}

// exec runs one batch over the span's cells, stamping the batch span.
func (wk *poolWorker) exec(capTs []float64, prefetchTo float64, origin time.Time) {
	wk.startNs = time.Since(origin).Nanoseconds()
	for _, c := range wk.cells {
		c.runBatch(capTs, prefetchTo, origin)
	}
	wk.endNs = time.Since(origin).Nanoseconds()
}

// shardPool is the decomposed engine's barrier: the cells split into
// spans, and each batch forks one goroutine per span and joins them all.
// No goroutine outlives its batch. batchNs accumulates the coordinator's
// wall time inside runBatch, from the fork to the join.
type shardPool struct {
	workers []*poolWorker
	origin  time.Time
	batchNs int64
}

// newShardPool partitions the cells into `workers` contiguous rack-order
// spans (workers never exceeds the cell count) whose sizes differ by at
// most one. The grouping affects wall clock only, never results.
func newShardPool(cells []*shardCell, workers int, origin time.Time) *shardPool {
	p := &shardPool{origin: origin}
	for k := 0; k < workers; k++ {
		lo, hi := k*len(cells)/workers, (k+1)*len(cells)/workers
		p.workers = append(p.workers, &poolWorker{cells: cells[lo:hi:hi]})
	}
	return p
}

// runBatch forks one goroutine per span to run one batch and blocks
// until all have finished — the coordinator barrier.
func (p *shardPool) runBatch(capTs []float64, prefetchTo float64) {
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(len(p.workers))
	for _, wk := range p.workers {
		go func() {
			defer wg.Done()
			wk.exec(capTs, prefetchTo, p.origin)
		}()
	}
	wg.Wait()
	p.batchNs += time.Since(start).Nanoseconds()
}

// runDecomposed is RunShard with the window batch as a parameter: one
// cell per rack advancing in lockstep lookahead windows, batched `batch`
// windows per coordinator barrier, each batch forked across the spans.
// Every barrier-side fold (message routing, trace replay, series and
// metric merges) runs on the calling goroutine in rack order, so results are a pure function of the configuration —
// independent of shard count, batch size, worker count, and GOMAXPROCS.
func runDecomposed(cfg ShardConfig, batch int) (*Result, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("%w: nil topology", ErrShardConfig)
	}
	if cfg.Shards < 2 {
		return nil, fmt.Errorf("%w: shards %d < 2 (the centralized engine is New + Run)", ErrShardConfig, cfg.Shards)
	}
	if !positiveFinite(cfg.Duration) {
		return nil, fmt.Errorf("%w: duration %g not positive and finite", ErrShardConfig, cfg.Duration)
	}
	if !(cfg.Load > 0 && cfg.Load < 1) {
		return nil, fmt.Errorf("%w: load %g outside (0, 1)", ErrShardConfig, cfg.Load)
	}
	if !(cfg.QueryByteFraction >= 0 && cfg.QueryByteFraction <= 1) {
		return nil, fmt.Errorf("%w: query byte fraction %g outside [0, 1]", ErrShardConfig, cfg.QueryByteFraction)
	}
	if cfg.Seed == 0 {
		return nil, fmt.Errorf("%w: seed must be nonzero", ErrShardConfig)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("%w: workers %d < 0", ErrShardConfig, cfg.Workers)
	}
	if cfg.QueryByteFraction == 0 {
		cfg.QueryByteFraction = workload.DefaultQueryByteFraction
	}
	topo := cfg.Topology
	tc := topo.Config()
	look := topo.CoreHopLatency()
	numCells := tc.Racks
	hpr := tc.HostsPerRack

	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Shards {
		workers = cfg.Shards
	}
	if workers > numCells {
		workers = numCells
	}

	firstEnd := float64(batch) * look
	if firstEnd > cfg.Duration {
		firstEnd = cfg.Duration
	}
	cells := make([]*shardCell, numCells)
	for r := range cells {
		opts := cfg.SchedOpts
		seedBase := opts.Seed
		if seedBase == 0 {
			seedBase = cfg.Seed
		}
		opts.Seed = runner.DeriveSeed(seedBase, r)
		scheduler, err := sched.New(cfg.Scheduler, opts)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrShardConfig, err)
		}
		if err := sched.CheckPorts(scheduler, hpr+tc.Cores); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrShardConfig, err)
		}
		gen, err := workload.NewMixed(workload.MixedConfig{
			Topology:          topo,
			Load:              cfg.Load,
			QueryByteFraction: cfg.QueryByteFraction,
			Duration:          cfg.Duration,
			Seed:              runner.DeriveSeed(cfg.Seed, r),
			SrcLo:             r * hpr,
			SrcHi:             (r + 1) * hpr,
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrShardConfig, err)
		}
		c := &shardCell{
			cell: newCell(hpr+tc.Cores, topo.HostLinkBps()/8, cfg.Duration, cfg.Duration/samplesPerRun, scheduler, nil, &Result{
				FCT:        metrics.NewFCT(),
				Throughput: metrics.NewThroughput(cfg.Duration / bucketsPerRun),
			}),
			rack:    r,
			base:    r * hpr,
			hpr:     hpr,
			uplinks: tc.Cores,
			look:    look,
			monitor: -1,
			gen:     gen,
		}
		c.validate = cfg.ValidateDecisions
		if monitorPort/hpr == r {
			c.monitor = monitorPort % hpr
		}
		if cfg.Obs != nil {
			c.remoteSrc = make(map[flow.ID]int)
			c.done = c.bufferDone
		}
		c.reg = obs.NewRegistry()
		c.cDecisions = c.reg.Counter("cell.decisions")
		c.cSchedNanos = c.reg.Counter("wall.sched_nanos")
		c.cMsgsSent = c.reg.Counter("cell.msgs_sent")
		c.cMsgsDelivered = c.reg.Counter("cell.msgs_delivered")
		c.cWindows = c.reg.Counter("cell.windows")
		c.prefetch(firstEnd)
		cells[r] = c
	}

	res := &Result{
		FCT:           metrics.NewFCT(),
		Throughput:    metrics.NewThroughput(cfg.Duration / bucketsPerRun),
		Duration:      cfg.Duration,
		SchedulerName: cells[0].scheduler.Name(),
	}
	// Wall-clock plane: every cell-window is stamped against this origin
	// (two clock reads per cell-window — cheap enough to keep always-on),
	// feeding the barrier-wait accounting, the imbalance report, and the
	// optional Timeline.
	origin := time.Now()
	pool := newShardPool(cells, workers, origin)

	capTs := make([]float64, 0, batch)
	w, windows, barriers := 0, 0, 0
	loopStart := time.Now()
	for b := 0; ; b++ {
		capTs = capTs[:0]
		for j := 0; j < batch; j++ {
			capT := float64(w+j+1) * look
			if capT >= cfg.Duration {
				capTs = append(capTs, cfg.Duration)
				break
			}
			capTs = append(capTs, capT)
		}
		end := capTs[len(capTs)-1]
		last := end >= cfg.Duration
		prefetchTo := -1.0
		if !last {
			// One window past the next batch's widest possible end is still
			// safe (deeper prefetch only moves messages into outboxes
			// earlier); what matters is covering at least the next batch.
			next := float64(w+len(capTs)+batch) * look
			if next > cfg.Duration {
				next = cfg.Duration
			}
			prefetchTo = next
		}
		// Route before the batch: one pass with the batch-end horizon
		// replaces the skipped intra-batch barriers — by the prefetch
		// contract every message deliverable inside the batch is already
		// in an outbox. The horizon carries the admission slack so a
		// message within timeEps of a window cap lands with the batch
		// that admits it, at every batch size.
		routeStart := time.Since(origin).Nanoseconds()
		routeOutboxes(cells, end+2*timeEps, hpr)
		cfg.Timeline.Add(obs.TimelineSpan{
			Track: obs.TimelineCoordinator, Name: "route", Window: b,
			StartNs: routeStart, DurNs: time.Since(origin).Nanoseconds() - routeStart,
		})
		pool.runBatch(capTs, prefetchTo)
		for _, c := range cells {
			if c.err != nil {
				return nil, c.err
			}
		}
		windows += len(capTs)
		barriers++
		accountBatch(cells, pool, b, w, cfg.Timeline)
		foldStart := time.Since(origin).Nanoseconds()
		if err := foldBatch(cells, res, cfg); err != nil {
			return nil, err
		}
		cfg.Timeline.Add(obs.TimelineSpan{
			Track: obs.TimelineCoordinator, Name: "fold", Window: b,
			StartNs: foldStart, DurNs: time.Since(origin).Nanoseconds() - foldStart,
		})
		if cfg.OnWindow != nil {
			p := ShardProgress{
				SimTime: end, Duration: cfg.Duration,
				Window: w + len(capTs) - 1, Barrier: b,
				WindowsPerBarrier: float64(windows) / float64(barriers),
				Cells:             numCells, Workers: len(pool.workers),
				CellBusyNs: make([]int64, numCells),
			}
			for i, c := range cells {
				p.Decisions += c.cDecisions.Value()
				p.ArrivedFlows += c.res.ArrivedFlows
				p.CompletedFlows += c.res.CompletedFlows
				p.CellBusyNs[i] = c.busyNs
			}
			cfg.OnWindow(p)
		}
		w += len(capTs)
		if last {
			break
		}
	}
	return mergeCells(cells, res, cfg, windows, barriers, pool, time.Since(loopStart).Nanoseconds())
}

// accountBatch folds one batch's wall-clock stamps into the per-worker
// busy/barrier-wait accumulators and, when a Timeline is attached,
// records the cells' spans in rack order — a deterministic span sequence
// regardless of how the worker goroutines interleaved. The barrier is
// modeled as ending when the slowest worker finished its batch (the
// coordinator's own fold work is tracked separately).
func accountBatch(cells []*shardCell, pool *shardPool, barrier, firstWindow int, tl *obs.Timeline) {
	barrierEnd := int64(0)
	for _, wk := range pool.workers {
		if wk.endNs > barrierEnd {
			barrierEnd = wk.endNs
		}
	}
	for _, wk := range pool.workers {
		wk.busyNs += wk.endNs - wk.startNs
		wk.waitNs += barrierEnd - wk.endNs
	}
	for _, c := range cells {
		n := len(c.winStarts)
		for j := 0; j < n; j++ {
			tl.Add(obs.TimelineSpan{Track: c.rack, Name: "window", Window: firstWindow + j,
				StartNs: c.winStarts[j], DurNs: c.winDurs[j]})
		}
		cellStart, cellEnd := int64(0), int64(0)
		if n > 0 {
			cellStart = c.winStarts[0]
			cellEnd = c.winStarts[n-1] + c.winDurs[n-1]
		}
		tl.Add(obs.TimelineSpan{Track: c.rack, Name: "batch", Window: barrier,
			StartNs: cellStart, DurNs: cellEnd - cellStart})
		c.winStarts = c.winStarts[:0]
		c.winDurs = c.winDurs[:0]
	}
}

// routeOutboxes moves every cross-rack message deliverable before
// `horizon` (exclusive — the end of the batch about to run, plus the
// admission slack) from source outboxes into destination inboxes in
// global (delivery time, source cell, outbox order) order. By the
// conservative-lookahead argument every such message already exists: a
// message delivered inside a batch was generated at least one lookahead
// earlier, inside the horizon the previous barrier's prefetch pulled
// through.
//
// There is no global sort. Each outbox is in delivery order, so the
// messages to move are its prefix below the horizon. Sources are walked
// in rack order and append that prefix to the destination inboxes, so
// each inbox's new messages arrive grouped by (source cell, outbox
// order); a stable sort on delivery time alone then yields the full
// merge key. Everything an inbox kept from earlier routes delivers
// before the previous horizon, and every message below that horizon was
// routed then, so the sort only moves new messages and inboxes stay
// sorted under positional consumption.
func routeOutboxes(cells []*shardCell, horizon float64, hpr int) {
	for _, c := range cells {
		if c.inboxPos > 0 {
			n := copy(c.inbox, c.inbox[c.inboxPos:])
			c.inbox = c.inbox[:n]
			c.inboxPos = 0
		}
	}
	for _, c := range cells {
		n := 0
		for ; n < len(c.outbox) && c.outbox[n].deliver < horizon; n++ {
			dst := cells[c.outbox[n].msg.dst/hpr]
			dst.inbox = append(dst.inbox, c.outbox[n])
		}
		// Compact in place, as inboxes are: the array is reused at a
		// steady size instead of growing with every message ever sent.
		c.outbox = c.outbox[:copy(c.outbox, c.outbox[n:])]
	}
	for _, c := range cells {
		sortByDelivery(c.inbox)
	}
}

// sortByDelivery stably sorts an inbox by delivery time: an insertion
// sort that binary-searches each out-of-order message's slot and shifts
// the tail with one copy. Only messages from different sources that land
// in the same route can be out of order, so on the typical inbox (a
// handful of new messages per barrier) it costs little more than one
// pass, less than a general stable sort.
func sortByDelivery(in []routedMsg) {
	for i := 1; i < len(in); i++ {
		m := in[i]
		if m.deliver >= in[i-1].deliver {
			continue
		}
		// After every message delivering no later than m: stable.
		j := sort.Search(i, func(k int) bool { return in[k].deliver > m.deliver })
		copy(in[j+1:i+1], in[j:i])
		in[j] = m
	}
}

// foldBatch merges one batch's per-cell sample ticks into the global
// series and replays buffered trace events in deterministic order:
// completions sorted by (time, cell, cell-local sequence), interleaved
// before each tick's sample.queue / sample.total / sample.maxport
// triplet exactly as the centralized engine orders them. Then it resets
// the per-cell buffers.
//
// One pass over the batch is byte-identical to folding at dense
// per-window barriers: every cell splits time at the same window caps,
// and window k's completions and ticks all lie in (cap₍k−1₎, cap_k], so
// the stable time sort keeps each window's completions behind the
// previous window's ticks and ahead of the next window's.
func foldBatch(cells []*shardCell, res *Result, cfg ShardConfig) error {
	ref := cells[0].samples
	nticks := len(ref)
	for _, c := range cells {
		if n := len(c.samples); n != nticks {
			return fmt.Errorf("fabricsim shard: cell %d recorded %d sample ticks, cell 0 recorded %d",
				c.rack, n, nticks)
		}
	}
	var merged []cellDone
	if cfg.Obs != nil {
		for _, c := range cells {
			merged = append(merged, c.dones...)
		}
		sort.SliceStable(merged, func(i, j int) bool { return merged[i].t < merged[j].t })
	}
	di := 0
	for i := 0; i < nticks; i++ {
		t := ref[i].t
		var queue, total float64
		maxPort, maxB := ref[i].maxPort, ref[i].maxB
		for _, c := range cells {
			s := c.samples[i]
			total += s.total
			if c.monitor >= 0 {
				queue = s.monitor
			}
			if s.maxB > maxB {
				maxPort, maxB = s.maxPort, s.maxB
			}
		}
		for di < len(merged) && merged[di].t <= t {
			cfg.Obs.Emit(merged[di].t, "flow.done", merged[di].src, merged[di].fct, merged[di].class)
			di++
		}
		res.QueueSeries.Add(t, queue)
		res.TotalBacklogSeries.Add(t, total)
		res.MaxPortSeries.Add(t, maxB)
		cfg.Obs.Emit(t, "sample.queue", monitorPort, queue, "")
		cfg.Obs.Emit(t, "sample.total", -1, total, "")
		cfg.Obs.Emit(t, "sample.maxport", maxPort, maxB, "")
	}
	for di < len(merged) {
		cfg.Obs.Emit(merged[di].t, "flow.done", merged[di].src, merged[di].fct, merged[di].class)
		di++
	}
	for _, c := range cells {
		c.samples = c.samples[:0]
		c.dones = c.dones[:0]
	}
	return nil
}

// mergeCells folds the per-cell metrics into the global Result in rack
// order — the fixed fold order that makes every float accumulation
// (FCT sums, sample order, throughput buckets) a pure function of the
// per-cell streams — and seals the instrumentation registry the way
// the centralized finish() does.
func mergeCells(cells []*shardCell, res *Result, cfg ShardConfig, windows, barriers int, pool *shardPool, loopNs int64) (*Result, error) {
	reg := cfg.Obs.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	var poolReuses int64
	var poolSize, highWater int
	for _, c := range cells {
		res.FCT.Merge(c.res.FCT)
		res.Throughput.Merge(c.res.Throughput)
		res.ArrivedFlows += c.res.ArrivedFlows
		res.CompletedFlows += c.res.CompletedFlows
		res.ArrivedBytes += c.res.ArrivedBytes
		res.DepartedBytes += c.res.DepartedBytes
		res.LeftoverBytes += c.table.TotalBacklog()
		res.LeftoverFlows += c.table.NumFlows()
		res.Decisions += c.cDecisions.Value()
		res.SchedNanos += c.cSchedNanos.Value()
		res.Faults.GrantsLost += recordSchedStats(reg, c.scheduler)
		if hw := c.gen.QueueHighWater(); hw > highWater {
			highWater = hw
		}
		poolReuses += c.pool.Reuses()
		poolSize += c.pool.Len()
	}
	reg.Counter("fabric.decisions").Add(res.Decisions)
	reg.Counter("fabric.sched_nanos").Add(res.SchedNanos)
	reg.Counter("fabric.arrived_flows").Add(int64(res.ArrivedFlows))
	reg.Counter("fabric.completed_flows").Add(int64(res.CompletedFlows))
	reg.Gauge("eventq.high_water").Set(float64(highWater))
	reg.Counter("flow.pool_reuses").Add(poolReuses)
	reg.Gauge("flow.pool_size").Set(float64(poolSize))

	// Per-cell attribution: seal each cell's deterministic-plane registry
	// (plus its wall-clock busy counter, filtered out of digests by
	// obs.IsWallClock) and fold the snapshots into the Result in rack
	// order. The global registry gets the wall-clock totals and the
	// Result gets the imbalance report.
	im := &ShardImbalance{
		Cells:             len(cells),
		Windows:           windows,
		Barriers:          barriers,
		WindowsPerBarrier: float64(windows) / float64(barriers),
		Workers:           len(pool.workers),
		BusyNs:            make([]int64, len(cells)),
		WorkerBusyNs:      make([]int64, len(pool.workers)),
		WorkerWaitNs:      make([]int64, len(pool.workers)),
	}
	var totalBusy int64
	for i, c := range cells {
		c.reg.Gauge("cell.eventq_high_water").Set(float64(c.gen.QueueHighWater()))
		c.reg.Counter("wall.busy_ns").Add(c.busyNs)
		res.ShardObs = append(res.ShardObs, c.reg.Snapshot())
		im.BusyNs[i] = c.busyNs
		if c.busyNs > im.BusyNs[im.SlowestCell] {
			im.SlowestCell = i
		}
		totalBusy += c.busyNs
	}
	var workerBusy, workerWait int64
	for g, wk := range pool.workers {
		im.WorkerBusyNs[g] = wk.busyNs
		im.WorkerWaitNs[g] = wk.waitNs
		workerBusy += wk.busyNs
		workerWait += wk.waitNs
	}
	if workerBusy+workerWait > 0 {
		im.BarrierWaitFraction = float64(workerWait) / float64(workerBusy+workerWait)
	}
	if totalBusy > 0 {
		im.SkewRatio = float64(im.BusyNs[im.SlowestCell]) / (float64(totalBusy) / float64(len(cells)))
	}
	im.CoordinatorNs = loopNs - pool.batchNs
	if loopNs > 0 {
		im.SerialFraction = float64(im.CoordinatorNs) / float64(loopNs)
	}
	res.Imbalance = im
	reg.Counter("wall.busy_ns").Add(totalBusy)
	reg.Counter("wall.worker_busy_ns").Add(workerBusy)
	reg.Counter("wall.worker_wait_ns").Add(workerWait)
	reg.Counter("wall.coordinator_ns").Add(im.CoordinatorNs)
	reg.Gauge("wall.windows_per_barrier").Set(im.WindowsPerBarrier)
	reg.Gauge("wall.workers").Set(float64(len(pool.workers)))

	res.Obs = reg.Snapshot()
	return res, nil
}
