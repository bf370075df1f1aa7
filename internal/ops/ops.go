// Package ops serves the live operations endpoint for long-running
// simulations: a Prometheus text-format /metrics view of the latest
// observability snapshot, a /progress JSON document (the engines' own
// heartbeat values — fabricsim.RunProgress from either engine, the
// decomposed engine's live fabricsim.ShardImbalance — and per-seed
// runner states), and the standard net/http/pprof profiling handlers.
// It is the network face of the wall-clock observability plane —
// everything served here is advisory and nondeterministic, and nothing
// the server observes can reach a deterministic artifact (the publish
// methods copy values in; the simulation never reads back).
//
// Concurrency: a Server is safe for concurrent use. Publish* methods
// may be called from any goroutine (simulation callbacks, runner
// workers); handlers render under the same mutex, so a scrape sees a
// consistent snapshot.
package ops

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"basrpt/internal/fabricsim"
	"basrpt/internal/obs"
	"basrpt/internal/runner"
)

// SeedState is the last observed lifecycle phase of one (task, seed)
// runner unit, for the /progress seeds table.
type SeedState struct {
	Task  string `json:"task"`
	Seed  uint64 `json:"seed"`
	Phase string `json:"phase"`
	Error string `json:"error,omitempty"`
}

// Server is the live ops HTTP server. Construct with NewServer, feed it
// via the Publish* methods, and Close it when the run ends.
type Server struct {
	mu      sync.Mutex
	started time.Time
	snap    obs.Snapshot
	run     *fabricsim.RunProgress
	shard   *fabricsim.ShardImbalance
	units   map[string]int // (task,seed) key -> index into seeds
	seeds   []SeedState
	done    int
	total   int

	ln  net.Listener
	srv *http.Server
}

// NewServer listens on addr (host:port; port 0 picks a free port) and
// starts serving immediately. The caller owns the returned server and
// must Close it.
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ops: listen %s: %w", addr, err)
	}
	s := &Server{started: time.Now(), ln: ln, units: map[string]int{}}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "basrpt ops endpoint\n/metrics\n/progress\n/debug/pprof/\n")
	})
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string {
	addr := s.Addr()
	// net.Listen("tcp", ":9090") binds the wildcard address; rewrite it
	// to a dialable host for display.
	if host, port, err := net.SplitHostPort(addr); err == nil {
		if ip := net.ParseIP(host); ip != nil && ip.IsUnspecified() {
			addr = net.JoinHostPort("127.0.0.1", port)
		}
	}
	return "http://" + addr
}

// Close stops the listener and releases the port.
func (s *Server) Close() error { return s.srv.Close() }

// PublishSnapshot replaces the observability snapshot served by
// /metrics. Hand it a point-in-time obs.Snapshot copy; the server never
// touches live registries.
func (s *Server) PublishSnapshot(snap obs.Snapshot) {
	s.mu.Lock()
	s.snap = snap
	s.mu.Unlock()
}

// PublishRun replaces the run position served by /metrics and
// /progress. Its signature is Config.OnProgress's, so the centralized
// heartbeat wires to it directly; the decomposed engine's ShardProgress
// carries the same value.
func (s *Server) PublishRun(r fabricsim.RunProgress) {
	s.mu.Lock()
	s.run = &r
	s.mu.Unlock()
}

// PublishShard replaces the decomposed engine's attribution report
// served by /metrics and /progress. The slices are retained, not copied
// — hand the server its own copies (ShardProgress.Imbalance is one).
func (s *Server) PublishShard(im fabricsim.ShardImbalance) {
	s.mu.Lock()
	s.shard = &im
	s.mu.Unlock()
}

// PublishUnit folds one runner lifecycle callback into the per-seed
// state table. Wire it directly as (or from) a runner.Config.OnProgress
// callback; the runner already serializes callbacks, but PublishUnit
// locks anyway so other publishers can interleave.
func (s *Server) PublishUnit(p runner.Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total = p.Total
	if p.Phase.Terminal() {
		s.done = p.Done
	}
	key := fmt.Sprintf("%s\x00%d", p.Task, p.Seed)
	i, ok := s.units[key]
	if !ok {
		i = len(s.seeds)
		s.units[key] = i
		s.seeds = append(s.seeds, SeedState{Task: p.Task, Seed: p.Seed})
	}
	s.seeds[i].Phase = string(p.Phase)
	if p.Err != nil {
		s.seeds[i].Error = p.Err.Error()
	}
}

// progressDoc is the /progress JSON shape.
type progressDoc struct {
	UptimeS    float64                   `json:"uptime_s"`
	Run        *fabricsim.RunProgress    `json:"run,omitempty"`
	PercentRun float64                   `json:"percent_done,omitempty"`
	Shard      *fabricsim.ShardImbalance `json:"shard,omitempty"`
	UnitsDone  int                       `json:"units_done"`
	UnitsTotal int                       `json:"units_total"`
	Seeds      []SeedState               `json:"seeds,omitempty"`
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	doc := progressDoc{
		UptimeS:    time.Since(s.started).Seconds(),
		UnitsDone:  s.done,
		UnitsTotal: s.total,
		Seeds:      append([]SeedState(nil), s.seeds...),
	}
	if s.run != nil {
		r := *s.run
		doc.Run = &r
		doc.PercentRun = r.PercentDone()
	}
	if s.shard != nil {
		sh := *s.shard
		doc.Shard = &sh
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc) //nolint:errcheck // best-effort network write
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	snap := s.snap
	var run *fabricsim.RunProgress
	if s.run != nil {
		r := *s.run
		run = &r
	}
	var shard *fabricsim.ShardImbalance
	if s.shard != nil {
		sh := *s.shard
		shard = &sh
	}
	done, total := s.done, s.total
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w, snap, run, done, total) //nolint:errcheck // best-effort network write
	if shard != nil {
		WriteShardMetrics(w, shard) //nolint:errcheck // best-effort network write
	}
}

// metricName mangles an obs instrument name into a Prometheus metric
// name: the basrpt_ namespace plus the instrument name with every
// non-alphanumeric rune replaced by '_' (obs names use dots).
func metricName(name string) string {
	var b strings.Builder
	b.WriteString("basrpt_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}

// WriteMetrics renders an observability snapshot plus optional run/unit
// state in the Prometheus text exposition format (version 0.0.4):
// counters as counters, gauges as a pair of gauges (last value and
// high-water), histograms as cumulative le-bucketed histograms with the
// mandatory +Inf bucket, _sum, and _count series. Instruments appear in
// snapshot (sorted-name) order.
func WriteMetrics(w io.Writer, snap obs.Snapshot, run *fabricsim.RunProgress, unitsDone, unitsTotal int) error {
	for _, c := range snap.Counters {
		n := metricName(c.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, c.Value); err != nil {
			return err
		}
	}
	for _, g := range snap.Gauges {
		n := metricName(g.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n# TYPE %s_max gauge\n%s_max %g\n",
			n, n, g.Value, n, n, g.Max); err != nil {
			return err
		}
	}
	for _, h := range snap.Histograms {
		n := metricName(h.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		// obs buckets are per-bucket counts with power-of-two upper
		// edges; Prometheus wants cumulative counts.
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", n, b.Le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
			n, h.Count, n, h.Sum, n, h.Count); err != nil {
			return err
		}
	}
	if run != nil {
		for _, kv := range []struct {
			name string
			v    float64
		}{
			{"basrpt_run_sim_time_seconds", run.SimTime},
			{"basrpt_run_duration_seconds", run.Duration},
			{"basrpt_run_percent_done", run.PercentDone()},
			{"basrpt_run_windows", float64(run.Windows)},
			{"basrpt_run_decisions", float64(run.Decisions)},
			{"basrpt_run_arrived_flows", float64(run.ArrivedFlows)},
			{"basrpt_run_completed_flows", float64(run.CompletedFlows)},
			{"basrpt_run_backlog_bytes", run.BacklogBytes},
		} {
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", kv.name, kv.name, kv.v); err != nil {
				return err
			}
		}
	}
	if unitsTotal > 0 {
		if _, err := fmt.Fprintf(w, "# TYPE basrpt_units_done gauge\nbasrpt_units_done %d\n# TYPE basrpt_units_total gauge\nbasrpt_units_total %d\n",
			unitsDone, unitsTotal); err != nil {
			return err
		}
	}
	return nil
}

// WriteShardMetrics renders the decomposed engine's attribution report
// as the basrpt_shard_* Prometheus family: barrier cadence, span count
// and the barrier-wait, serial and skew shares as scalar gauges, plus
// per-cell busy seconds as a cell-labeled gauge series (one sample per
// rack, labeled cell="<rack>").
func WriteShardMetrics(w io.Writer, im *fabricsim.ShardImbalance) error {
	for _, kv := range []struct {
		name string
		v    float64
	}{
		{"basrpt_shard_barriers", float64(im.Barriers)},
		{"basrpt_shard_windows_per_barrier", im.WindowsPerBarrier},
		{"basrpt_shard_cells", float64(im.Cells)},
		{"basrpt_shard_workers", float64(im.Workers)},
		{"basrpt_shard_barrier_wait_fraction", im.BarrierWaitFraction},
		{"basrpt_shard_serial_fraction", im.SerialFraction},
		{"basrpt_shard_skew_ratio", im.SkewRatio},
	} {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", kv.name, kv.name, kv.v); err != nil {
			return err
		}
	}
	if len(im.BusyNs) > 0 {
		if _, err := fmt.Fprintf(w, "# TYPE basrpt_shard_cell_busy_seconds gauge\n"); err != nil {
			return err
		}
		for i, ns := range im.BusyNs {
			if _, err := fmt.Fprintf(w, "basrpt_shard_cell_busy_seconds{cell=\"%d\"} %g\n", i, float64(ns)/1e9); err != nil {
				return err
			}
		}
	}
	return nil
}
