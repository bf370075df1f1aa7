package ops

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"basrpt/internal/fabricsim"
	"basrpt/internal/obs"
	"basrpt/internal/runner"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	reg := obs.NewRegistry()
	reg.Counter("fabric.decisions").Add(123)
	reg.Gauge("sample.queue_mb").Set(4.5)
	h := reg.Histogram("wall.window_ns")
	h.Observe(3)
	h.Observe(900)
	s.PublishSnapshot(reg.Snapshot())
	s.PublishRun(fabricsim.RunProgress{
		SimTime: 1.5, Duration: 3, Windows: 60, Decisions: 123, ArrivedFlows: 10, CompletedFlows: 7,
		BacklogBytes: 2.5e6,
	})
	s.PublishShard(fabricsim.ShardImbalance{
		Cells: 2, Windows: 60, Barriers: 8, WindowsPerBarrier: 7.5, Workers: 2,
		BusyNs:              []int64{2_500_000_000, 1_000_000_000},
		WorkerBusyNs:        []int64{2_500_000_000, 1_000_000_000},
		WorkerWaitNs:        []int64{0, 1_500_000_000},
		BarrierWaitFraction: 0.25, SerialFraction: 0.125, SkewRatio: 1.5,
	})
	s.PublishUnit(runner.Progress{Phase: runner.PhaseStart, Done: 0, Total: 2, Task: "srpt/0.8", Seed: 11})
	s.PublishUnit(runner.Progress{Phase: runner.PhaseDone, Done: 1, Total: 2, Task: "srpt/0.8", Seed: 11})
	s.PublishUnit(runner.Progress{Phase: runner.PhaseFailed, Done: 2, Total: 2, Task: "srpt/0.9", Seed: 12, Err: errors.New("boom")})

	code, body := get(t, s.URL()+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE basrpt_fabric_decisions counter",
		"basrpt_fabric_decisions 123",
		"basrpt_sample_queue_mb 4.5",
		"basrpt_sample_queue_mb_max 4.5",
		"# TYPE basrpt_wall_window_ns histogram",
		`basrpt_wall_window_ns_bucket{le="4"} 1`,
		`basrpt_wall_window_ns_bucket{le="1024"} 2`,
		`basrpt_wall_window_ns_bucket{le="+Inf"} 2`,
		"basrpt_wall_window_ns_count 2",
		"basrpt_run_sim_time_seconds 1.5",
		"basrpt_run_percent_done 50",
		"basrpt_run_windows 60",
		"basrpt_run_backlog_bytes 2.5e+06",
		"basrpt_units_done 2",
		"basrpt_units_total 2",
		"# TYPE basrpt_shard_windows_per_barrier gauge",
		"basrpt_shard_windows_per_barrier 7.5",
		"basrpt_shard_barriers 8",
		"basrpt_shard_workers 2",
		"# TYPE basrpt_shard_barrier_wait_fraction gauge",
		"basrpt_shard_barrier_wait_fraction 0.25",
		"basrpt_shard_serial_fraction 0.125",
		"basrpt_shard_skew_ratio 1.5",
		`basrpt_shard_cell_busy_seconds{cell="0"} 2.5`,
		`basrpt_shard_cell_busy_seconds{cell="1"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, body = get(t, s.URL()+"/progress")
	if code != 200 {
		t.Fatalf("/progress status %d", code)
	}
	var doc struct {
		UptimeS    float64                   `json:"uptime_s"`
		Run        *fabricsim.RunProgress    `json:"run"`
		Percent    float64                   `json:"percent_done"`
		Shard      *fabricsim.ShardImbalance `json:"shard"`
		UnitsDone  int                       `json:"units_done"`
		UnitsTotal int                       `json:"units_total"`
		Seeds      []SeedState               `json:"seeds"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if doc.Run == nil || doc.Run.SimTime != 1.5 || doc.Run.BacklogBytes != 2.5e6 || doc.Percent != 50 {
		t.Fatalf("run state wrong: %s", body)
	}
	if doc.Shard == nil || doc.Shard.Barriers != 8 || doc.Shard.WindowsPerBarrier != 7.5 ||
		len(doc.Shard.BusyNs) != 2 || doc.Shard.SerialFraction != 0.125 {
		t.Fatalf("shard state wrong: %s", body)
	}
	// The wire keys are the engines' own: the run's are RunProgress's
	// tags and the shard's are the `imbalance` block of basrptsim -json.
	var keys struct {
		Run   map[string]any `json:"run"`
		Shard map[string]any `json:"shard"`
	}
	if err := json.Unmarshal([]byte(body), &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"sim_time_s", "duration_s", "windows", "decisions", "arrived_flows", "completed_flows", "backlog_bytes"} {
		if _, ok := keys.Run[k]; !ok {
			t.Errorf("/progress run lacks %q: %s", k, body)
		}
	}
	for _, k := range []string{"cells", "windows", "barriers", "windows_per_barrier", "workers", "busy_ns",
		"worker_busy_ns", "worker_wait_ns", "slowest_cell", "barrier_wait_fraction", "coordinator_ns",
		"serial_fraction", "skew_ratio"} {
		if _, ok := keys.Shard[k]; !ok {
			t.Errorf("/progress shard lacks %q: %s", k, body)
		}
	}
	if doc.UnitsDone != 2 || doc.UnitsTotal != 2 {
		t.Fatalf("units %d/%d, want 2/2: %s", doc.UnitsDone, doc.UnitsTotal, body)
	}
	if len(doc.Seeds) != 2 {
		t.Fatalf("seeds = %+v, want 2 entries", doc.Seeds)
	}
	if doc.Seeds[0].Phase != "done" || doc.Seeds[1].Phase != "failed" || doc.Seeds[1].Error != "boom" {
		t.Fatalf("seed states wrong: %+v", doc.Seeds)
	}

	code, _ = get(t, s.URL()+"/debug/pprof/cmdline")
	if code != 200 {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
	code, body = get(t, s.URL()+"/")
	if code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index status %d body %q", code, body)
	}
	code, _ = get(t, s.URL()+"/nope")
	if code != 404 {
		t.Fatalf("unknown path status %d, want 404", code)
	}
}

func TestWriteMetricsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, obs.Snapshot{}, nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty snapshot should render nothing, got %q", buf.String())
	}
}

func TestMetricNameMangling(t *testing.T) {
	cases := map[string]string{
		"fabric.decisions":   "basrpt_fabric_decisions",
		"wall.barrier-wait":  "basrpt_wall_barrier_wait",
		"Cell.MsgsSent":      "basrpt_Cell_MsgsSent",
		"weird name/metric!": "basrpt_weird_name_metric_",
	}
	for in, want := range cases {
		if got := metricName(in); got != want {
			t.Errorf("metricName(%q) = %q, want %q", in, got, want)
		}
	}
}
