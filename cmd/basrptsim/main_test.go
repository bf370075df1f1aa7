package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"basrpt"
)

func TestRunTextOutput(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-scheduler", "fast-basrpt", "-racks", "2", "-hosts", "3",
		"-duration", "0.3", "-load", "0.5",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fast-basrpt", "throughput", "query FCT", "queue trend"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-scheduler", "srpt", "-racks", "2", "-hosts", "3",
		"-duration", "0.3", "-load", "0.5", "-json",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var got summary
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if got.Scheduler != "srpt" || got.Hosts != 6 {
		t.Fatalf("summary = %+v", got)
	}
	if got.CompletedFlows == 0 || got.ThroughputGbps <= 0 {
		t.Fatalf("empty metrics: %+v", got)
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	cases := []struct {
		args []string
		want string // a substring the error must carry, when set
	}{
		{args: []string{"-scheduler", "bogus"}},
		{args: []string{"-load", "1.5", "-racks", "2", "-hosts", "3"}},
		{args: []string{"-racks", "0"}},
		{args: []string{"-unknownflag"}},
		// Each engine rejects the flags only the other one reads.
		{args: []string{"-checkpoint", "ck.bin", "-shards", "2", "-racks", "2", "-hosts", "3"}},
		{args: []string{"-halt-after-checkpoint", "-shards", "2", "-racks", "2", "-hosts", "3"}},
		{args: []string{"-halt-after-checkpoint", "-racks", "2", "-hosts", "3"}},
		{args: []string{"-workers", "3", "-racks", "2", "-hosts", "3"}},
		{args: []string{"-timeline", "tl.json", "-racks", "2", "-hosts", "3"}},
		// Non-finite and negative values fail up front, naming the value,
		// instead of hanging, panicking or running.
		{args: []string{"-duration", "NaN", "-racks", "2", "-hosts", "3"}, want: "NaN"},
		{args: []string{"-duration", "Inf", "-racks", "2", "-hosts", "3"}, want: "Inf"},
		{args: []string{"-duration", "NaN", "-shards", "2", "-racks", "2", "-hosts", "3"}, want: "NaN"},
		{args: []string{"-load", "NaN", "-racks", "2", "-hosts", "3"}, want: "NaN"},
		{args: []string{"-queryfrac", "NaN", "-racks", "2", "-hosts", "3"}, want: "NaN"},
		{args: []string{"-window", "NaN", "-racks", "2", "-hosts", "3"}, want: "NaN"},
		{args: []string{"-v", "-1", "-racks", "2", "-hosts", "3"}, want: "-1"},
		{args: []string{"-v", "NaN", "-racks", "2", "-hosts", "3"}, want: "NaN"},
		{args: []string{"-v", "Inf", "-racks", "2", "-hosts", "3"}, want: "Inf"},
		{args: []string{"-scheduler", "threshold", "-threshold", "NaN", "-racks", "2", "-hosts", "3"}, want: "NaN"},
		{args: []string{"-checkpoint", "ck.bin", "-checkpointevery", "-1", "-racks", "2", "-hosts", "3"}, want: "-1"},
		// Seed 0 would otherwise share another seed's schedule.
		{args: []string{"-faults", "-faultseed", "0", "-racks", "2", "-hosts", "3"}, want: "seed must be nonzero"},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		// The short default horizon goes first, so a row's own -duration
		// wins.
		err := run(append([]string{"-duration", "0.1"}, tc.args...), &buf)
		if err == nil {
			t.Fatalf("args %v accepted", tc.args)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: error %q does not name %q", tc.args, err, tc.want)
		}
	}
}

// TestRunSeriesRejectsBadArgs: -series fails on a prefix it cannot write
// and, like -faults, with the decomposed engine.
func TestRunSeriesRejectsBadArgs(t *testing.T) {
	cases := [][]string{
		{"-series", "/nonexistent-dir/xx", "-racks", "2", "-hosts", "2", "-load", "0.4"},
		{"-series", "out", "-shards", "2", "-racks", "2", "-hosts", "2"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(append(args, "-duration", "0.1"), &buf); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestRunRejectsCentralizedShardSpelling: the centralized engine has one
// spelling, the default -shards 0. -shards 1 and negative counts fail
// with an error naming both valid forms.
func TestRunRejectsCentralizedShardSpelling(t *testing.T) {
	for _, n := range []string{"1", "-1"} {
		var buf bytes.Buffer
		err := run([]string{"-shards", n, "-racks", "2", "-hosts", "3", "-duration", "0.1"}, &buf)
		if err == nil {
			t.Fatalf("-shards %s accepted", n)
		}
		for _, want := range []string{"0", ">= 2"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("-shards %s error %q does not name %q", n, err, want)
			}
		}
	}
}

// TestRunBothEngines pins basrptsim's digests for both engines and checks
// the decomposed engine's report: its JSON names the shard count and
// carries a per-cell imbalance report, its text has the shard-count title
// and the imbalance line, and -timeline writes a file.
func TestRunBothEngines(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		shards int
		digest string
	}{
		{[]string{"-shards", "2", "-racks", "2", "-hosts", "3", "-duration", "0.002", "-load", "0.5"}, 2, "8c950606034dcabf"},
		{[]string{"-racks", "2", "-hosts", "3", "-duration", "0.3", "-load", "0.5"}, 0, "e9096672dfe30f4f"},
	} {
		var buf bytes.Buffer
		if err := run(append(tc.args, "-json"), &buf); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		var got summary
		if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
			t.Fatalf("%v: invalid JSON: %v\n%s", tc.args, err, buf.String())
		}
		if got.Digest != tc.digest || got.Shards != tc.shards {
			t.Fatalf("%v: digest %s shards %d, want %s and %d", tc.args, got.Digest, got.Shards, tc.digest, tc.shards)
		}
		switch im := got.Imbalance; {
		case tc.shards == 0 && im != nil:
			t.Fatalf("%v: centralized run has an imbalance report", tc.args)
		case tc.shards > 0 && (im == nil || im.Cells != 2 || len(im.BusyNs) != 2):
			t.Fatalf("%v: imbalance report %+v, want 2 cells", tc.args, im)
		}
	}

	tl := filepath.Join(t.TempDir(), "tl.json")
	var buf bytes.Buffer
	err := run([]string{
		"-shards", "2", "-racks", "2", "-hosts", "3", "-duration", "0.002", "-load", "0.5", "-timeline", tl,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"for 0.002s (2 shards)", "\nimbalance: 2 cells", "timeline", "8c950606034dcabf"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("text output missing %q:\n%s", want, buf.String())
		}
	}
	if data, err := os.ReadFile(tl); err != nil || len(data) == 0 {
		t.Fatalf("timeline not written: %v (%d bytes)", err, len(data))
	}
}

// TestRunToFiles: -series writes the four time series, each a CSV with a
// time column, next to the normal text output.
func TestRunToFiles(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run")
	var buf bytes.Buffer
	err := run([]string{
		"-scheduler", "fast-basrpt", "-racks", "2", "-hosts", "3",
		"-duration", "0.3", "-load", "0.6", "-series", prefix,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"queue", "maxport", "total_backlog", "throughput"} {
		path := prefix + "_" + suffix + ".csv"
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing export %s: %v", path, err)
		}
		if lines := strings.Count(string(data), "\n"); !strings.HasPrefix(string(data), "time,") || lines < 2 {
			t.Fatalf("%s: want a time header and samples, got %d lines", path, lines)
		}
	}
	if !strings.Contains(buf.String(), prefix+"_{queue,maxport,total_backlog,throughput}.csv") {
		t.Fatalf("text output does not name the series files:\n%s", buf.String())
	}
}

func TestRunAllRegistrySchedulers(t *testing.T) {
	for _, name := range []string{"srpt", "fast-basrpt", "maxweight", "fifo", "threshold", "random"} {
		var buf bytes.Buffer
		err := run([]string{
			"-scheduler", name, "-racks", "2", "-hosts", "2",
			"-duration", "0.15", "-load", "0.4",
		}, &buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRunWithIncastWorkload(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-workload", "incast", "-racks", "2", "-hosts", "3",
		"-duration", "0.2", "-load", "0.3", "-fanout", "3", "-jobs", "200",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "query FCT") {
		t.Fatalf("incast output missing FCTs:\n%s", buf.String())
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-workload", "chaos"}, &buf); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunTraceExportIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(path string) []byte {
		var buf bytes.Buffer
		err := run([]string{
			"-scheduler", "fast-basrpt", "-racks", "2", "-hosts", "2",
			"-duration", "0.2", "-load", "0.5", "-seed", "9", "-trace", path,
		}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "trace") {
			t.Fatalf("text output missing trace summary:\n%s", buf.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a := runOnce(filepath.Join(dir, "a.jsonl"))
	b := runOnce(filepath.Join(dir, "b.jsonl"))
	if !bytes.Equal(a, b) {
		t.Fatal("fixed-seed -trace exports differ")
	}
	h, events, err := basrpt.ReadTrace(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if h.Schema != basrpt.TraceSchema || h.Seed != 9 || h.Scheduler != "fast-basrpt" {
		t.Fatalf("trace header = %+v", h)
	}
	if len(events) == 0 {
		t.Fatal("trace has no events")
	}
}
