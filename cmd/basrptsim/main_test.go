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
	cases := [][]string{
		{"-scheduler", "bogus"},
		{"-load", "1.5", "-racks", "2", "-hosts", "3"},
		{"-racks", "0"},
		{"-unknownflag"},
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

func TestRunIncastWorkload(t *testing.T) {
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
