package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFig1(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "completed 3/3") {
		t.Fatalf("fig1 output wrong:\n%s", out)
	}
}

func TestRunCommaSeparatedExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig1,ablation"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "Ablation") {
		t.Fatalf("combined output wrong:\n%s", out)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "nonsense"}, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// A fabric experiment id is rejected before anything runs, with a
	// pointer to the scenario library that replaced it.
	err := run([]string{"-exp", "fig1,table1"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "basrptexp") {
		t.Fatalf("fabric experiment id: error %v, want a pointer to basrptexp", err)
	}
	if strings.Contains(buf.String(), "Figure 1") {
		t.Fatal("ran fig1 before rejecting table1")
	}
	if err := run([]string{"-notaflag"}, &buf); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestMultiSeedRejectsBadFlags: the multi-seed flags are gone with the
// fabric drivers (scenario specs are the multi-seed path), so a run that
// still passes one fails instead of silently running a single seed.
func TestMultiSeedRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig1", "-seeds", "2"},
		{"-exp", "fig1", "-parallel", "2"},
		{"-exp", "fig1", "-scale", "small"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Fatalf("flags %v accepted", args)
		}
	}
}

func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	err := run([]string{
		"-exp", "fig1", "-cpuprofile", cpu, "-memprofile", mem,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}
