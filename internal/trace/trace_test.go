package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"strings"
	"testing"

	"basrpt/internal/metrics"
)

func sampleSeries() *metrics.Series {
	var s metrics.Series
	s.Add(0, 10)
	s.Add(1, 20)
	s.Add(2, 15)
	return &s
}

func TestWriteSeriesCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, "queue_bytes", sampleSeries()); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 {
		t.Fatalf("rows = %d, want 4", len(records))
	}
	if records[0][1] != "queue_bytes" {
		t.Fatalf("header = %v", records[0])
	}
	if records[2][0] != "1" || records[2][1] != "20" {
		t.Fatalf("row = %v", records[2])
	}
}

func TestWriteFailuresPropagate(t *testing.T) {
	// A failing destination must surface from every writer, not vanish into
	// the csv/json buffering.
	if err := WriteSeriesCSV(&failWriter{}, "v", sampleSeries()); !errors.Is(err, errDiskFull) {
		t.Fatalf("WriteSeriesCSV error = %v", err)
	}
	if err := WriteJSON(&failWriter{}, map[string]int{"x": 1}); !errors.Is(err, errDiskFull) {
		t.Fatalf("WriteJSON error = %v", err)
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"x": 1`) {
		t.Fatalf("json = %q", buf.String())
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{
		Title:   "TABLE I",
		Headers: []string{"scheme", "avg", "99th"},
	}
	tbl.AddRow("srpt", "1.20", "4.50")
	tbl.AddRow("fast-basrpt", "2.10") // short row padded
	out := tbl.Render()
	if !strings.Contains(out, "TABLE I") || !strings.Contains(out, "fast-basrpt") {
		t.Fatalf("render = %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("line count = %d: %q", len(lines), out)
	}
	if len(tbl.rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.rows))
	}
	// Columns align: "srpt" padded to width of "fast-basrpt".
	if !strings.HasPrefix(lines[3], "srpt        ") {
		t.Fatalf("row not padded: %q", lines[3])
	}
}

func TestChart(t *testing.T) {
	out := Chart("queue", sampleSeries(), 20, 5)
	if !strings.Contains(out, "queue") || !strings.Contains(out, "*") {
		t.Fatalf("chart = %q", out)
	}
	if !strings.Contains(out, "max") || !strings.Contains(out, "min") {
		t.Fatalf("chart missing scale: %q", out)
	}
	var empty metrics.Series
	if got := Chart("", &empty, 20, 5); !strings.Contains(got, "no data") {
		t.Fatalf("empty chart = %q", got)
	}
	// Constant series must not divide by zero.
	var flat metrics.Series
	flat.Add(0, 5)
	flat.Add(1, 5)
	if got := Chart("", &flat, 10, 3); !strings.Contains(got, "*") {
		t.Fatalf("flat chart = %q", got)
	}
	// Tiny dimensions are clamped.
	if got := Chart("", sampleSeries(), 1, 1); got == "" {
		t.Fatal("clamped chart empty")
	}
}

func TestFormatters(t *testing.T) {
	if Ms(1.234) != "1.23" {
		t.Fatalf("Ms = %q", Ms(1.234))
	}
	if Gbps(9.5) != "9.500" {
		t.Fatalf("Gbps = %q", Gbps(9.5))
	}
	cases := map[float64]string{
		512:    "512B",
		2048:   "2.05KB",
		3.5e6:  "3.50MB",
		7.25e9: "7.25GB",
		1.5e12: "1.50TB",
	}
	for v, want := range cases {
		if got := Bytes(v); got != want {
			t.Fatalf("Bytes(%g) = %q, want %q", v, got, want)
		}
	}
}
