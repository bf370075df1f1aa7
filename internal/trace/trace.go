// Package trace renders experiment output: CSV and JSON exports for
// plotting, fixed-width ASCII tables matching the paper's Table I layout,
// and ASCII line charts for the queue-length and throughput figures.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"basrpt/internal/metrics"
)

// ErrShape reports malformed structure: a JSONL trace with a missing or
// bad header, an unparsable line, or out-of-order sequence numbers.
var ErrShape = errors.New("trace: mismatched column shapes")

// WriteSeriesCSV writes a (time, value) series with the given value-column
// header.
func WriteSeriesCSV(w io.Writer, header string, s *metrics.Series) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time", header}); err != nil {
		return fmt.Errorf("write csv header: %w", err)
	}
	for i := range s.Times {
		rec := []string{
			strconv.FormatFloat(s.Times[i], 'g', -1, 64),
			strconv.FormatFloat(s.Values[i], 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("write csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON writes v as indented JSON.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Table is a fixed-width ASCII table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Render lays the table out with column-sized padding.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Chart renders a series as an ASCII line chart of the given dimensions.
// It is deliberately simple — the real figures come from the CSV exports —
// but it lets the harness show trends inline.
func Chart(title string, s *metrics.Series, width, height int) string {
	if width < 8 {
		width = 8
	}
	if height < 3 {
		height = 3
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	if s.Len() == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	minV, maxV := s.Values[0], s.Values[0]
	for _, v := range s.Values {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if maxV == minV {
		maxV = minV + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	n := s.Len()
	for c := 0; c < width; c++ {
		// Downsample by bucket mean.
		lo := c * n / width
		hi := (c + 1) * n / width
		if hi <= lo {
			hi = lo + 1
		}
		if hi > n {
			hi = n
		}
		var sum float64
		for i := lo; i < hi; i++ {
			sum += s.Values[i]
		}
		v := sum / float64(hi-lo)
		r := int((v - minV) / (maxV - minV) * float64(height-1))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		grid[height-1-r][c] = '*'
	}
	fmt.Fprintf(&b, "%.4g max\n", maxV)
	for _, row := range grid {
		b.WriteString(string(row))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%.4g min  (%d samples, t in [%.4g, %.4g])\n",
		minV, n, s.Times[0], s.Times[n-1])
	return b.String()
}

// Ms formats a millisecond quantity the way the paper's Table I does.
func Ms(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// Gbps formats a throughput in Gbps.
func Gbps(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// Bytes formats a byte quantity with an SI-style suffix.
func Bytes(v float64) string {
	switch {
	case v >= 1e12:
		return fmt.Sprintf("%.2fTB", v/1e12)
	case v >= 1e9:
		return fmt.Sprintf("%.2fGB", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fMB", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fKB", v/1e3)
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}
