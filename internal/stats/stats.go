// Package stats provides the measurement utilities the evaluation needs:
// per-bank occupancy timelines (Fig 14), distribution summaries, and
// aligned text tables for paper-shaped output.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"affinityalloc/internal/engine"
)

// Timeline buckets per-bank event counts over time — the raw material for
// Fig 14's per-bank atomic-stream occupancy distribution.
type Timeline struct {
	banks   int
	bucket  engine.Time
	counts  [][]uint32 // counts[bucketIdx][bank]
	maxSeen engine.Time
}

// NewTimeline creates a timeline with the given bucket width in cycles.
func NewTimeline(banks int, bucket engine.Time) *Timeline {
	if bucket == 0 {
		bucket = 1
	}
	return &Timeline{banks: banks, bucket: bucket}
}

// Add records one event at a bank and cycle.
func (tl *Timeline) Add(bank int, at engine.Time) {
	idx := int(at / tl.bucket)
	for len(tl.counts) <= idx {
		tl.counts = append(tl.counts, make([]uint32, tl.banks))
	}
	tl.counts[idx][bank]++
	if at > tl.maxSeen {
		tl.maxSeen = at
	}
}

// Buckets returns the number of time buckets recorded.
func (tl *Timeline) Buckets() int { return len(tl.counts) }

// Dist summarizes the per-bank distribution within one bucket.
type Dist struct {
	Min, P25, Avg, P75, Max float64
}

// Distribution returns the per-bank count distribution for bucket i.
func (tl *Timeline) Distribution(i int) Dist {
	if i < 0 || i >= len(tl.counts) {
		return Dist{}
	}
	vals := make([]float64, tl.banks)
	sum := 0.0
	for b, c := range tl.counts[i] {
		vals[b] = float64(c)
		sum += float64(c)
	}
	sort.Float64s(vals)
	n := len(vals)
	return Dist{
		Min: vals[0],
		P25: vals[n/4],
		Avg: sum / float64(n),
		P75: vals[(3*n)/4],
		Max: vals[n-1],
	}
}

// Imbalance returns max/avg over the whole timeline — a scalar load
// imbalance figure.
func (tl *Timeline) Imbalance() float64 {
	totals := make([]float64, tl.banks)
	sum := 0.0
	for _, bucket := range tl.counts {
		for b, c := range bucket {
			totals[b] += float64(c)
			sum += float64(c)
		}
	}
	if sum == 0 {
		return 1
	}
	max := 0.0
	for _, t := range totals {
		if t > max {
			max = t
		}
	}
	return max / (sum / float64(tl.banks))
}

// Table renders aligned text tables mirroring the paper's figures.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the formatted rows.
func (t *Table) Rows() [][]string { return t.rows }

// Render writes the table, aligned, to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	fmt.Fprintln(w, strings.Join(sep, "  "))
	for _, row := range t.rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Geomean returns the geometric mean of positive values; zero or negative
// values are skipped.
func Geomean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
