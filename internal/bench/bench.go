// Package bench is the experiment harness: one driver per figure of the
// paper's evaluation (§6), each regenerating the figure's series as a text
// table, plus the ablation studies DESIGN.md calls out. Every driver runs a
// fresh deterministic simulation and reports measurements in virtual time.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"xssd/internal/obs"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n=== %s ===\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// CellMetrics pairs one experiment cell with the metrics snapshot its
// simulation environment held when the cell finished.
type CellMetrics struct {
	Cell     string        `json:"cell"`
	Snapshot *obs.Snapshot `json:"snapshot"`
}

// Capture collects per-cell metrics snapshots while experiments run (the
// xbench -metrics mode). Cells appear in execution order; experiments run
// sequentially, so the order — and the encoded output — is deterministic.
type Capture struct {
	cells []CellMetrics
}

// activeCapture is the capture the cell functions feed. Package-level
// state is acceptable here because the harness is single-threaded: one
// experiment cell runs at a time.
var activeCapture *Capture

// StartCapture begins collecting per-cell metrics snapshots from every
// experiment cell that runs until StopCapture.
func StartCapture() *Capture {
	c := &Capture{}
	activeCapture = c
	return c
}

// StopCapture detaches the active capture.
func StopCapture() { activeCapture = nil }

// lastEvents holds the dispatched-event count of the most recently
// finished cell (same single-threaded-harness caveat as activeCapture).
var lastEvents int64

// LastCellEvents reports how many simulator events the most recently
// finished experiment cell dispatched. The perf suite divides this by wall
// time to get events/second.
func LastCellEvents() int64 { return lastEvents }

// Len returns how many cells the capture holds.
func (c *Capture) Len() int { return len(c.cells) }

// WriteJSON writes the capture as one canonical JSON array (compact, one
// trailing newline) — byte-identical across same-seed runs.
func (c *Capture) WriteJSON(w io.Writer) error {
	b, err := json.Marshal(c.cells)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Experiment names accepted by Run.
var Experiments = []string{"fig9", "fig10", "fig11", "fig12", "fig13",
	"ablation-policy", "ablation-scheme", "ablation-credit", "ablation-backing"}

// Run executes one experiment by name and writes its table(s) to w.
func Run(name string, w io.Writer) error {
	switch name {
	case "fig9":
		Fig09().Fprint(w)
	case "fig10":
		for _, t := range Fig10() {
			t.Fprint(w)
		}
	case "fig11":
		for _, t := range Fig11() {
			t.Fprint(w)
		}
	case "fig12":
		for _, t := range Fig12() {
			t.Fprint(w)
		}
	case "fig13":
		Fig13().Fprint(w)
	case "ablation-policy":
		AblationPolicy().Fprint(w)
	case "ablation-scheme":
		AblationScheme().Fprint(w)
	case "ablation-credit":
		AblationCredit().Fprint(w)
	case "ablation-backing":
		AblationBacking().Fprint(w)
	default:
		return fmt.Errorf("bench: unknown experiment %q (have %v)", name, Experiments)
	}
	return nil
}
