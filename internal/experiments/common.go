// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 4, Section 5, Appendices A and C). Each
// driver returns a Result holding a printable paper-style table plus a
// metric map that experiments_test.go asserts shapes against.
// cmd/dwbench prints the tables.
//
// Absolute values are simulated-clock seconds (see DESIGN.md); the
// comparisons the paper draws — who wins, by what factor, where
// crossovers fall — are the reproduction target. Each table's notes
// state the paper's finding next to the reproduced one; `dwbench -list`
// names the figures and `dwbench -fig 7b` prints one.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// Table is a paper-style result table.
type Table struct {
	// Name is the figure id ("fig7a", "fig11", ...).
	Name string
	// Title describes the experiment.
	Title string
	// Header holds the column names.
	Header []string
	// Rows holds the formatted cells.
	Rows [][]string
	// Notes holds a trailing free-form remark.
	Notes string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
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
	fmt.Fprintf(w, "== %s: %s ==\n", t.Name, t.Title)
	printRow := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// Result is one driver's output.
type Result struct {
	// Table is the printable table.
	Table *Table
	// Metrics holds named scalar outcomes for assertions.
	Metrics map[string]float64
}

// Driver runs one experiment. quick trades sweep breadth for speed
// (used by the tests); the full run matches the paper's grid.
type Driver func(quick bool) *Result

// Registry maps figure ids to drivers, in paper order.
func Registry() []struct {
	Name   string
	Driver Driver
} {
	return []struct {
		Name   string
		Driver Driver
	}{
		{"fig6", Fig6},
		{"fig7a", Fig7a},
		{"fig7b", Fig7b},
		{"fig8a", Fig8a},
		{"fig8b", Fig8b},
		{"fig9a", Fig9a},
		{"fig9b", Fig9b},
		{"fig11", Fig11},
		{"fig12a", Fig12a},
		{"fig12b", Fig12b},
		{"fig13", Fig13},
		{"fig14", Fig14},
		{"fig15", Fig15},
		{"fig16a", Fig16a},
		{"fig16b", Fig16b},
		{"fig17a", Fig17a},
		{"fig17b", Fig17b},
		{"fig20", Fig20},
		{"fig21", Fig21},
		{"fig22", Fig22},
		{"appA", AppA},
	}
}

// Lookup returns the driver for a figure id.
func Lookup(name string) (Driver, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e.Driver, true
		}
	}
	return nil, false
}

// optimal-loss cache: the paper obtains "the optimal loss" by running
// every system for an hour and taking the minimum; we run the
// optimizer-chosen plan long and take the minimum seen.
var (
	optMu    sync.Mutex
	optCache = map[string]float64{}
)

// OptimalLoss estimates the optimal loss of a task by running the
// optimizer-chosen plan for many epochs and returning the minimum.
func OptimalLoss(spec model.Spec, ds *data.Dataset) float64 {
	key := spec.Name() + "/" + ds.Name
	optMu.Lock()
	if v, ok := optCache[key]; ok {
		optMu.Unlock()
		return v
	}
	optMu.Unlock()
	plan, err := core.Choose(spec, ds, numa.Local2)
	if err != nil {
		panic(fmt.Sprintf("experiments: choose(%s): %v", key, err))
	}
	eng, err := core.New(spec, ds, plan)
	if err != nil {
		panic(fmt.Sprintf("experiments: new(%s): %v", key, err))
	}
	best := eng.Loss()
	for i := 0; i < 80; i++ {
		if l := eng.RunEpoch().Loss; l < best {
			best = l
		}
	}
	optMu.Lock()
	optCache[key] = best
	optMu.Unlock()
	return best
}

// targetFor converts an error-to-optimal percentage into an absolute
// loss target: "within p% of the optimal loss" = opt * (1 + p/100).
func targetFor(opt, pct float64) float64 { return opt * (1 + pct/100) }

// timeToTarget scans a run history for the first epoch at or below the
// target and returns its cumulative time, or (0, false).
func timeToTarget(hist []core.EpochResult, target float64) (time.Duration, int, bool) {
	for _, er := range hist {
		if er.Loss <= target {
			return er.CumTime, er.Epoch, true
		}
	}
	return 0, 0, false
}

// fmtSecs formats a simulated duration in seconds, with the paper's
// ">" convention for timeouts.
func fmtSecs(d time.Duration, converged bool) string {
	if !converged {
		return fmt.Sprintf("> %.4g", d.Seconds())
	}
	return fmt.Sprintf("%.4g", d.Seconds())
}

// runEngine builds an engine or panics — drivers own their inputs, so
// construction failure is a bug, not an input error.
func runEngine(spec model.Spec, ds *data.Dataset, plan core.Plan) *core.Engine {
	e, err := core.New(spec, ds, plan)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s on %s: %v", spec.Name(), ds.Name, err))
	}
	return e
}

// epochsArg picks an epoch budget based on quick mode.
func epochsArg(quick bool, full int) int {
	if quick {
		if full > 30 {
			return 30
		}
	}
	return full
}
