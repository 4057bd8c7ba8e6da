// Package cli holds the pieces shared by the command-line tools: the
// mapping from the paper's figure/table identifiers to benchmark cells,
// thread-list parsing, plain-text table rendering and BENCH report
// stamping.
package cli

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cpq/internal/keys"
	"cpq/internal/workload"
)

// Cell is one benchmark configuration: a workload crossed with a key
// distribution, as plotted in one figure (or one quality table) of the paper.
type Cell struct {
	ID       string // paper identifier, e.g. "4a" or "8b"
	Workload workload.Kind
	KeyDist  keys.Distribution
}

// Figures maps the paper's per-machine throughput figure panels to cells.
// Figure 4 (mars), 5 (saturn), 6 (ceres) and 7 (pluto) share the same eight
// panels a–h; Figures 8/9 are the alternating-workload panels a–c. Table 1
// equals panel 4a's configuration; quality Tables 2–4 mirror panels a–h and
// Table 5 mirrors the alternating panels.
func Figures() []Cell {
	return []Cell{
		{"4a", workload.Uniform, keys.Uniform32},
		{"4b", workload.Uniform, keys.Ascending},
		{"4c", workload.Uniform, keys.Descending},
		{"4d", workload.Split, keys.Uniform32},
		{"4e", workload.Split, keys.Ascending},
		{"4f", workload.Split, keys.Descending},
		{"4g", workload.Uniform, keys.Uniform8},
		{"4h", workload.Uniform, keys.Uniform16},
		{"8a", workload.Alternating, keys.Uniform32},
		{"8b", workload.Alternating, keys.Ascending},
		{"8c", workload.Alternating, keys.Descending},
	}
}

// FigureByID resolves a panel identifier like "4a", "1" (headline figure 1 =
// 4a), "2" (= 4e), "3" (= 4g), or "8b". Machine-specific figure numbers map
// to the same cells: "5a"/"6a"/"7a" behave like "4a", "9b" like "8b".
func FigureByID(id string) (Cell, error) {
	id = strings.ToLower(strings.TrimSpace(id))
	switch id {
	case "1":
		id = "4a"
	case "2":
		id = "4e"
	case "3":
		id = "4g"
	}
	if len(id) == 2 {
		switch id[0] {
		case '5', '6', '7':
			id = "4" + id[1:]
		case '9':
			id = "8" + id[1:]
		}
	}
	for _, c := range Figures() {
		if c.ID == id {
			return c, nil
		}
	}
	return Cell{}, fmt.Errorf("unknown figure %q (known: 1, 2, 3, 4a-4h, 8a-8c)", id)
}

// TableByID maps the paper's quality-table panels onto benchmark cells.
// Table 1 = Table 2a; Tables 2-4 panels a-h mirror the throughput panels;
// Table 5 panels a-c are the alternating workload.
func TableByID(id string) (Cell, error) {
	id = strings.ToLower(strings.TrimSpace(id))
	if id == "1" {
		return FigureByID("4a")
	}
	if len(id) == 2 {
		switch id[0] {
		case '2', '3', '4':
			return FigureByID("4" + id[1:])
		case '5':
			return FigureByID("8" + id[1:])
		}
	}
	return Cell{}, fmt.Errorf("unknown table %q (known: 1, 2a-2h, 5a-5c)", id)
}

// ParseThreads parses a comma-separated thread list like "1,2,4,8".
func ParseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty thread list %q", s)
	}
	return out, nil
}

// ParseList splits a comma-separated list, trimming blanks.
func ParseList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// queueAliases maps -queues shorthands to queue lists: "paper" is the
// paper's seven compared variants; "engineered" is the engineered-MultiQueue
// comparison set (seed multiq vs. the Williams-Sanders engineered variant
// vs. the paper's strongest k-LSM); "klsm" is the paper's three k-LSM
// relaxation settings.
var queueAliases = map[string][]string{
	"paper":      {"klsm128", "klsm256", "klsm4096", "linden", "spray", "multiq", "globallock"},
	"engineered": {"multiq", "multiq-s4-b8", "klsm4096"},
	"klsm":       {"klsm128", "klsm256", "klsm4096"},
}

// ExpandQueues resolves alias entries ("paper", "engineered", "klsm") in a
// queue list to their member queues, passing every other name through
// unchanged.
func ExpandQueues(names []string) []string {
	var out []string
	for _, n := range names {
		if members, ok := queueAliases[strings.ToLower(n)]; ok {
			out = append(out, members...)
		} else {
			out = append(out, n)
		}
	}
	return out
}

// Table renders rows of cells as aligned plain text. The first row is the
// header; columns are right-aligned except the first.
type Table struct {
	rows [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table.
func (t *Table) String() string {
	if len(t.rows) == 0 {
		return ""
	}
	widths := map[int]int{}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	cols := make([]int, 0, len(widths))
	for i := range widths {
		cols = append(cols, i)
	}
	sort.Ints(cols)
	var b strings.Builder
	for _, row := range t.rows {
		for i, c := range row {
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	if len(t.rows) == 0 {
		return ""
	}
	var b strings.Builder
	for r, row := range t.rows {
		b.WriteString("| ")
		b.WriteString(strings.Join(row, " | "))
		b.WriteString(" |\n")
		if r == 0 {
			b.WriteString("|")
			for range row {
				b.WriteString("---|")
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Machine describes one of the paper's experimental hosts as a benchmark
// preset: the thread counts its figures sweep. On a different host the
// preset simply selects the sweep; it cannot (and does not pretend to)
// emulate the hardware.
type Machine struct {
	Name    string
	Threads []int
	Desc    string
}

// Machines lists the paper's four hosts (Appendix E).
func Machines() []Machine {
	return []Machine{
		{"mars", []int{1, 2, 4, 8, 10, 12, 14, 16}, "8-core Intel Xeon E7-8850, 2-way HT (threads beyond 8 use HT)"},
		{"saturn", []int{1, 2, 4, 8, 16, 24, 32, 48}, "48-core AMD Opteron 6168 (4x12), no HT"},
		{"ceres", []int{1, 2, 4, 8, 16, 32, 64, 128, 256}, "64-core SPARCv9 (4x16), 8-way HT"},
		{"pluto", []int{1, 2, 4, 8, 16, 32, 61, 122, 244}, "61-core Intel Xeon Phi, 4-way HT"},
	}
}

// MachineByName resolves a machine preset; unknown names return ok=false.
func MachineByName(name string) (Machine, bool) {
	for _, m := range Machines() {
		if strings.EqualFold(strings.TrimSpace(name), m.Name) {
			return m, true
		}
	}
	return Machine{}, false
}

// Cell returns the cell at (row, col), or "" when out of range; rows and
// columns are zero-based including the header row.
func (t *Table) Cell(row, col int) string {
	if row < 0 || row >= len(t.rows) || col < 0 || col >= len(t.rows[row]) {
		return ""
	}
	return t.rows[row][col]
}
