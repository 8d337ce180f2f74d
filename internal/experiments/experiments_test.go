package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

func sscan(s string, v *float64) (int, error) { return fmt.Sscan(s, v) }

// tiny returns the smallest viable config for fast smoke tests.
func tiny() Config {
	return Config{Quick: true, Scale: 1, Events: 3000, Iterations: 2, Seed: 7}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig8", "fig9", "fig10a", "fig10b", "fig11a", "fig11b",
		"fig12a", "fig12b", "fig13a", "fig13b", "fig13c", "fig13d",
		"fig14a", "fig14b", "fig14c", "headline", "ablation",
		"adaptivity",
	}
	for _, name := range want {
		if _, ok := Get(name); !ok {
			t.Fatalf("experiment %s not registered", name)
		}
	}
	if len(Names()) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(Names()), len(want), Names())
	}
}

func TestTableFormat(t *testing.T) {
	tb := Table{
		Title:  "test",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  "note",
	}
	out := tb.Format()
	for _, want := range []string{"== test ==", "a    bbbb", "333", "-- note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

// Every experiment must run end-to-end at tiny scale and produce
// non-empty, rectangular tables. This is the smoke test that keeps the
// harness runnable; shape assertions live in the specific tests below.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			e, _ := Get(name)
			tables := e.Run(tiny())
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", name)
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("%s: empty table %q", name, tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Header) {
						t.Fatalf("%s: ragged row %v vs header %v", name, row, tb.Header)
					}
				}
				if tb.Format() == "" {
					t.Fatalf("%s: empty format", name)
				}
			}
		})
	}
}

// Shape check for Figure 8: web graphs must compress much better than
// social graphs, and IOB must be at least as compact as VNMA at the end.
func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tables := fig8(Config{Quick: true, Iterations: 3, Seed: 3})
	if len(tables) != 4 {
		t.Fatalf("fig8 tables = %d, want 4", len(tables))
	}
	last := func(tb Table, col int) float64 {
		var v float64
		_, err := fmtSscan(tb.Rows[len(tb.Rows)-1][col], &v)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// Columns: iter, vnma, vnmn, vnmd, iob.
	socialVNMA := last(tables[0], 1)
	webVNMA := last(tables[2], 1)
	if webVNMA < socialVNMA {
		t.Fatalf("web SI %.1f should exceed social SI %.1f", webVNMA, socialVNMA)
	}
	socialIOB := last(tables[0], 4)
	if socialIOB+3 < socialVNMA {
		t.Fatalf("IOB SI %.1f should be >= VNMA SI %.1f (tolerance 3pp)", socialIOB, socialVNMA)
	}
}

// Shape check for Figure 12: pruning leaves a small fraction of nodes.
func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tables := fig12a(Config{Quick: true, Iterations: 2, Seed: 3})
	tb := tables[0]
	for _, row := range tb.Rows {
		var pct float64
		if _, err := fmtSscan(row[5], &pct); err != nil {
			t.Fatal(err)
		}
		if pct > 60 {
			t.Fatalf("%s: %0.1f%% of nodes survive pruning; expected a large reduction", row[0], pct)
		}
	}
}

// fmtSscan avoids importing fmt twice in tests.
func fmtSscan(s string, v *float64) (int, error) {
	return sscan(s, v)
}

// TestAdaptivityFlipsRepeat: each chunk's flips are decided by a serial
// twin on the previous chunk's counts, whatever the concurrent install on
// the measured engine does, so two runs flip alike.
func TestAdaptivityFlipsRepeat(t *testing.T) {
	flips := func() (col []string) {
		for _, row := range adaptivity(Config{Quick: true})[0].Rows {
			col = append(col, row[3])
		}
		return col
	}
	if a, b := flips(), flips(); !slices.Equal(a, b) {
		t.Fatalf("flips column differs between two runs: %v, %v", a, b)
	}
}
