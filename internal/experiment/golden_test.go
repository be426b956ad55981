package experiment

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden tables under testdata/golden")

// goldenOpts are the small fixed options the golden tables are recorded
// at: large enough to exercise every estimator path, small enough that the
// whole suite runs in a few seconds.
func goldenOpts() Options {
	return Options{N: 2000, Runs: 2, Seed: 7, Workers: 2, EpsList: []float64{0.5, 4}, Eps: 1}
}

// goldenExperiments are the seeded paper tables whose every value must
// stay bit-identical across refactors of the collection and aggregation
// code. The range experiment contributes only its MSE table; its
// throughput table is a timing.
var goldenExperiments = []string{"fig4", "fig5", "fig6", "fig7", "fig8", "ablation-k", "ablation-freq", "range"}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

// runGolden runs one experiment at the golden options, dropping tables
// whose values are timings.
func runGolden(t *testing.T, name string) []Table {
	t.Helper()
	r, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := r.Run(goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	var out []Table
	for _, tb := range tables {
		if tb.ID != "range-throughput" {
			out = append(out, tb)
		}
	}
	return out
}

func loadGolden(t *testing.T, name string) []Table {
	t.Helper()
	raw, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatal(err)
	}
	var tables []Table
	if err := json.Unmarshal(raw, &tables); err != nil {
		t.Fatal(err)
	}
	return tables
}

// compareTables fails unless got has want's shape and every value equals
// want's value plus offset exactly.
func compareTables(t *testing.T, got, want []Table, offset float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d tables, golden has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Title != w.Title || len(g.Rows) != len(w.Rows) || len(g.Columns) != len(w.Columns) {
			t.Fatalf("table %d (%s) changed shape", i, w.Title)
		}
		for ri, wr := range w.Rows {
			gr := g.Rows[ri]
			if gr.X != wr.X || len(gr.Values) != len(wr.Values) {
				t.Fatalf("table %d row %d changed shape", i, ri)
			}
			for ci, wv := range wr.Values {
				if gr.Values[ci] != wv+offset {
					t.Errorf("%s: %s=%s, %s: got %v, want %v", w.Title, w.XLabel, wr.X, w.Columns[ci], gr.Values[ci], wv+offset)
				}
			}
		}
	}
}

// TestGoldenTables pins the seeded paper tables bit for bit. The goldens
// are recorded on amd64, where Go never fuses a multiply and an add; other
// architectures may round differently and are skipped.
func TestGoldenTables(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens are recorded on amd64")
	}
	for _, name := range goldenExperiments {
		t.Run(name, func(t *testing.T) {
			got := runGolden(t, name)
			if *updateGolden {
				writeGolden(t, name, got)
				return
			}
			compareTables(t, got, loadGolden(t, name), 0)
		})
	}
}

func writeGolden(t *testing.T, name string, tables []Table) {
	t.Helper()
	raw, err := json.MarshalIndent(tables, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(name)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(name), append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenCommTable pins the ablation-comm table against its golden
// plus exactly one byte per cell: the golden was recorded from the
// retired v1 report frame, and the v2 envelope that replaced it carries
// the same entry-list payload behind one extra task-tag byte.
func TestGoldenCommTable(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens are recorded on amd64")
	}
	compareTables(t, runGolden(t, "ablation-comm"), loadGolden(t, "ablation-comm"), 1)
}
