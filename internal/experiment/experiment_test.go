package experiment

import (
	"bytes"
	"strings"
	"testing"

	"ldp/internal/dataset"
)

// small returns options scaled down for unit tests.
func small() Options {
	return Options{
		N:        8_000,
		Runs:     2,
		Seed:     7,
		Workers:  2,
		EpsList:  []float64{0.5, 4},
		Eps:      1,
		ERMUsers: 4_000,
		Splits:   1,
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "fig11",
		"ablation-alpha", "ablation-k", "ablation-freq", "ablation-clip",
		"ablation-comm", "range", "federated", "audit",
	}
	for _, name := range want {
		if _, err := Get(name); err != nil {
			t.Errorf("experiment %q not registered: %v", name, err)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d runners, want %d", len(All()), len(want))
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestNormalizedDefaults(t *testing.T) {
	var zero Options
	n := zero.normalized()
	d := Defaults()
	if n.N != d.N || n.Runs != d.Runs || len(n.EpsList) != len(d.EpsList) || n.Workers < 1 {
		t.Errorf("normalized zero options = %+v", n)
	}
}

func TestTable1Runs(t *testing.T) {
	tables, err := runTable1(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("got %d tables", len(tables))
	}
	// Every d>1 row must have HM < PM < Duchi.
	for _, row := range tables[1].Rows {
		if !(row.Values[0] < row.Values[1] && row.Values[1] < row.Values[2]) {
			t.Errorf("row %s: ordering violated: %v", row.X, row.Values)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	tables, err := runFig1(small())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) < 50 {
		t.Fatalf("fig1 has %d rows", len(tb.Rows))
	}
	// HM (last column) is the lower envelope everywhere.
	for _, row := range tb.Rows {
		hm := row.Values[3]
		for j := 0; j < 3; j++ {
			if hm > row.Values[j]+1e-9 {
				t.Errorf("eps=%s: HM %v above %s %v", row.X, hm, tb.Columns[j], row.Values[j])
			}
		}
	}
}

func TestFig2PdfPieces(t *testing.T) {
	tables, err := runFig2(small())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	// Two density levels only (plus zero never appears inside [-C, C]).
	seen := map[string]bool{}
	for _, row := range tb.Rows {
		for _, v := range row.Values {
			seen[formatValue(v)] = true
		}
	}
	if len(seen) > 3 {
		t.Errorf("PM pdf should take at most 2-3 distinct levels on the grid, got %d", len(seen))
	}
}

func TestFig3RatiosBelowOne(t *testing.T) {
	tables, err := runFig3(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("got %d tables, want 4", len(tables))
	}
	for _, tb := range tables {
		for _, row := range tb.Rows {
			for j, v := range row.Values {
				if v >= 1 {
					t.Errorf("%s eps=%s col %s: ratio %v >= 1", tb.Title, row.X, tb.Columns[j], v)
				}
			}
		}
	}
}

func TestMixedRunOrderingBRSmall(t *testing.T) {
	// One scaled-down mixed run: the proposed methods must beat the
	// split-budget baselines clearly on both metrics.
	c := dataset.NewBR()
	avg, err := averageRuns(2, 2, func(run int) (map[string]float64, error) {
		return runMixedOnce(c.Schema(), c.Tuple, 1.0, 12_000, uint64(run*99+3))
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg["num/pm"] >= avg["num/laplace"] {
		t.Errorf("PM MSE %v should beat split Laplace %v", avg["num/pm"], avg["num/laplace"])
	}
	if avg["num/hm"] >= avg["num/laplace"] {
		t.Errorf("HM MSE %v should beat split Laplace %v", avg["num/hm"], avg["num/laplace"])
	}
	if avg["cat/proposed"] >= avg["cat/oue-split"] {
		t.Errorf("proposed categorical MSE %v should beat OUE-split %v", avg["cat/proposed"], avg["cat/oue-split"])
	}
	for _, k := range []string{"num/scdf", "num/staircase", "num/duchi"} {
		if avg[k] <= 0 {
			t.Errorf("missing metric %s", k)
		}
	}
}

func TestNumericRunOrderingGaussian(t *testing.T) {
	src := dataset.NewGaussianSource(16, 2.0/3)
	avg, err := averageRuns(2, 2, func(run int) (map[string]float64, error) {
		return runNumericOnce(src, numericMethods, 1.0, 12_000, uint64(run*77+5))
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sampling-based PM/HM must beat the eps/d-composition baselines.
	if avg["pm"] >= avg["laplace"] || avg["hm"] >= avg["laplace"] {
		t.Errorf("PM %v / HM %v should beat split Laplace %v", avg["pm"], avg["hm"], avg["laplace"])
	}
	// And beat or match Duchi's multidimensional method (Corollary 2).
	if avg["pm"] >= 1.5*avg["duchi"] {
		t.Errorf("PM MSE %v unexpectedly far above Duchi %v", avg["pm"], avg["duchi"])
	}
}

func TestFig7MSEDecreasesWithN(t *testing.T) {
	opts := small()
	opts.N = 16_000
	opts.Runs = 2
	tables, err := runFig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	numT := tables[0]
	if len(numT.Rows) < 3 {
		t.Fatalf("fig7 numeric has %d rows", len(numT.Rows))
	}
	// PM column: MSE at the largest n must be below MSE at the smallest.
	col := indexOf(numT.Columns, "pm")
	first, last := numT.Rows[0].Values[col], numT.Rows[len(numT.Rows)-1].Values[col]
	if last >= first {
		t.Errorf("PM MSE did not decrease with n: %v -> %v", first, last)
	}
}

func indexOf(xs []string, want string) int {
	for i, x := range xs {
		if x == want {
			return i
		}
	}
	return -1
}

func TestFig8Runs(t *testing.T) {
	opts := small()
	opts.N = 6_000
	tables, err := runFig8(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || len(tables[0].Rows) != 4 {
		t.Fatalf("unexpected fig8 shape: %d tables, %d rows", len(tables), len(tables[0].Rows))
	}
}

func TestAblationAlphaOptimalWins(t *testing.T) {
	tables, err := runAblationAlpha(small())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	optCol := len(tb.Columns) - 1
	for _, row := range tb.Rows {
		for j := 0; j < optCol; j++ {
			if row.Values[optCol] > row.Values[j]+1e-9 {
				t.Errorf("eps=%s: Eq.7 alpha (%v) worse than %s (%v)",
					row.X, row.Values[optCol], tb.Columns[j], row.Values[j])
			}
		}
	}
}

func TestRenderText(t *testing.T) {
	tb := Table{
		ID: "x", Title: "demo", XLabel: "eps", YLabel: "mse",
		Columns: []string{"a", "longname"},
		Rows: []TableRow{
			{X: "0.5", Values: []float64{1.5, 0.000012}},
			{X: "4", Values: []float64{0, 12345678}},
		},
	}
	var buf bytes.Buffer
	if err := Render(&buf, tb); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# x — demo", "eps", "longname", "1.5", "1.2000e-05", "0"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTSV(t *testing.T) {
	tb := Table{
		ID: "x", Title: "demo", XLabel: "n",
		Columns: []string{"m1"},
		Rows:    []TableRow{{X: "10", Values: []float64{0.25}}},
	}
	var buf bytes.Buffer
	if err := RenderTSV(&buf, tb); err != nil {
		t.Fatal(err)
	}
	want := "n\tm1\n10\t0.25\n"
	if buf.String() != want {
		t.Errorf("TSV = %q, want %q", buf.String(), want)
	}
}

func TestAblationCommShape(t *testing.T) {
	opts := small()
	opts.EpsList = []float64{1}
	tables, err := runAblationComm(opts)
	if err != nil {
		t.Fatal(err)
	}
	row := tables[0].Rows[0]
	proposed, split, duchiOue := row.Values[0], row.Values[1], row.Values[2]
	if proposed <= 0 || split <= 0 {
		t.Fatal("empty sizes")
	}
	// Algorithm 4 sends k entries instead of all d; it must be several
	// times smaller than the every-attribute uploads.
	if proposed*3 > split {
		t.Errorf("proposed %v bytes not clearly below split %v", proposed, split)
	}
	// Laplace-split and Duchi-split frames carry the same entry layout.
	if split != duchiOue {
		t.Errorf("split %v != duchi %v (same wire layout expected)", split, duchiOue)
	}
}

func TestAverageRunsPropagatesError(t *testing.T) {
	_, err := averageRuns(3, 2, func(run int) (map[string]float64, error) {
		if run == 1 {
			return nil, errTest
		}
		return map[string]float64{"a": 1}, nil
	})
	if err != errTest {
		t.Errorf("err = %v, want errTest", err)
	}
}

var errTest = errString("test error")

type errString string

func (e errString) Error() string { return string(e) }

func TestAverageRunsAverages(t *testing.T) {
	avg, err := averageRuns(4, 4, func(run int) (map[string]float64, error) {
		return map[string]float64{"v": float64(run)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg["v"] != 1.5 {
		t.Errorf("avg = %v, want 1.5", avg["v"])
	}
}
