package ldp

import (
	"fmt"
	"testing"

	"ldp/internal/dataset"
	"ldp/internal/experiment"
)

// Micro-benchmarks: per-report cost of each mechanism. These measure the
// client-side work a single user performs.

func BenchmarkPerturbPM(b *testing.B) {
	m, err := NewPiecewise(1)
	if err != nil {
		b.Fatal(err)
	}
	r := NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Perturb(0.3, r)
	}
}

func BenchmarkPerturbHM(b *testing.B) {
	m, err := NewHybrid(1)
	if err != nil {
		b.Fatal(err)
	}
	r := NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Perturb(0.3, r)
	}
}

func BenchmarkPerturbDuchi(b *testing.B) {
	m, err := NewDuchi(1)
	if err != nil {
		b.Fatal(err)
	}
	r := NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Perturb(0.3, r)
	}
}

func BenchmarkPerturbLaplace(b *testing.B) {
	m, err := NewLaplace(1)
	if err != nil {
		b.Fatal(err)
	}
	r := NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Perturb(0.3, r)
	}
}

func BenchmarkPerturbStaircase(b *testing.B) {
	m, err := NewStaircase(1)
	if err != nil {
		b.Fatal(err)
	}
	r := NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Perturb(0.3, r)
	}
}

func BenchmarkPerturbDuchiMulti(b *testing.B) {
	for _, d := range []int{16, 90} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			m, err := NewDuchiMulti(1, d)
			if err != nil {
				b.Fatal(err)
			}
			r := NewRand(1)
			in := make([]float64, d)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.PerturbVector(in, r)
			}
		})
	}
}

func BenchmarkPerturbCollector(b *testing.B) {
	for _, d := range []int{16, 90} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			m, err := NewNumericCollector(PM, 1, d)
			if err != nil {
				b.Fatal(err)
			}
			r := NewRand(1)
			in := make([]float64, d)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.PerturbVector(in, r)
			}
		})
	}
}

// BenchmarkPerturbCollectorInto is BenchmarkPerturbCollector with the
// output buffer reused through PerturbVectorInto, the shape of a client
// simulation loop randomizing millions of tuples.
func BenchmarkPerturbCollectorInto(b *testing.B) {
	for _, d := range []int{16, 90} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			m, err := NewNumericCollector(PM, 1, d)
			if err != nil {
				b.Fatal(err)
			}
			r := NewRand(1)
			in := make([]float64, d)
			var out []float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out = m.PerturbVectorInto(out, in, r)
			}
		})
	}
}

func BenchmarkPerturbMixedTuple(b *testing.B) {
	c := dataset.NewBR()
	p, err := New(c.Schema(), 1, WithMechanism(PM), WithOracle(OUE))
	if err != nil {
		b.Fatal(err)
	}
	joint := p.JointTask()
	r := NewRand(1)
	tup := c.Tuple(r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := joint.Randomize(tup, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeDecode(b *testing.B) {
	c := dataset.NewBR()
	p, err := New(c.Schema(), 8, WithMechanism(PM), WithOracle(OUE))
	if err != nil {
		b.Fatal(err)
	}
	r := NewRand(1)
	urep, err := p.JointTask().Randomize(c.Tuple(r), r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame, err := EncodeReport(urep)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeReport(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure/table benchmarks: each regenerates its experiment at reduced
// scale and reports the headline metric via b.ReportMetric. Run the full
// versions with cmd/ldpbench.

// benchOpts are the scaled-down experiment options used by the per-figure
// benchmarks.
func benchOpts() experiment.Options {
	return experiment.Options{
		N:        4_000,
		Runs:     1,
		Seed:     1,
		Workers:  2,
		EpsList:  []float64{1},
		Eps:      1,
		ERMUsers: 3_000,
		Splits:   1,
	}
}

// runExperimentBench executes one registered experiment b.N times and
// reports `metric` taken from the first row/column of the first table.
func runExperimentBench(b *testing.B, name, metric string) {
	b.Helper()
	r, err := experiment.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	var tables []experiment.Table
	for i := 0; i < b.N; i++ {
		tables, err = r.Run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(tables) > 0 && len(tables[0].Rows) > 0 && len(tables[0].Rows[0].Values) > 0 {
		b.ReportMetric(tables[0].Rows[0].Values[0], metric)
	}
}

func BenchmarkTable1(b *testing.B) { runExperimentBench(b, "table1", "maxvar") }
func BenchmarkFig1(b *testing.B)   { runExperimentBench(b, "fig1", "maxvar") }
func BenchmarkFig2(b *testing.B)   { runExperimentBench(b, "fig2", "pdf") }
func BenchmarkFig3(b *testing.B)   { runExperimentBench(b, "fig3", "ratio") }
func BenchmarkFig4(b *testing.B)   { runExperimentBench(b, "fig4", "mse") }
func BenchmarkFig5(b *testing.B)   { runExperimentBench(b, "fig5", "mse") }
func BenchmarkFig6(b *testing.B)   { runExperimentBench(b, "fig6", "mse") }
func BenchmarkFig7(b *testing.B)   { runExperimentBench(b, "fig7", "mse") }
func BenchmarkFig8(b *testing.B)   { runExperimentBench(b, "fig8", "mse") }
func BenchmarkFig9(b *testing.B)   { runExperimentBench(b, "fig9", "misclass") }
func BenchmarkFig10(b *testing.B)  { runExperimentBench(b, "fig10", "misclass") }
func BenchmarkFig11(b *testing.B)  { runExperimentBench(b, "fig11", "mse") }

func BenchmarkAblationK(b *testing.B)     { runExperimentBench(b, "ablation-k", "mse") }
func BenchmarkAblationAlpha(b *testing.B) { runExperimentBench(b, "ablation-alpha", "maxvar") }
func BenchmarkAblationFreq(b *testing.B)  { runExperimentBench(b, "ablation-freq", "mse") }
func BenchmarkAblationClip(b *testing.B)  { runExperimentBench(b, "ablation-clip", "mse") }
func BenchmarkAblationComm(b *testing.B)  { runExperimentBench(b, "ablation-comm", "bytes") }
