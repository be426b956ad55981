package experiment

import (
	"fmt"

	"ldp/internal/core"
	"ldp/internal/dataset"
	"ldp/internal/duchi"
	"ldp/internal/freq"
	"ldp/internal/mech"
	"ldp/internal/noise"
	"ldp/internal/pipeline"
	"ldp/internal/rng"
	"ldp/internal/schema"
)

func init() {
	register(Runner{
		Name: "fig4",
		Desc: "Fig 4: MSE of mean (numeric) and frequency (categorical) estimation on BR/MX vs eps",
		Run:  runFig4,
	})
	register(Runner{
		Name: "fig5",
		Desc: "Fig 5: MSE on 16-dim truncated Gaussian N(mu, 1/16), mu in {0,1/3,2/3,1}, vs eps",
		Run:  runFig5,
	})
	register(Runner{
		Name: "fig6",
		Desc: "Fig 6: MSE on 16-dim uniform and power-law synthetic data vs eps",
		Run:  runFig6,
	})
	register(Runner{
		Name: "fig7",
		Desc: "Fig 7: MSE vs number of users (MX schema, numeric and categorical)",
		Run:  runFig7,
	})
	register(Runner{
		Name: "fig8",
		Desc: "Fig 8: MSE vs dimensionality (MX schema prefixes, numeric and categorical)",
		Run:  runFig8,
	})
	register(Runner{
		Name: "ablation-k",
		Desc: "Ablation: empirical MSE of Algorithm 4 for k = 1..d vs the Eq. 12 rule",
		Run:  runAblationK,
	})
	register(Runner{
		Name: "ablation-freq",
		Desc: "Ablation: OUE vs GRR vs SUE as the categorical oracle inside Algorithm 4",
		Run:  runAblationFreq,
	})
}

// numericMethods is the method set for purely numeric populations (Figures
// 5 and 6): the split-budget baselines at eps/d per attribute, Duchi's
// multidimensional mechanism at eps, and Algorithm 4 with PM/HM at eps.
var numericMethods = []string{"laplace", "scdf", "duchi", "pm", "hm"}

func buildNumericPerturber(name string, eps float64, d int) (mech.VectorPerturber, error) {
	switch name {
	case "laplace":
		return mech.NewComposed(lapFactory, eps, d)
	case "scdf":
		return mech.NewComposed(scdfFactory, eps, d)
	case "staircase":
		return mech.NewComposed(stairFactory, eps, d)
	case "duchi":
		return duchi.NewMulti(eps, d)
	case "pm":
		return core.NewNumericCollector(pmFactory, eps, d)
	case "hm":
		return core.NewNumericCollector(hmFactory, eps, d)
	default:
		return nil, fmt.Errorf("experiment: unknown numeric method %q", name)
	}
}

// runNumericOnce simulates one run over a purely numeric population and
// returns the MSE of the estimated attribute means per method.
func runNumericOnce(src *dataset.Source, methods []string, eps float64, n int, seed uint64) (map[string]float64, error) {
	d := src.Dim()
	perts := make([]mech.VectorPerturber, len(methods))
	for i, m := range methods {
		p, err := buildNumericPerturber(m, eps, d)
		if err != nil {
			return nil, err
		}
		perts[i] = p
	}
	truth := make([]float64, d)
	sums := make([][]float64, len(methods))
	for i := range sums {
		sums[i] = make([]float64, d)
	}
	tuple := make([]float64, d)
	outs := make([][]float64, len(perts))
	for u := 0; u < n; u++ {
		r := rng.NewStream(seed, uint64(u))
		src.Fill(tuple, r)
		for j, v := range tuple {
			truth[j] += v
		}
		for i, p := range perts {
			outs[i] = mech.PerturbInto(p, outs[i], tuple, r)
			for j, v := range outs[i] {
				sums[i][j] += v
			}
		}
	}
	res := make(map[string]float64, len(methods))
	for i, m := range methods {
		mse := 0.0
		for j := 0; j < d; j++ {
			diff := (sums[i][j] - truth[j]) / float64(n)
			mse += diff * diff
		}
		res[m] = mse / float64(d)
	}
	return res, nil
}

// mixedNumericMethods and mixedCatMethods are the Figure 4 method sets: the
// best-effort composition of existing work against the proposed collector.
var (
	mixedNumericMethods = []string{"laplace", "scdf", "staircase", "duchi", "pm", "hm"}
	mixedCatMethods     = []string{"oue-split", "proposed"}
)

// runMixedOnce simulates one run of the Figure 4/7/8 pipeline over a mixed
// numeric+categorical population:
//
//   - split-budget baselines give every attribute eps/d (Laplace, SCDF,
//     Staircase per numeric attribute; OUE per categorical attribute) and
//     Duchi's Algorithm 3 runs on the numeric block with budget
//     eps*dn/d, exactly the best-effort combination of Section VI-A;
//   - the proposed solution runs Algorithm 4 over all d attributes (PM and
//     HM variants; categorical frequencies come from the PM collector).
//
// It returns per-method MSEs: over numeric attribute means, and over all
// (categorical attribute, value) frequency pairs.
func runMixedOnce(sch *schema.Schema, gen func(r *rng.Rand) schema.Tuple, eps float64, n int, seed uint64) (map[string]float64, error) {
	d := sch.Dim()
	numIdx, catIdx := sch.NumericIdx(), sch.CategoricalIdx()
	dn, dc := len(numIdx), len(catIdx)
	epsEach := eps / float64(d)

	lap, err := noise.NewLaplace(epsEach)
	if err != nil {
		return nil, err
	}
	scdf, err := noise.NewSCDF(epsEach)
	if err != nil {
		return nil, err
	}
	stair, err := noise.NewStaircase(epsEach)
	if err != nil {
		return nil, err
	}
	var duMulti *duchi.Multi
	if dn > 0 {
		duMulti, err = duchi.NewMulti(eps*float64(dn)/float64(d), dn)
		if err != nil {
			return nil, err
		}
	}
	pipePM, err := pipeline.New(sch, eps, pipeline.WithMechanism(pmFactory), pipeline.WithOracle(oueFactory))
	if err != nil {
		return nil, err
	}
	pipeHM, err := pipeline.New(sch, eps, pipeline.WithMechanism(hmFactory), pipeline.WithOracle(oueFactory))
	if err != nil {
		return nil, err
	}
	jointPM, jointHM := pipePM.JointTask(), pipeHM.JointTask()

	splitOracles := make([]freq.Oracle, dc)
	splitEsts := make([]*freq.Estimator, dc)
	for i, a := range catIdx {
		o, err := freq.NewOUE(epsEach, sch.Attrs[a].Cardinality)
		if err != nil {
			return nil, err
		}
		splitOracles[i] = o
		splitEsts[i] = freq.NewEstimator(o)
	}

	truthNum := make([]float64, dn)
	truthCat := make([][]float64, dc)
	for i, a := range catIdx {
		truthCat[i] = make([]float64, sch.Attrs[a].Cardinality)
	}
	lapSum := make([]float64, dn)
	scdfSum := make([]float64, dn)
	stairSum := make([]float64, dn)
	duSum := make([]float64, dn)
	numVec := make([]float64, dn)

	for u := 0; u < n; u++ {
		r := rng.NewStream(seed, uint64(u))
		tup := gen(r)
		for i, a := range numIdx {
			v := tup.Num[a]
			truthNum[i] += v
			numVec[i] = v
			lapSum[i] += lap.Perturb(v, r)
			scdfSum[i] += scdf.Perturb(v, r)
			stairSum[i] += stair.Perturb(v, r)
		}
		for i, a := range catIdx {
			truthCat[i][tup.Cat[a]]++
		}
		if duMulti != nil {
			for i, v := range duMulti.PerturbVector(numVec, r) {
				duSum[i] += v
			}
		}
		repPM, err := jointPM.Randomize(tup, r)
		if err != nil {
			return nil, err
		}
		if err := pipePM.Add(repPM); err != nil {
			return nil, err
		}
		repHM, err := jointHM.Randomize(tup, r)
		if err != nil {
			return nil, err
		}
		if err := pipeHM.Add(repHM); err != nil {
			return nil, err
		}
		for i, a := range catIdx {
			splitEsts[i].Add(splitOracles[i].Perturb(tup.Cat[a], r))
		}
	}

	res := map[string]float64{}
	nf := float64(n)
	numMSE := func(sums []float64) float64 {
		if dn == 0 {
			return 0
		}
		mse := 0.0
		for i := range sums {
			diff := (sums[i] - truthNum[i]) / nf
			mse += diff * diff
		}
		return mse / float64(dn)
	}
	res["num/laplace"] = numMSE(lapSum)
	res["num/scdf"] = numMSE(scdfSum)
	res["num/staircase"] = numMSE(stairSum)
	if duMulti != nil {
		res["num/duchi"] = numMSE(duSum)
	}
	resPM, resHM := pipePM.Snapshot(), pipeHM.Snapshot()
	meansMSE := func(snap *pipeline.Result) float64 {
		if dn == 0 {
			return 0
		}
		means := snap.Means()
		mse := 0.0
		for i, a := range numIdx {
			diff := means[sch.Attrs[a].Name] - truthNum[i]/nf
			mse += diff * diff
		}
		return mse / float64(dn)
	}
	res["num/pm"] = meansMSE(resPM)
	res["num/hm"] = meansMSE(resHM)

	if dc > 0 {
		catMSE := func(estFor func(i, attr int) ([]float64, error)) (float64, error) {
			mse, count := 0.0, 0
			for i, a := range catIdx {
				est, err := estFor(i, a)
				if err != nil {
					return 0, err
				}
				for v := range est {
					diff := est[v] - truthCat[i][v]/nf
					mse += diff * diff
					count++
				}
			}
			return mse / float64(count), nil
		}
		split, err := catMSE(func(i, _ int) ([]float64, error) { return splitEsts[i].Estimates(), nil })
		if err != nil {
			return nil, err
		}
		proposed, err := catMSE(func(_, a int) ([]float64, error) { return resPM.Freq(sch.Attrs[a].Name) })
		if err != nil {
			return nil, err
		}
		res["cat/oue-split"] = split
		res["cat/proposed"] = proposed
	}
	return res, nil
}

// mixedTables converts averaged mixed-run results into the numeric and
// categorical tables for one x position, appending to the passed tables.
func appendMixedRow(numT, catT *Table, x string, avg map[string]float64) {
	numRow := TableRow{X: x}
	for _, m := range mixedNumericMethods {
		numRow.Values = append(numRow.Values, avg["num/"+m])
	}
	numT.Rows = append(numT.Rows, numRow)
	// A schema prefix may contain no categorical attributes (fig8 at
	// d=5); skip the categorical row rather than print zeros.
	if _, ok := avg["cat/proposed"]; !ok {
		return
	}
	catRow := TableRow{X: x}
	for _, m := range mixedCatMethods {
		catRow.Values = append(catRow.Values, avg["cat/"+m])
	}
	catT.Rows = append(catT.Rows, catRow)
}

func newMixedTables(id, dataName, xlabel string) (Table, Table) {
	numT := Table{
		ID:      id,
		Title:   fmt.Sprintf("%s-numeric: MSE of mean estimation", dataName),
		XLabel:  xlabel,
		YLabel:  "MSE over numeric attribute means",
		Columns: append([]string(nil), mixedNumericMethods...),
	}
	catT := Table{
		ID:      id,
		Title:   fmt.Sprintf("%s-categorical: MSE of frequency estimation", dataName),
		XLabel:  xlabel,
		YLabel:  "MSE over categorical value frequencies",
		Columns: append([]string(nil), mixedCatMethods...),
	}
	return numT, catT
}

func runFig4(opts Options) ([]Table, error) {
	opts = opts.normalized()
	var tables []Table
	for _, c := range []*dataset.Census{dataset.NewBR(), dataset.NewMX()} {
		numT, catT := newMixedTables("fig4", c.Name(), "eps")
		for ei, eps := range opts.EpsList {
			avg, err := averageRuns(opts.Runs, opts.Workers, func(run int) (map[string]float64, error) {
				seed := opts.Seed + uint64(run*1_000_003+ei*7907)
				return runMixedOnce(c.Schema(), c.Tuple, eps, opts.N, seed)
			})
			if err != nil {
				return nil, err
			}
			appendMixedRow(&numT, &catT, fmt.Sprintf("%g", eps), avg)
		}
		tables = append(tables, numT, catT)
	}
	return tables, nil
}

func runFig5(opts Options) ([]Table, error) {
	opts = opts.normalized()
	var tables []Table
	for _, mu := range []float64{0, 1.0 / 3, 2.0 / 3, 1} {
		src := dataset.NewGaussianSource(16, mu)
		t := Table{
			ID:      "fig5",
			Title:   fmt.Sprintf("MSE on 16-dim Gaussian N(%.3f, 1/16) truncated to [-1,1]", mu),
			XLabel:  "eps",
			YLabel:  "MSE over attribute means",
			Columns: append([]string(nil), numericMethods...),
		}
		for ei, eps := range opts.EpsList {
			avg, err := averageRuns(opts.Runs, opts.Workers, func(run int) (map[string]float64, error) {
				seed := opts.Seed + uint64(run*1_000_003+ei*7907+int(mu*1000)*17)
				return runNumericOnce(src, numericMethods, eps, opts.N, seed)
			})
			if err != nil {
				return nil, err
			}
			row := TableRow{X: fmt.Sprintf("%g", eps)}
			for _, m := range numericMethods {
				row.Values = append(row.Values, avg[m])
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runFig6(opts Options) ([]Table, error) {
	opts = opts.normalized()
	var tables []Table
	for si, src := range []*dataset.Source{dataset.NewUniformSource(16), dataset.NewPowerLawSource(16)} {
		t := Table{
			ID:      "fig6",
			Title:   fmt.Sprintf("MSE on 16-dim %s data", src.Name()),
			XLabel:  "eps",
			YLabel:  "MSE over attribute means",
			Columns: append([]string(nil), numericMethods...),
		}
		for ei, eps := range opts.EpsList {
			avg, err := averageRuns(opts.Runs, opts.Workers, func(run int) (map[string]float64, error) {
				seed := opts.Seed + uint64(run*1_000_003+ei*7907+si*104729)
				return runNumericOnce(src, numericMethods, eps, opts.N, seed)
			})
			if err != nil {
				return nil, err
			}
			row := TableRow{X: fmt.Sprintf("%g", eps)}
			for _, m := range numericMethods {
				row.Values = append(row.Values, avg[m])
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runFig7(opts Options) ([]Table, error) {
	opts = opts.normalized()
	c := dataset.NewMX()
	numT, catT := newMixedTables("fig7", c.Name(), "n")
	numT.Title += fmt.Sprintf(" (eps=%g)", opts.Eps)
	catT.Title += fmt.Sprintf(" (eps=%g)", opts.Eps)
	for ni, n := range []int{opts.N / 16, opts.N / 8, opts.N / 4, opts.N / 2, opts.N} {
		if n < 100 {
			continue
		}
		avg, err := averageRuns(opts.Runs, opts.Workers, func(run int) (map[string]float64, error) {
			seed := opts.Seed + uint64(run*1_000_003+ni*7907)
			return runMixedOnce(c.Schema(), c.Tuple, opts.Eps, n, seed)
		})
		if err != nil {
			return nil, err
		}
		appendMixedRow(&numT, &catT, fmt.Sprintf("%d", n), avg)
	}
	return []Table{numT, catT}, nil
}

func runFig8(opts Options) ([]Table, error) {
	opts = opts.normalized()
	c := dataset.NewMX()
	full := c.Schema()
	numT, catT := newMixedTables("fig8", c.Name(), "d")
	numT.Title += fmt.Sprintf(" (eps=%g)", opts.Eps)
	catT.Title += fmt.Sprintf(" (eps=%g)", opts.Eps)
	for di, d := range []int{5, 10, 15, 19} {
		sub, err := schema.New(full.Attrs[:d]...)
		if err != nil {
			return nil, err
		}
		gen := func(r *rng.Rand) schema.Tuple {
			t := c.Tuple(r)
			return schema.Tuple{Num: t.Num[:d], Cat: t.Cat[:d]}
		}
		avg, err := averageRuns(opts.Runs, opts.Workers, func(run int) (map[string]float64, error) {
			seed := opts.Seed + uint64(run*1_000_003+di*7907)
			return runMixedOnce(sub, gen, opts.Eps, opts.N, seed)
		})
		if err != nil {
			return nil, err
		}
		appendMixedRow(&numT, &catT, fmt.Sprintf("%d", d), avg)
	}
	return []Table{numT, catT}, nil
}

func runAblationK(opts Options) ([]Table, error) {
	opts = opts.normalized()
	const d = 10
	src := dataset.NewGaussianSource(d, 1.0/3)
	epsList := []float64{2.5, 5, 7.5}
	cols := make([]string, 0, d+1)
	for k := 1; k <= d; k++ {
		cols = append(cols, fmt.Sprintf("k=%d", k))
	}
	cols = append(cols, "k=Eq.12")
	t := Table{
		ID:      "ablation-k",
		Title:   fmt.Sprintf("Algorithm 4 (PM) empirical MSE for fixed k vs the Eq. 12 rule, d=%d Gaussian", d),
		XLabel:  "eps",
		YLabel:  "MSE over attribute means",
		Columns: cols,
	}
	for ei, eps := range epsList {
		avg, err := averageRuns(opts.Runs, opts.Workers, func(run int) (map[string]float64, error) {
			seed := opts.Seed + uint64(run*1_000_003+ei*7907)
			res := map[string]float64{}
			for k := 1; k <= d; k++ {
				col, err := core.NewNumericCollectorK(pmFactory, eps, d, k)
				if err != nil {
					return nil, err
				}
				mse, err := numericMSEWithPerturber(src, col, opts.N, seed+uint64(k)*31)
				if err != nil {
					return nil, err
				}
				res[fmt.Sprintf("k=%d", k)] = mse
			}
			return res, nil
		})
		if err != nil {
			return nil, err
		}
		row := TableRow{X: fmt.Sprintf("%g", eps)}
		for k := 1; k <= d; k++ {
			row.Values = append(row.Values, avg[fmt.Sprintf("k=%d", k)])
		}
		row.Values = append(row.Values, avg[fmt.Sprintf("k=%d", core.KFor(eps, d))])
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// numericMSEWithPerturber measures the mean-estimation MSE of one
// perturber over a generated population.
func numericMSEWithPerturber(src *dataset.Source, p mech.VectorPerturber, n int, seed uint64) (float64, error) {
	d := src.Dim()
	truth := make([]float64, d)
	sum := make([]float64, d)
	tuple := make([]float64, d)
	var out []float64
	for u := 0; u < n; u++ {
		r := rng.NewStream(seed, uint64(u))
		src.Fill(tuple, r)
		for j, v := range tuple {
			truth[j] += v
		}
		out = mech.PerturbInto(p, out, tuple, r)
		for j, v := range out {
			sum[j] += v
		}
	}
	mse := 0.0
	for j := 0; j < d; j++ {
		diff := (sum[j] - truth[j]) / float64(n)
		mse += diff * diff
	}
	return mse / float64(d), nil
}

func runAblationFreq(opts Options) ([]Table, error) {
	opts = opts.normalized()
	c := dataset.NewMX()
	full := c.Schema()
	// Categorical-only prefix of the MX schema.
	catIdx := full.CategoricalIdx()
	attrs := make([]schema.Attribute, len(catIdx))
	for i, a := range catIdx {
		attrs[i] = full.Attrs[a]
	}
	sub, err := schema.New(attrs...)
	if err != nil {
		return nil, err
	}
	gen := func(r *rng.Rand) schema.Tuple {
		t := c.Tuple(r)
		out := schema.NewTuple(sub)
		for i, a := range catIdx {
			out.Cat[i] = t.Cat[a]
		}
		return out
	}
	oracles := []struct {
		name    string
		factory freq.Factory
	}{
		{"oue", oueFactory},
		{"grr", grrFactory},
		{"sue", sueFactory},
	}
	t := Table{
		ID:      "ablation-freq",
		Title:   "categorical frequency MSE of Algorithm 4 with different oracles (MX categorical attributes)",
		XLabel:  "eps",
		YLabel:  "MSE over value frequencies",
		Columns: []string{"oue", "grr", "sue"},
	}
	for ei, eps := range opts.EpsList {
		avg, err := averageRuns(opts.Runs, opts.Workers, func(run int) (map[string]float64, error) {
			seed := opts.Seed + uint64(run*1_000_003+ei*7907)
			res := map[string]float64{}
			for _, o := range oracles {
				mse, err := categoricalMSEWithOracle(sub, gen, o.factory, eps, opts.N, seed)
				if err != nil {
					return nil, err
				}
				res[o.name] = mse
			}
			return res, nil
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, TableRow{
			X:      fmt.Sprintf("%g", eps),
			Values: []float64{avg["oue"], avg["grr"], avg["sue"]},
		})
	}
	return []Table{t}, nil
}

func categoricalMSEWithOracle(sch *schema.Schema, gen func(*rng.Rand) schema.Tuple, factory freq.Factory, eps float64, n int, seed uint64) (float64, error) {
	p, err := pipeline.New(sch, eps, pipeline.WithMechanism(pmFactory), pipeline.WithOracle(factory))
	if err != nil {
		return 0, err
	}
	joint := p.JointTask()
	truth := make([][]float64, sch.Dim())
	for i, a := range sch.Attrs {
		truth[i] = make([]float64, a.Cardinality)
	}
	for u := 0; u < n; u++ {
		r := rng.NewStream(seed, uint64(u))
		tup := gen(r)
		for i := range sch.Attrs {
			truth[i][tup.Cat[i]]++
		}
		rep, err := joint.Randomize(tup, r)
		if err != nil {
			return 0, err
		}
		if err := p.Add(rep); err != nil {
			return 0, err
		}
	}
	res := p.Snapshot()
	mse, count := 0.0, 0
	for i, a := range sch.Attrs {
		est, err := res.Freq(a.Name)
		if err != nil {
			return 0, err
		}
		for v := range est {
			diff := est[v] - truth[i][v]/float64(n)
			mse += diff * diff
			count++
		}
	}
	return mse / float64(count), nil
}
