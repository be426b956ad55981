package experiment

import (
	"fmt"

	"ldp/internal/core"
	"ldp/internal/dataset"
	"ldp/internal/duchi"
	"ldp/internal/freq"
	"ldp/internal/pipeline"
	"ldp/internal/rng"
	"ldp/internal/schema"
	"ldp/internal/transport"
)

func init() {
	register(Runner{
		Name: "ablation-comm",
		Desc: "Ablation: wire bytes per user report — Algorithm 4 vs split-budget and Duchi encodings",
		Run:  runAblationComm,
	})
}

// runAblationComm measures the average serialized report size per user for
// the pipelines compared in Figure 4, using the repository's wire envelope
// (a TaskJoint frame) for every method:
//
//   - proposed: Algorithm 4's k sampled entries (numeric value or OUE
//     bitset);
//   - oue+laplace split: every attribute reported every time — dn numeric
//     entries plus dc OUE bitsets;
//   - duchi+oue split: Duchi's corner vector for the numeric block (dn
//     numeric entries) plus dc OUE bitsets.
//
// The paper's related work (Ren et al.) is criticized for exactly this
// kind of k-sized-vector-per-attribute communication blowup; this table
// quantifies it.
func runAblationComm(opts Options) ([]Table, error) {
	opts = opts.normalized()
	c := dataset.NewBR()
	sch := c.Schema()
	t := Table{
		ID:      "ablation-comm",
		Title:   "average report size on the BR schema (bytes/user, wire format)",
		XLabel:  "eps",
		YLabel:  "mean frame bytes per user",
		Columns: []string{"proposed", "split-laplace+oue", "duchi+oue"},
	}
	const users = 300
	for _, eps := range opts.EpsList {
		propBytes, err := meanProposedBytes(c, eps, users, opts.Seed)
		if err != nil {
			return nil, err
		}
		splitBytes, err := meanSplitBytes(sch, c, eps, users, opts.Seed, false)
		if err != nil {
			return nil, err
		}
		duchiBytes, err := meanSplitBytes(sch, c, eps, users, opts.Seed, true)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, TableRow{
			X:      fmt.Sprintf("%g", eps),
			Values: []float64{propBytes, splitBytes, duchiBytes},
		})
	}
	return []Table{t}, nil
}

func meanProposedBytes(c *dataset.Census, eps float64, users int, seed uint64) (float64, error) {
	p, err := pipeline.New(c.Schema(), eps, pipeline.WithMechanism(pmFactory), pipeline.WithOracle(oueFactory))
	if err != nil {
		return 0, err
	}
	joint := p.JointTask()
	total := 0
	var frame []byte
	for u := 0; u < users; u++ {
		r := rng.NewStream(seed, uint64(u))
		rep, err := joint.Randomize(c.Tuple(r), r)
		if err != nil {
			return 0, err
		}
		if frame, err = transport.AppendEnvelope(frame[:0], rep); err != nil {
			return 0, err
		}
		total += len(frame)
	}
	return float64(total) / float64(users), nil
}

// meanSplitBytes sizes the best-effort baseline's upload: one envelope
// carrying every attribute (numeric entries for the numeric block —
// identical size for Laplace noise values and Duchi corner coordinates —
// and one OUE bitset per categorical attribute).
func meanSplitBytes(sch *schema.Schema, c *dataset.Census, eps float64, users int, seed uint64, useDuchi bool) (float64, error) {
	numIdx, catIdx := sch.NumericIdx(), sch.CategoricalIdx()
	d := sch.Dim()
	epsEach := eps / float64(d)
	var du *duchi.Multi
	var err error
	if useDuchi && len(numIdx) > 0 {
		du, err = duchi.NewMulti(eps*float64(len(numIdx))/float64(d), len(numIdx))
		if err != nil {
			return 0, err
		}
	}
	oracles := make([]freq.Oracle, len(catIdx))
	for i, a := range catIdx {
		if oracles[i], err = freq.NewOUE(epsEach, sch.Attrs[a].Cardinality); err != nil {
			return 0, err
		}
	}
	total := 0
	var frame []byte
	numVec := make([]float64, len(numIdx))
	for u := 0; u < users; u++ {
		r := rng.NewStream(seed, uint64(u))
		tup := c.Tuple(r)
		var entries []core.Entry
		if du != nil {
			for i, a := range numIdx {
				numVec[i] = tup.Num[a]
			}
			for i, v := range du.PerturbVector(numVec, r) {
				entries = append(entries, core.Entry{Attr: numIdx[i], Kind: core.EntryNumeric, Value: v})
			}
		} else {
			for _, a := range numIdx {
				entries = append(entries, core.Entry{Attr: a, Kind: core.EntryNumeric, Value: tup.Num[a]})
			}
		}
		for i, a := range catIdx {
			entries = append(entries, core.Entry{
				Attr: a,
				Kind: core.EntryCategoricalBits,
				Resp: oracles[i].Perturb(tup.Cat[a], r),
			})
		}
		if frame, err = transport.AppendEnvelope(frame[:0], pipeline.Report{Task: pipeline.TaskJoint, Entries: entries}); err != nil {
			return 0, err
		}
		total += len(frame)
	}
	return float64(total) / float64(users), nil
}
