package pipeline

import (
	"fmt"
	"hash/fnv"
	"math"

	"ldp/internal/freq"
	"ldp/internal/rangequery"
)

// AggState is the one in-memory shape of a pipeline's aggregate: the
// additive report counters, numeric sums, and support-count columns every
// estimate derives from, range columns included. Each shard folds reports
// into one, the view builder keeps one per shard as its sync point and one
// running sum of the count columns, a Result holds their sum, and
// StateSnapshot exports that sum. Two states exported from pipelines with
// the same Fingerprint combine by elementwise addition, and the estimates
// computed from a sum of states are identical to the estimates a single
// pipeline would compute after ingesting all the underlying reports —
// that exactness is what the cluster fan-in tier is built on.
//
// Every count column is a freq.CountState, in four families: Freq and
// Joint, indexed by schema attribute (a numeric attribute holds the zero
// value; the slice is nil when the schema has no categorical attribute),
// and Range.Levels and Range.Grids. A Result's Range is nil (it answers
// range queries from a rangequery.View of the summed columns), and
// Trainer is set only on exported states (shards fold gradient reports
// into the Trainer). Trainer is a read-only observability snapshot:
// round-based federated training state has no meaningful union, so
// MergeState rejects states that carry it.
type AggState struct {
	NMean  int64
	NFreq  int64
	NJoint int64
	NRange int64

	MeanSum  []float64
	JointSum []float64

	Freq  []freq.CountState
	Joint []freq.CountState

	// Range holds the range task's count columns, one per hierarchy level
	// and grid; nil when the pipeline has no range task.
	Range *rangequery.AccState

	// Trainer is the federated-SGD coordinator snapshot; nil when the
	// pipeline has no gradient task. It never merges.
	Trainer *TrainerState
}

// TrainerState is an observability snapshot of the federated SGD
// coordinator, carried by exported states (and the cluster snapshot wire
// format) for inspection only.
type TrainerState struct {
	Round    int
	Done     bool
	Accepted int64
	Stale    int64
	Beta     []float64
}

// The count-column families of an AggState, as cols indexes them.
const (
	famFreq  = iota // Freq, by schema attribute
	famJoint        // Joint, by schema attribute
	famLevel        // Range.Levels, by rangequery.Collector.LevelIndex
	famGrid         // Range.Grids, by pair index
	numFams
)

// cols returns the state's count-column families, indexed by fam*: nil
// for a family the state does not carry.
func (st *AggState) cols() [numFams][]freq.CountState {
	c := [numFams][]freq.CountState{famFreq: st.Freq, famJoint: st.Joint}
	if st.Range != nil {
		c[famLevel], c[famGrid] = st.Range.Levels, st.Range.Grids
	}
	return c
}

// mapCols returns a state with st's report counters and, family by
// family, fn of st's count columns; its range state keeps st's range
// report count. Its numeric sums and trainer are unset.
func (st *AggState) mapCols(fn func(f int, cols []freq.CountState) []freq.CountState) *AggState {
	var c [numFams][]freq.CountState
	for f, cols := range st.cols() {
		c[f] = fn(f, cols)
	}
	out := &AggState{NMean: st.NMean, NFreq: st.NFreq, NJoint: st.NJoint, NRange: st.NRange,
		Freq: c[famFreq], Joint: c[famJoint]}
	if st.Range != nil {
		out.Range = &rangequery.AccState{N: st.Range.N, Levels: c[famLevel], Grids: c[famGrid]}
	}
	return out
}

// Total returns the number of shard-folded reports the state carries
// (gradient reports ride the trainer and are not counted, matching
// Watermark).
func (st *AggState) Total() int64 {
	return st.NMean + st.NFreq + st.NJoint + st.NRange
}

// newAggState allocates a zero state with the pipeline's shapes: the one
// allocator of shard, baseline, builder and exported states.
func (p *Pipeline) newAggState() *AggState {
	d := p.sch.Dim()
	st := &AggState{
		MeanSum:  make([]float64, d),
		JointSum: make([]float64, d),
	}
	if p.freq != nil {
		st.Freq, st.Joint = p.newCols(), p.newCols()
	}
	if p.rangeT != nil {
		st.Range = p.rangeT.col.NewState()
	}
	return st
}

// newCols allocates one attribute-indexed count-column family: a zeroed
// column of the attribute's cardinality for every categorical attribute,
// the zero value for every numeric one. The freq and joint oracles both
// run over the schema's categorical domains.
func (p *Pipeline) newCols() []freq.CountState {
	cols := make([]freq.CountState, len(p.attrMeta))
	for j, m := range p.attrMeta {
		if m.card > 0 {
			cols[j].Counts = make([]float64, m.card)
		}
	}
	return cols
}

// StateSnapshot exports the pipeline's raw aggregate state: sumShards'
// in-order sum, range columns included, plus a trainer snapshot. Like
// Snapshot it locks shards one at a time, so concurrent ingest on other
// shards proceeds; reports folded while the export is in progress may or
// may not be included. The returned state is the sum itself, which
// shares no memory with the pipeline.
func (p *Pipeline) StateSnapshot() *AggState {
	st := p.sumShards()
	if p.trainer != nil {
		m := p.trainer.Model()
		st.Trainer = &TrainerState{
			Round:    m.Round,
			Done:     m.Done,
			Accepted: p.trainer.Accepted(),
			Stale:    p.trainer.Stale(),
			Beta:     m.Beta,
		}
	}
	return st
}

// sumShards adds every shard's state into a fresh one, locking one shard
// at a time. The float sums add in shard order, so Snapshot,
// StateSnapshot, and the view builder's re-sum over its baselines all
// produce the same bits.
func (p *Pipeline) sumShards() *AggState {
	st := p.newAggState()
	for _, sh := range p.shards {
		sh.mu.Lock()
		st.add(&sh.st)
		sh.mu.Unlock()
	}
	return st
}

// add adds o into st elementwise: the scalars and every count column.
// Shapes must match.
func (st *AggState) add(o *AggState) {
	st.addScalars(o)
	if o.Range != nil {
		st.Range.N += o.Range.N
	}
	dst := st.cols()
	for f, cols := range o.cols() {
		freq.AddCols(dst[f], cols)
	}
}

// addScalars adds o's report counters and numeric sums into st
// elementwise. Shapes must match.
func (st *AggState) addScalars(o *AggState) {
	st.NMean += o.NMean
	st.NFreq += o.NFreq
	st.NJoint += o.NJoint
	st.NRange += o.NRange
	addVec(st.MeanSum, o.MeanSum)
	addVec(st.JointSum, o.JointSum)
}

func addVec(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] += v
	}
}

// sameShape reports whether o adds into st elementwise: the same
// dimension, range state present in both or neither, and every count
// family with the same domains column by column.
func (st *AggState) sameShape(o *AggState) bool {
	if len(st.MeanSum) != len(o.MeanSum) || len(st.JointSum) != len(o.JointSum) ||
		(st.Range == nil) != (o.Range == nil) {
		return false
	}
	a, b := st.cols(), o.cols()
	for f := range a {
		if !freq.SameDomains(a[f], b[f]) {
			return false
		}
	}
	return true
}

// CheckState validates a state's shape and values against the pipeline
// configuration without mutating anything. Counts and reporter counts
// must be non-negative and finite (they are monotone sums of indicators;
// anything else means a corrupt or malicious snapshot), numeric sums must
// be finite, and every per-attribute slice must match the schema exactly.
func (p *Pipeline) CheckState(st *AggState) error {
	if st == nil {
		return fmt.Errorf("pipeline: nil state")
	}
	if st.Trainer != nil {
		return fmt.Errorf("pipeline: merging federated training state is not supported")
	}
	if st.NMean < 0 || st.NFreq < 0 || st.NJoint < 0 || st.NRange < 0 {
		return fmt.Errorf("pipeline: negative report count in state")
	}
	d := p.sch.Dim()
	if len(st.MeanSum) != d || len(st.JointSum) != d {
		return fmt.Errorf("pipeline: state dimension mismatch (%d mean / %d joint sums, schema has %d attributes)",
			len(st.MeanSum), len(st.JointSum), d)
	}
	for _, v := range st.MeanSum {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("pipeline: non-finite mean sum in state")
		}
	}
	for _, v := range st.JointSum {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("pipeline: non-finite joint sum in state")
		}
	}
	if p.mean == nil && st.NMean != 0 {
		return fmt.Errorf("pipeline: state has mean reports but no mean task is registered")
	}
	if p.freq == nil && st.NFreq != 0 {
		return fmt.Errorf("pipeline: state has freq reports but no freq task is registered")
	}
	for f, cols := range [2][]freq.CountState{st.Freq, st.Joint} {
		name := [2]string{"freq", "joint"}[f]
		if p.freq == nil {
			if cols != nil {
				return fmt.Errorf("pipeline: state has %s counts but the schema has no categorical attribute", name)
			}
			continue
		}
		if len(cols) != d {
			return fmt.Errorf("pipeline: state %s counts cover %d attributes, schema has %d", name, len(cols), d)
		}
		for j := range cols {
			if err := cols[j].Check(p.attrMeta[j].card); err != nil {
				kind := "categorical"
				if p.attrMeta[j].numeric {
					kind = "numeric"
				}
				return fmt.Errorf("pipeline: state %s counts for %s attribute %q: %w", name, kind, p.sch.Attrs[j].Name, err)
			}
		}
	}
	switch {
	case p.rangeT == nil:
		if st.Range != nil || st.NRange != 0 {
			return fmt.Errorf("pipeline: state has range state but no range task is registered")
		}
	case st.Range == nil:
		if st.NRange != 0 {
			return fmt.Errorf("pipeline: state counts %d range reports but carries no range state", st.NRange)
		}
	default:
		if err := p.rangeT.col.CheckState(st.Range); err != nil {
			return err
		}
		if st.Range.N != st.NRange {
			return fmt.Errorf("pipeline: range state count %d does not match report count %d", st.Range.N, st.NRange)
		}
	}
	return nil
}

// MergeState validates st and folds it into the aggregate state under one
// shard's lock, advancing that shard's epoch by the state's report total
// so cached views invalidate exactly as if the underlying reports had
// been ingested locally. Safe for concurrent use with ingest, queries,
// and other MergeState calls. The state is only read.
func (p *Pipeline) MergeState(st *AggState) error {
	if err := p.CheckState(st); err != nil {
		return err
	}
	// Round-robin the merge target so repeated pushes spread across the
	// shard set, on the same cursor that rotates batch folds.
	var idx uint64
	if n := uint64(len(p.shards)); n > 1 {
		idx = p.cursor.Add(1) % n
	}
	sh := p.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.st.add(st)
	// Mark the columns the state actually touched so the next view
	// rebuild re-syncs exactly those. A merged state can move a reporter
	// count without a support count or the reverse, and either moves the
	// debiased estimate (freq.CountState.Active).
	for f, cols := range st.cols() {
		for i := range cols {
			if cols[i].Active() {
				sh.dirty[f].set(i)
			}
		}
	}
	sh.epoch.Add(st.Total())
	return nil
}

// Sub returns the elementwise difference cur - prev: the delta to ship
// after prev was already acknowledged by the receiver. A nil prev returns
// a deep copy. Both states must come from pipelines with the same
// Fingerprint. Trainer snapshots do not subtract; the result carries
// none.
func (cur *AggState) Sub(prev *AggState) (*AggState, error) {
	if prev == nil {
		out := cur.Clone()
		out.Trainer = nil
		return out, nil
	}
	if !cur.sameShape(prev) {
		return nil, fmt.Errorf("pipeline: subtracting states of different shapes")
	}
	b := prev.cols()
	out := cur.mapCols(func(f int, cols []freq.CountState) []freq.CountState { return freq.SubCols(cols, b[f]) })
	out.NMean -= prev.NMean
	out.NFreq -= prev.NFreq
	out.NJoint -= prev.NJoint
	out.NRange -= prev.NRange
	if out.Range != nil {
		out.Range.N -= prev.Range.N
	}
	out.MeanSum = subVec(cur.MeanSum, prev.MeanSum)
	out.JointSum = subVec(cur.JointSum, prev.JointSum)
	return out, nil
}

func subVec(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Add folds o into the state elementwise. Shapes must match, range
// columns included; on a mismatch Add returns an error before it adds
// anything. Trainer snapshots do not add and must be absent from o.
func (st *AggState) Add(o *AggState) error {
	if o == nil {
		return nil
	}
	if o.Trainer != nil {
		return fmt.Errorf("pipeline: adding federated training state is not supported")
	}
	if !st.sameShape(o) {
		return fmt.Errorf("pipeline: adding states of different shapes")
	}
	st.add(o)
	return nil
}

// Clone deep-copies the state.
func (st *AggState) Clone() *AggState {
	out := st.mapCols(func(_ int, cols []freq.CountState) []freq.CountState { return freq.CloneCols(cols) })
	out.MeanSum = append([]float64(nil), st.MeanSum...)
	out.JointSum = append([]float64(nil), st.JointSum...)
	if st.Trainer != nil {
		tr := *st.Trainer
		tr.Beta = append([]float64(nil), st.Trainer.Beta...)
		out.Trainer = &tr
	}
	return out
}

// Fingerprint is a stable hash of everything two pipelines must agree on
// for their aggregate states to mean the same thing: the schema
// (attribute names, kinds, cardinalities), the privacy budget, the
// registered analytics task set, and each task's estimator geometry and
// oracle identity (name and support probabilities — the debias
// parameters). Routing weights and shard counts are excluded: they change
// who reports what, not what the counts mean. The gradient task is also
// excluded — trainer state never rides the cluster snapshots, so a root
// may coordinate training while accepting analytics fan-in.
func (p *Pipeline) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "ldpstate1|eps=%x|d=%d", math.Float64bits(p.eps), p.sch.Dim())
	for _, a := range p.sch.Attrs {
		fmt.Fprintf(h, "|attr=%s,%d,%d", a.Name, a.Kind, a.Cardinality)
	}
	if p.mean != nil {
		fmt.Fprintf(h, "|mean=%s,k=%d", p.mean.Mechanism().Name(), p.mean.K())
	}
	if p.freq != nil {
		fmt.Fprintf(h, "|freq=k%d", p.freq.K())
		for _, j := range p.freq.attrs {
			o := p.freq.oracles[j]
			pp, q := o.SupportProbs()
			fmt.Fprintf(h, ",%s/%x/%x", o.Name(), math.Float64bits(pp), math.Float64bits(q))
		}
	}
	if p.joint.oracles != nil {
		fmt.Fprint(h, "|joint=")
		for _, o := range p.joint.oracles {
			if o != nil {
				pp, q := o.SupportProbs()
				fmt.Fprintf(h, "%s/%x/%x,", o.Name(), math.Float64bits(pp), math.Float64bits(q))
			}
		}
	}
	if p.rangeT != nil {
		col := p.rangeT.col
		hier := col.Hierarchy()
		fmt.Fprintf(h, "|range=B%d", hier.Buckets())
		for d := 1; d <= hier.Depths(); d++ {
			o := hier.Oracle(d)
			pp, q := o.SupportProbs()
			fmt.Fprintf(h, ",%s/%x/%x", o.Name(), math.Float64bits(pp), math.Float64bits(q))
		}
		if g := col.Grid(); g != nil {
			pp, q := g.Oracle().SupportProbs()
			fmt.Fprintf(h, "|grid=g%d,%s/%x/%x,pairs%d",
				g.Cells(), g.Oracle().Name(), math.Float64bits(pp), math.Float64bits(q), len(col.Pairs()))
		}
	}
	return h.Sum64()
}
