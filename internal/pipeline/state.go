package pipeline

import (
	"fmt"
	"hash/fnv"
	"math"

	"ldp/internal/rangequery"
	"ldp/internal/schema"
)

// AggState is the one in-memory shape of a pipeline's aggregate: the
// additive report counters, numeric sums, support counts, and reporter
// counts every estimate derives from, range columns included. Each shard
// folds reports into one, the view builder keeps one per shard as its
// sync point, a Result holds their sum, and StateSnapshot exports that
// sum. Two states exported from pipelines with the same Fingerprint
// combine by elementwise addition, and the estimates computed from a sum
// of states are identical to the estimates a single pipeline would
// compute after ingesting all the underlying reports — that exactness is
// what the cluster fan-in tier is built on.
//
// Slices are indexed by schema attribute; FreqCounts/JointCounts entries
// are nil for numeric attributes. A Result's Range is nil (it answers
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

	FreqCounts  [][]float64
	FreqN       []int64
	JointCounts [][]float64
	JointN      []int64

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

// Total returns the number of shard-folded reports the state carries
// (gradient reports ride the trainer and are not counted, matching
// Watermark).
func (st *AggState) Total() int64 {
	return st.NMean + st.NFreq + st.NJoint + st.NRange
}

// newAggState allocates a zero state with the pipeline's shapes: the one
// allocator of shard, baseline, and exported states.
func (p *Pipeline) newAggState() *AggState {
	d := p.sch.Dim()
	st := &AggState{
		MeanSum:  make([]float64, d),
		JointSum: make([]float64, d),
	}
	if p.freq != nil {
		st.FreqCounts = make([][]float64, d)
		st.FreqN = make([]int64, d)
	}
	if p.joint.oracles != nil {
		st.JointCounts = make([][]float64, d)
		st.JointN = make([]int64, d)
	}
	p.zeroCols(st)
	if p.rangeT != nil {
		st.Range = p.rangeT.col.NewState()
	}
	return st
}

// zeroCols fills st's freq and joint count-column tables, which must be
// allocated, with zeroed columns of the pipeline's domains.
func (p *Pipeline) zeroCols(st *AggState) {
	if p.freq != nil {
		for _, j := range p.freq.attrs {
			st.FreqCounts[j] = make([]float64, p.sch.Attrs[j].Cardinality)
		}
	}
	for j, o := range p.joint.oracles {
		if o != nil {
			st.JointCounts[j] = make([]float64, o.Cardinality())
		}
	}
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
		st.addScalars(&sh.st)
		st.addCounts(&sh.st)
		sh.mu.Unlock()
	}
	return st
}

// addScalars adds o's report counters, numeric sums, and reporter counts
// into st elementwise. Shapes must match.
func (st *AggState) addScalars(o *AggState) {
	st.NMean += o.NMean
	st.NFreq += o.NFreq
	st.NJoint += o.NJoint
	st.NRange += o.NRange
	addVec(st.MeanSum, o.MeanSum)
	addVec(st.JointSum, o.JointSum)
	addVec(st.FreqN, o.FreqN)
	addVec(st.JointN, o.JointN)
}

// addCounts adds o's support-count columns into st elementwise: the freq
// and joint columns, and the range columns with their reporter counts.
// Shapes must match.
func (st *AggState) addCounts(o *AggState) {
	for j, col := range o.FreqCounts {
		addVec(st.FreqCounts[j], col)
	}
	for j, col := range o.JointCounts {
		addVec(st.JointCounts[j], col)
	}
	if o.Range != nil {
		st.Range.N += o.Range.N
		addCountStates(st.Range.Levels, o.Range.Levels)
		addCountStates(st.Range.Grids, o.Range.Grids)
	}
}

func addCountStates(dst, src []rangequery.CountState) {
	for i := range src {
		addVec(dst[i].Counts, src[i].Counts)
		dst[i].N += src[i].N
	}
}

func addVec[T int64 | float64](dst, src []T) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] += v
	}
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
	if err := p.checkCountColumns("freq", p.freq != nil, st.NFreq, st.FreqCounts, st.FreqN, func(j int) int {
		return p.sch.Attrs[j].Cardinality
	}); err != nil {
		return err
	}
	jointCard := func(j int) int { return p.joint.oracles[j].Cardinality() }
	if err := p.checkCountColumns("joint", p.joint.oracles != nil, st.NJoint, st.JointCounts, st.JointN, jointCard); err != nil {
		return err
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

// checkCountColumns validates one oracle count family (freq or joint)
// against the schema: present exactly when the task is registered, with
// per-attribute domains matching card(j) for categorical attributes and
// nil columns for numeric ones.
func (p *Pipeline) checkCountColumns(name string, has bool, n int64, counts [][]float64, ns []int64, card func(int) int) error {
	if !has {
		if counts != nil || ns != nil || n != 0 {
			return fmt.Errorf("pipeline: state has %s counts but no %s state is registered", name, name)
		}
		return nil
	}
	d := p.sch.Dim()
	if len(counts) != d || len(ns) != d {
		return fmt.Errorf("pipeline: state %s counts cover %d attributes, schema has %d", name, len(counts), d)
	}
	for j := 0; j < d; j++ {
		numeric := p.sch.Attrs[j].Kind == schema.Numeric
		if numeric {
			if counts[j] != nil || ns[j] != 0 {
				return fmt.Errorf("pipeline: state has %s counts for numeric attribute %q", name, p.sch.Attrs[j].Name)
			}
			continue
		}
		if len(counts[j]) != card(j) {
			return fmt.Errorf("pipeline: state %s counts for attribute %q have domain %d, want %d",
				name, p.sch.Attrs[j].Name, len(counts[j]), card(j))
		}
		if ns[j] < 0 {
			return fmt.Errorf("pipeline: negative %s reporter count for attribute %q", name, p.sch.Attrs[j].Name)
		}
		for _, v := range counts[j] {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("pipeline: %s count for attribute %q is negative or non-finite", name, p.sch.Attrs[j].Name)
			}
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
	sh.st.addScalars(st)
	sh.st.addCounts(st)
	// Mark the components the state actually touched so the next
	// incremental view rebuild re-syncs exactly those. Activity is judged
	// by reporter count OR support counts: a merged state can move one
	// without the other, and either moves the debiased estimate.
	for i := range st.FreqCounts {
		if colActive(st.FreqCounts[i], st.FreqN[i]) {
			sh.dFreq.set(i)
		}
	}
	for i := range st.JointCounts {
		if colActive(st.JointCounts[i], st.JointN[i]) {
			sh.dJoint.set(i)
		}
	}
	if st.Range != nil {
		for li := range st.Range.Levels {
			if colActive(st.Range.Levels[li].Counts, st.Range.Levels[li].N) {
				sh.dLevel.set(li)
			}
		}
		for g := range st.Range.Grids {
			if colActive(st.Range.Grids[g].Counts, st.Range.Grids[g].N) {
				sh.dGrid.set(g)
			}
		}
	}
	sh.epoch.Add(st.Total())
	return nil
}

// colActive reports whether a merged count column carries any activity: a
// nonzero reporter count or any nonzero support count.
func colActive(counts []float64, n int64) bool {
	if n != 0 {
		return true
	}
	for _, c := range counts {
		if c != 0 {
			return true
		}
	}
	return false
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
	if len(cur.MeanSum) != len(prev.MeanSum) ||
		len(cur.FreqCounts) != len(prev.FreqCounts) ||
		len(cur.JointCounts) != len(prev.JointCounts) ||
		(cur.Range == nil) != (prev.Range == nil) {
		return nil, fmt.Errorf("pipeline: subtracting states of different shapes")
	}
	out := &AggState{
		NMean:    cur.NMean - prev.NMean,
		NFreq:    cur.NFreq - prev.NFreq,
		NJoint:   cur.NJoint - prev.NJoint,
		NRange:   cur.NRange - prev.NRange,
		MeanSum:  subVec(cur.MeanSum, prev.MeanSum),
		JointSum: subVec(cur.JointSum, prev.JointSum),
	}
	var err error
	if out.FreqCounts, out.FreqN, err = subCols(cur.FreqCounts, cur.FreqN, prev.FreqCounts, prev.FreqN); err != nil {
		return nil, err
	}
	if out.JointCounts, out.JointN, err = subCols(cur.JointCounts, cur.JointN, prev.JointCounts, prev.JointN); err != nil {
		return nil, err
	}
	if cur.Range != nil {
		if out.Range, err = cur.Range.Sub(prev.Range); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func subVec(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func subCols(ac [][]float64, an []int64, bc [][]float64, bn []int64) ([][]float64, []int64, error) {
	if ac == nil {
		return nil, nil, nil
	}
	counts := make([][]float64, len(ac))
	ns := make([]int64, len(an))
	for j := range ac {
		if (ac[j] == nil) != (bc[j] == nil) || len(ac[j]) != len(bc[j]) {
			return nil, nil, fmt.Errorf("pipeline: subtracting states of different shapes")
		}
		if ac[j] != nil {
			counts[j] = subVec(ac[j], bc[j])
			ns[j] = an[j] - bn[j]
		}
	}
	return counts, ns, nil
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
	if len(st.MeanSum) != len(o.MeanSum) || len(st.JointSum) != len(o.JointSum) ||
		len(st.FreqN) != len(o.FreqN) || len(st.JointN) != len(o.JointN) ||
		!sameCols(st.FreqCounts, o.FreqCounts) || !sameCols(st.JointCounts, o.JointCounts) ||
		(st.Range == nil) != (o.Range == nil) || (o.Range != nil && !st.Range.SameShape(o.Range)) {
		return fmt.Errorf("pipeline: adding states of different shapes")
	}
	st.addScalars(o)
	st.addCounts(o)
	return nil
}

// sameCols reports whether two count-column tables have the same shape:
// both nil or neither, and column by column the same domain.
func sameCols(a, b [][]float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for j := range a {
		if (a[j] == nil) != (b[j] == nil) || len(a[j]) != len(b[j]) {
			return false
		}
	}
	return true
}

// Clone deep-copies the state.
func (st *AggState) Clone() *AggState {
	out := &AggState{
		NMean:    st.NMean,
		NFreq:    st.NFreq,
		NJoint:   st.NJoint,
		NRange:   st.NRange,
		MeanSum:  append([]float64(nil), st.MeanSum...),
		JointSum: append([]float64(nil), st.JointSum...),
	}
	out.FreqCounts, out.FreqN = cloneCols(st.FreqCounts, st.FreqN)
	out.JointCounts, out.JointN = cloneCols(st.JointCounts, st.JointN)
	if st.Range != nil {
		out.Range = st.Range.Clone()
	}
	if st.Trainer != nil {
		tr := *st.Trainer
		tr.Beta = append([]float64(nil), st.Trainer.Beta...)
		out.Trainer = &tr
	}
	return out
}

func cloneCols(c [][]float64, n []int64) ([][]float64, []int64) {
	if c == nil {
		return nil, nil
	}
	counts := make([][]float64, len(c))
	for j := range c {
		if c[j] != nil {
			counts[j] = append([]float64(nil), c[j]...)
		}
	}
	return counts, append([]int64(nil), n...)
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
