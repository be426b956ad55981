// Package pipeline is the repository's one collection stack: a task-based
// API in the architecture of the paper's system model (Section II), where
// the aggregator runs a single stream of randomized reports and answers
// mean, frequency, and range queries from it.
//
// A Pipeline is built from a schema, a total per-user privacy budget eps,
// and a set of functional options. It registers up to four tasks:
//
//   - MeanTask — Algorithm-4 attribute sampling over the numeric
//     attributes, perturbed with a 1-D mechanism (HM by default);
//   - FreqTask — attribute sampling over the categorical attributes,
//     perturbed with a frequency oracle (OUE by default);
//   - RangeTask — the rangequery subsystem's hierarchical-interval /
//     2-D-grid sub-tasks (enabled with WithRange);
//   - GradientTask — federated LDP-SGD over clipped per-example loss
//     gradients, coordinated round by round by a Trainer (enabled with
//     WithGradient; see gradient.go).
//
// A fifth task, JointTask, is the paper's Algorithm 4 over the whole
// schema: one report samples numeric and categorical attributes together.
// It is never routed; callers randomize through Pipeline.JointTask, and
// its reports fold into the same state as every other task's.
//
// The mean, freq and joint tasks are one randomizer over different
// attribute sets (numeric, categorical, all; see tasks.go), and it and the
// gradient task draw through core.Sampler: k, the d/k scale and the order
// of a user's random draws (the sample first, then each sampled attribute
// in the order drawn) are defined once.
//
// Each user is routed to exactly one task (a data-independent coin flip)
// and spends the entire budget eps on that task's randomizer, in the
// user-partition spirit of the paper's Algorithm 4 and the RS+FD /
// AHEAD lines of work: the released Report is an eps-LDP view of the
// tuple because exactly one eps-LDP randomizer output is published.
// The gradient task sits outside tuple routing — its users are training
// participants who each contribute one randomized gradient to one round —
// but its reports share the wire envelope, the columnar batch decode
// path, and AddBatch ingest with every other task.
//
// The server side is production-shaped: aggregation state is sharded
// (WithShards) and batch-first. The unit of ingest is the columnar
// ReportBatch — AddBatch validates a whole batch without locks, then
// folds one contiguous span per shard under a single lock acquisition,
// with shard accumulators kept as flat sums and raw support counts so the
// steady-state fold allocates nothing. Per-report Add is AddBatch on a
// one-report batch, so every report, however it arrives, passes the same
// validator and the same fold. Snapshot/Merge never take a global lock —
// they visit shards one at a time, so ingest on the other shards proceeds
// concurrently.
package pipeline

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ldp/internal/core"
	"ldp/internal/freq"
	"ldp/internal/mech"
	"ldp/internal/rangequery"
	"ldp/internal/rng"
	"ldp/internal/schema"
	"ldp/internal/telemetry"
)

// TaskKind identifies the sub-task a unified report answers.
type TaskKind uint8

const (
	// TaskMean is the numeric-mean task (Algorithm 4 over numeric attrs).
	TaskMean TaskKind = iota + 1
	// TaskFreq is the categorical-frequency task.
	TaskFreq
	// TaskRange is the range-query task (hierarchies + 2-D grids).
	TaskRange
	// TaskJoint is the paper's Algorithm-4 mixed report (numeric and
	// categorical entries in one report, scaled over the full schema),
	// produced by JointTask.
	TaskJoint
	// TaskGradient is the federated LDP-SGD task (registered with
	// WithGradient): each report carries one user's randomized clipped
	// gradient for a specific training round.
	TaskGradient
)

// String returns the task tag used in wire formats, logs and options.
func (k TaskKind) String() string {
	switch k {
	case TaskMean:
		return "mean"
	case TaskFreq:
		return "freq"
	case TaskRange:
		return "range"
	case TaskJoint:
		return "joint"
	case TaskGradient:
		return "gradient"
	default:
		return fmt.Sprintf("TaskKind(%d)", uint8(k))
	}
}

// Report is one user's randomized submission to the unified pipeline:
// exactly one task's payload, identified by Task. Mean, freq, and joint
// payloads are attribute-indexed entry lists; gradient payloads are
// coordinate-indexed entry lists tagged with the training round; range
// payloads are rangequery reports.
type Report struct {
	Task    TaskKind
	Round   int32             // TaskGradient: the training round
	Entries []core.Entry      // TaskMean, TaskFreq, TaskJoint, TaskGradient
	Range   rangequery.Report // TaskRange
}

// Option configures a Pipeline under construction.
type Option func(*config) error

type config struct {
	mechFactory   mech.Factory
	oracleFactory freq.Factory
	rangeCfg      *rangequery.Config
	gradient      *GradientConfig
	shards        int
	weights       map[TaskKind]float64
	staleReports  int64
	staleAge      time.Duration
	telemetry     *telemetry.Registry
}

// WithMechanism selects the 1-D numeric mechanism factory used by the mean,
// joint, and gradient tasks. The default is the paper's Hybrid Mechanism.
func WithMechanism(f mech.Factory) Option {
	return func(c *config) error {
		if f == nil {
			return fmt.Errorf("pipeline: WithMechanism(nil)")
		}
		c.mechFactory = f
		return nil
	}
}

// WithOracle selects the frequency-oracle factory used by the freq, joint,
// and range tasks. The default is OUE.
func WithOracle(f freq.Factory) Option {
	return func(c *config) error {
		if f == nil {
			return fmt.Errorf("pipeline: WithOracle(nil)")
		}
		c.oracleFactory = f
		return nil
	}
}

// WithRange registers the range-query task with the given configuration
// (the zero Config selects B=256 hierarchy buckets, 8x8 grids, and the
// pipeline's oracle).
func WithRange(cfg rangequery.Config) Option {
	return func(c *config) error {
		c.rangeCfg = &cfg
		return nil
	}
}

// WithShards sets the number of aggregation shards. More shards admit more
// concurrent ingest calls; estimates are independent of the shard count. The
// default is 1; servers should set it near GOMAXPROCS.
func WithShards(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("pipeline: shards must be >= 1, got %d", n)
		}
		c.shards = n
		return nil
	}
}

// WithTaskWeight sets the routing weight of a registered task (default 1
// for every registered task). Weights are normalized; a zero weight keeps
// the task's aggregation state but routes no users to it. Setting a weight
// for a task the pipeline does not register is an error.
func WithTaskWeight(kind TaskKind, w float64) Option {
	return func(c *config) error {
		if kind != TaskMean && kind != TaskFreq && kind != TaskRange {
			return fmt.Errorf("pipeline: cannot weight task %v", kind)
		}
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("pipeline: task weight must be finite and >= 0, got %v", w)
		}
		c.weights[kind] = w
		return nil
	}
}

// WithTelemetry registers the pipeline's metric families — ingest volume
// per task and shard, batch sizes, validation rejects, view-cache traffic
// and rebuild latency, trainer round state — on reg and keeps them live
// (see metrics.go for the family list). The instrumentation is shaped so
// the per-report fold loops gain no atomics: per-task and per-shard
// counts are read from existing fold state at scrape time, and the only
// hot-path updates are one counter add and one histogram add per batch
// (not per report) and one counter add per query. A nil registry disables
// telemetry entirely (the default).
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *config) error {
		c.telemetry = reg
		return nil
	}
}

// shard is one lock domain of the aggregation state. Its AggState is flat
// arrays — numeric sums and raw frequency-oracle support counts per
// attribute, hierarchy level and grid — so folding a report (or a whole
// batch span) is direct array arithmetic with no estimator or interface
// indirection; queries debias the summed counts on their first read.
// Everything is guarded by mu.
type shard struct {
	mu sync.Mutex

	// epoch counts the reports folded into this shard, mirrored into an
	// atomic so the pipeline's ingest watermark (the freshness signal of
	// the cached query view) is readable without taking any shard lock.
	// It is written only while mu is held, immediately after the fold, so
	// under mu it is exactly st.Total().
	epoch atomic.Int64

	st AggState

	// dirty holds one bit per count column of each family (indexed like
	// AggState.cols), written by the fold paths under mu on every event
	// that touches a column and drained (synced into the view builder's
	// running sum, then cleared) by the view builder under the same lock.
	// A clear bit is a guarantee: the builder's per-shard baseline for that
	// column equals the shard's live counts. Bits are event-driven, not
	// diff-driven — a report can change only a reporter count (an all-zero
	// OUE bitset) and the column's debiased estimate still moves, so every
	// fold marks the columns it touched regardless of what the counts did.
	dirty [numFams]bitset
}

// Pipeline is the unified collector/aggregator. The randomization side
// (Randomize and the task randomizers) is stateless and safe for
// concurrent use with per-goroutine PRNGs; the aggregation side (Add,
// Snapshot, Merge) is sharded and safe for concurrent use.
type Pipeline struct {
	sch     *schema.Schema
	eps     float64
	tasks   []Task
	routed  []Task    // tasks with positive weight, aligned with cum
	cum     []float64 // cumulative routing probabilities over routed
	mean    *MeanTask
	freq    *FreqTask
	rangeT  *RangeTask
	grad    *GradientTask
	trainer *Trainer
	joint   *JointTask
	shards  []*shard
	cursor  atomic.Uint64
	view    viewCache
	met     pipelineMetrics // nil handles (no-ops) without WithTelemetry

	// attrMeta caches per-attribute validation facts (kind, cardinality,
	// bitset width) so the report validator is a table-driven columnar
	// loop instead of per-entry schema chasing.
	attrMeta []attrMeta
}

// attrMeta is the per-attribute validation table entry.
type attrMeta struct {
	numeric bool
	card    int // categorical cardinality
	words   int // freq.BitsetWords(card)
}

// New builds a pipeline for schema s at total per-user budget eps. Tasks
// are derived from the schema: a mean task when s has numeric attributes,
// a freq task when it has categorical attributes, and a range task when
// WithRange is given. At least one task must be registrable.
func New(s *schema.Schema, eps float64, opts ...Option) (*Pipeline, error) {
	if s == nil {
		return nil, fmt.Errorf("pipeline: nil schema")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := mech.ValidateEpsilon(eps); err != nil {
		return nil, err
	}
	cfg := config{
		mechFactory:   func(e float64) (mech.Mechanism, error) { return core.NewHybrid(e) },
		oracleFactory: func(e float64, k int) (freq.Oracle, error) { return freq.NewOUE(e, k) },
		shards:        1,
		weights:       make(map[TaskKind]float64),
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}

	p := &Pipeline{sch: s, eps: eps}
	if numIdx := s.NumericIdx(); len(numIdx) > 0 {
		a, err := newSampled(TaskMean, s, numIdx, eps, cfg.mechFactory, nil)
		if err != nil {
			return nil, err
		}
		p.mean = &MeanTask{a}
		p.tasks = append(p.tasks, p.mean)
	}
	if catIdx := s.CategoricalIdx(); len(catIdx) > 0 {
		a, err := newSampled(TaskFreq, s, catIdx, eps, nil, cfg.oracleFactory)
		if err != nil {
			return nil, err
		}
		p.freq = &FreqTask{a}
		p.tasks = append(p.tasks, p.freq)
	}
	if cfg.rangeCfg != nil {
		rc := *cfg.rangeCfg
		if rc.Oracle == nil {
			rc.Oracle = cfg.oracleFactory
		}
		col, err := rangequery.NewCollector(s, eps, rc)
		if err != nil {
			return nil, err
		}
		p.rangeT = &RangeTask{col: col}
		p.tasks = append(p.tasks, p.rangeT)
	}
	if cfg.gradient != nil {
		t, err := newGradientTask(eps, *cfg.gradient, cfg.mechFactory)
		if err != nil {
			return nil, err
		}
		p.grad = t
		p.trainer = newTrainer(*cfg.gradient)
		p.tasks = append(p.tasks, t)
	}
	if len(p.tasks) == 0 {
		return nil, fmt.Errorf("pipeline: no tasks for this schema (no numeric or categorical attributes and no WithRange)")
	}
	for kind := range cfg.weights {
		if p.task(kind) == nil {
			return nil, fmt.Errorf("pipeline: weight set for task %v, which this pipeline does not register", kind)
		}
	}

	// Routing distribution over the registered tasks. The gradient task is
	// never routed: its reports are derived from the published model, not
	// from tuples (clients call RandomizeGradient directly).
	total := 0.0
	for _, t := range p.tasks {
		if t.Kind() == TaskGradient {
			continue
		}
		w, ok := cfg.weights[t.Kind()]
		if !ok {
			w = 1
		}
		if w > 0 {
			p.routed = append(p.routed, t)
			total += w
			p.cum = append(p.cum, total)
		}
	}
	if len(p.routed) == 0 && p.grad == nil {
		return nil, fmt.Errorf("pipeline: every task weight is zero")
	}
	for i := range p.cum {
		p.cum[i] /= total
	}

	all := make([]int, s.Dim())
	for i := range all {
		all[i] = i
	}
	joint, err := newSampled(TaskJoint, s, all, eps, cfg.mechFactory, cfg.oracleFactory)
	if err != nil {
		return nil, err
	}
	p.joint = &JointTask{joint}

	p.attrMeta = make([]attrMeta, s.Dim())
	for i, a := range s.Attrs {
		m := attrMeta{numeric: a.Kind == schema.Numeric}
		if !m.numeric {
			m.card = a.Cardinality
			m.words = freq.BitsetWords(a.Cardinality)
		}
		p.attrMeta[i] = m
	}

	p.shards = make([]*shard, cfg.shards)
	for i := range p.shards {
		p.shards[i] = p.newShard()
	}
	p.view.maxStale = cfg.staleReports
	p.view.maxAge = cfg.staleAge
	p.initTelemetry(cfg.telemetry)
	return p, nil
}

func (p *Pipeline) newShard() *shard {
	sh := &shard{st: *p.newAggState()}
	sh.dirty = newFamBits(&sh.st)
	return sh
}

// Schema returns the pipeline's schema.
func (p *Pipeline) Schema() *schema.Schema { return p.sch }

// Epsilon returns the total per-user budget.
func (p *Pipeline) Epsilon() float64 { return p.eps }

// Shards returns the number of aggregation shards.
func (p *Pipeline) Shards() int { return len(p.shards) }

// Tasks returns the registered tasks in routing order.
func (p *Pipeline) Tasks() []Task {
	out := make([]Task, len(p.tasks))
	copy(out, p.tasks)
	return out
}

// task returns the registered task of the given kind, or nil.
func (p *Pipeline) task(kind TaskKind) Task {
	switch kind {
	case TaskMean:
		if p.mean != nil {
			return p.mean
		}
	case TaskFreq:
		if p.freq != nil {
			return p.freq
		}
	case TaskRange:
		if p.rangeT != nil {
			return p.rangeT
		}
	case TaskGradient:
		if p.grad != nil {
			return p.grad
		}
	}
	return nil
}

// MeanTask returns the registered mean task, or nil.
func (p *Pipeline) MeanTask() *MeanTask { return p.mean }

// FreqTask returns the registered freq task, or nil.
func (p *Pipeline) FreqTask() *FreqTask { return p.freq }

// RangeTask returns the registered range task, or nil.
func (p *Pipeline) RangeTask() *RangeTask { return p.rangeT }

// JointTask returns the Algorithm-4 task over the whole schema. Every
// pipeline has one; it is never routed.
func (p *Pipeline) JointTask() *JointTask { return p.joint }

// GradientTask returns the registered federated SGD task, or nil.
func (p *Pipeline) GradientTask() *GradientTask { return p.grad }

// Trainer returns the federated SGD coordinator, or nil when the pipeline
// was built without WithGradient.
func (p *Pipeline) Trainer() *Trainer { return p.trainer }

// Randomize routes one user to a task (a data-independent draw from the
// routing distribution) and randomizes their tuple into a unified Report
// under eps-LDP. It runs entirely on the user's side; only the Report is
// meant to leave the device.
func (p *Pipeline) Randomize(t schema.Tuple, r *rng.Rand) (Report, error) {
	if err := t.Check(p.sch); err != nil {
		return Report{}, err
	}
	if len(p.routed) == 0 {
		return Report{}, fmt.Errorf("pipeline: no tuple-routed tasks (gradient-only pipeline; use GradientTask.RandomizeGradient)")
	}
	u := r.Float64()
	task := p.routed[len(p.routed)-1]
	for i, c := range p.cum {
		if u < c {
			task = p.routed[i]
			break
		}
	}
	return task.Randomize(t, r)
}

// Add folds one report into the aggregate state: it is AddBatch on a
// one-report batch. The report is copied into a pooled ReportBatch,
// checked by the one validator and folded by the same span fold, so a
// report is accepted, rejected and counted the same way however it
// arrives, and a malformed (or adversarial) report never corrupts or
// panics the aggregator. Safe for concurrent use. Ingest of many reports
// should build one batch and call AddBatch, which pays the copy, the pool
// round trip and the shard lock once per batch instead of once per report.
func (p *Pipeline) Add(rep Report) error {
	b := GetBatch()
	defer PutBatch(b)
	b.Append(rep)
	if err := p.checkReport(b, 0); err != nil {
		p.met.rejectReports.Inc()
		return err
	}
	p.foldBatch(b)
	return nil
}

// Validate checks a report against the pipeline configuration without
// touching any shard state: the check Add runs before folding, with the
// same error.
func (p *Pipeline) Validate(rep Report) error {
	b := GetBatch()
	defer PutBatch(b)
	b.Append(rep)
	return p.checkReport(b, 0)
}

// ValidateBatch checks every report of a decoded batch against the
// pipeline configuration without folding anything — exactly the
// validation AddBatch runs first. A server persisting accepted frames
// before folding them (write-ahead order) uses it to reject a bad batch
// before the log grows. The error names the first bad report.
func (p *Pipeline) ValidateBatch(b *ReportBatch) error {
	for i := range b.task {
		if err := p.checkReport(b, i); err != nil {
			return fmt.Errorf("pipeline: report %d: %w", i, err)
		}
	}
	return nil
}

// checkReport is the pipeline's one report validator. It checks report i
// of a batch against the configuration: a registered task, the entry
// count, schema bounds, each entry's kind against both the task and the
// attribute, finite values, and the oracle's response shape (an all-ones
// bitset folded into a value-type estimator would poison every domain
// value). It reads only configuration that is immutable after New, so it
// needs no lock; the per-attribute facts come from the attrMeta table, the
// accept path allocates nothing, and the first check that fails returns
// its error.
func (p *Pipeline) checkReport(b *ReportBatch, i int) error {
	task := b.task[i]
	lo, hi := int(b.entOff[i]), int(b.entOff[i+1])
	n, d := hi-lo, len(p.attrMeta)
	var wantBits bool
	switch task {
	case TaskMean:
		if p.mean == nil {
			return fmt.Errorf("pipeline: mean report but no mean task is registered")
		}
	case TaskFreq:
		if p.freq == nil {
			return fmt.Errorf("pipeline: freq report but no freq task is registered")
		}
		wantBits = p.freq.bits
	case TaskJoint:
		wantBits = p.joint.bits
	case TaskRange:
		if p.rangeT == nil {
			return fmt.Errorf("pipeline: range report but no range task is registered")
		}
		return p.rangeT.col.Validate(b.rangeAlias(i))
	case TaskGradient:
		// The round check is configuration-only: whether the round is the
		// one collecting is decided at fold time under the trainer lock (a
		// stale round is dropped, not an error).
		g := p.grad
		if g == nil {
			return fmt.Errorf("pipeline: gradient report but no gradient task is registered")
		}
		if r := b.round[i]; r < 0 || int(r) >= g.rounds {
			return fmt.Errorf("pipeline: gradient round %d outside [0,%d)", r, g.rounds)
		}
		dim := g.Dim()
		if n == 0 || n > dim {
			return fmt.Errorf("pipeline: gradient report with %d entries for dimension %d", n, dim)
		}
		for e := lo; e < hi; e++ {
			switch a, v := b.entAttr[e], b.entNum[e]; {
			case core.EntryKind(b.entKind[e]) != core.EntryNumeric:
				return fmt.Errorf("pipeline: gradient report with non-numeric entry")
			case a < 0 || a >= dim:
				return fmt.Errorf("pipeline: gradient coordinate %d outside [0,%d)", a, dim)
			case math.IsNaN(v) || math.IsInf(v, 0):
				return fmt.Errorf("pipeline: non-finite gradient coordinate value")
			}
		}
		return nil
	default:
		return fmt.Errorf("pipeline: unknown task %v", task)
	}
	if n == 0 || n > d {
		return fmt.Errorf("pipeline: %v report with %d entries", task, n)
	}
	for e := lo; e < hi; e++ {
		kind := core.EntryKind(b.entKind[e])
		switch {
		case task == TaskMean && kind != core.EntryNumeric:
			return fmt.Errorf("pipeline: mean report with non-numeric entry")
		case task == TaskFreq && kind == core.EntryNumeric:
			return fmt.Errorf("pipeline: freq report with numeric entry")
		case task == TaskJoint && kind != core.EntryNumeric && p.joint.oracles == nil:
			return fmt.Errorf("pipeline: joint categorical entry but schema has no categorical attributes")
		}
		a := b.entAttr[e]
		if a < 0 || a >= d {
			return fmt.Errorf("pipeline: entry attribute %d out of range [0,%d)", a, d)
		}
		m := &p.attrMeta[a]
		switch kind {
		case core.EntryNumeric:
			if !m.numeric {
				return fmt.Errorf("pipeline: numeric entry for categorical attribute %q", p.sch.Attrs[a].Name)
			}
			if v := b.entNum[e]; math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("pipeline: non-finite value for attribute %q", p.sch.Attrs[a].Name)
			}
		case core.EntryCategoricalBits:
			if m.numeric {
				return fmt.Errorf("pipeline: categorical entry for numeric attribute %q", p.sch.Attrs[a].Name)
			}
			if !wantBits {
				return fmt.Errorf("pipeline: bitset entry for attribute %q, but the oracle reports single values", p.sch.Attrs[a].Name)
			}
			if w := int(b.entBitLen[e]); w != m.words {
				return fmt.Errorf("pipeline: attribute %q bitset has %d words, want %d", p.sch.Attrs[a].Name, w, m.words)
			}
		case core.EntryCategoricalValue:
			if m.numeric {
				return fmt.Errorf("pipeline: categorical entry for numeric attribute %q", p.sch.Attrs[a].Name)
			}
			if wantBits {
				return fmt.Errorf("pipeline: value entry for attribute %q, but the oracle reports bitsets", p.sch.Attrs[a].Name)
			}
			if v := b.entCat[e]; v < 0 || v >= m.card {
				return fmt.Errorf("pipeline: attribute %q value %d outside [0,%d)", p.sch.Attrs[a].Name, v, m.card)
			}
		default:
			return fmt.Errorf("pipeline: unknown entry kind %d", kind)
		}
	}
	return nil
}

// AddBatch folds a whole batch of reports into the aggregate state. The
// batch is validated up front without any locks (a malformed report
// rejects the batch before any state changes); the reports are then
// partitioned into one contiguous span per shard and each span folds under
// a single lock acquisition, so the per-report cost in the steady state is
// pure array arithmetic: no allocation, no per-report locking, no
// estimator indirection. The span-to-shard assignment rotates with every
// batch, so concurrent AddBatch callers start on different shards and
// small batches still spread across the shard set over time.
//
// The batch is only read; it can be reused (Reset) or returned to the pool
// (PutBatch) as soon as AddBatch returns. Safe for concurrent use.
func (p *Pipeline) AddBatch(b *ReportBatch) error {
	if b.Len() == 0 {
		return nil
	}
	if err := p.ValidateBatch(b); err != nil {
		p.met.rejectBatches.Inc()
		return err
	}
	p.AddBatchValidated(b)
	return nil
}

// AddBatchValidated folds a batch the caller has already checked with
// ValidateBatch, skipping revalidation. It exists for callers that must
// sequence validation before a side effect and the fold after it — the
// WAL-first serve path validates, persists the raw frames, then folds —
// without paying for two validation passes. Folding an unvalidated batch
// corrupts aggregate state; there is no safety net here.
func (p *Pipeline) AddBatchValidated(b *ReportBatch) {
	if b.Len() == 0 {
		return
	}
	p.foldBatch(b)
	// Telemetry is per batch, not per report: two atomic adds amortized
	// over the whole batch keep the fold loops uninstrumented. Add's
	// one-report batches are not batch calls and are not counted here.
	p.met.batches.Inc()
	p.met.batchSize.Observe(int64(b.Len()))
}

// minBatchSpan is the smallest per-shard chunk foldBatch will split a
// batch into (see the splitting comment there).
const minBatchSpan = 64

// foldBatch folds a validated, non-empty batch: gradient reports into the
// trainer, everything else in per-shard spans.
func (p *Pipeline) foldBatch(b *ReportBatch) {
	n := b.Len()
	// Gradient reports bypass the shards: round accumulation and the
	// exactly-once round advance live on the Trainer, which folds every
	// gradient report of the batch under a single lock acquisition.
	// Gradient-free batches never touch the trainer lock, so analytics
	// ingest stays fully sharded on mixed pipelines, and gradient-only
	// batches never touch a shard lock or the rotating cursor.
	if p.trainer != nil && b.nGrad > 0 {
		p.trainer.foldBatch(b)
		if b.nGrad == n {
			return
		}
	}
	// Split the batch across at most enough shards to keep every chunk at
	// least minBatchSpan reports: below that, a chunk costs more in lock
	// and cache-line traffic (and in dirty shards for the incremental view
	// builder) than its parallelism buys, so a small batch folds whole
	// into one shard. The rotating start keeps concurrent small batches —
	// and successive ones — landing on different shards.
	total := len(p.shards)
	s := total
	if maxChunks := (n + minBatchSpan - 1) / minBatchSpan; maxChunks < s {
		s = maxChunks
	}
	start := int(p.cursor.Add(1) % uint64(total))
	for k := 0; k < s; k++ {
		lo, hi := k*n/s, (k+1)*n/s
		if lo == hi {
			continue
		}
		sh := p.shards[(start+k)%total]
		sh.mu.Lock()
		if folded := p.foldSpan(sh, b, lo, hi); folded > 0 {
			sh.epoch.Add(int64(folded))
		}
		sh.mu.Unlock()
	}
}

// foldSpan folds the validated reports [lo, hi) of a batch into a shard:
// pure array arithmetic, no validation, no allocation. It returns the
// number of reports folded into the shard (gradient reports ride the
// trainer, not the shards, so they do not advance the shard epoch). The
// caller holds the shard lock.
func (p *Pipeline) foldSpan(sh *shard, b *ReportBatch, lo, hi int) int {
	folded := 0
	for i := lo; i < hi; i++ {
		switch b.task[i] {
		case TaskMean:
			for e := b.entOff[i]; e < b.entOff[i+1]; e++ {
				sh.st.MeanSum[b.entAttr[e]] += b.entNum[e]
			}
			sh.st.NMean++
			folded++
		case TaskFreq:
			for e := b.entOff[i]; e < b.entOff[i+1]; e++ {
				attr := b.entAttr[e]
				c := &sh.st.Freq[attr]
				if core.EntryKind(b.entKind[e]) == core.EntryCategoricalBits {
					off := b.entBitOff[e]
					freq.FoldBits(c.Counts, b.bits[off:off+b.entBitLen[e]])
				} else {
					c.Counts[b.entCat[e]]++
				}
				c.N++
				sh.dirty[famFreq].set(attr)
			}
			sh.st.NFreq++
			folded++
		case TaskJoint:
			for e := b.entOff[i]; e < b.entOff[i+1]; e++ {
				attr := b.entAttr[e]
				kind := core.EntryKind(b.entKind[e])
				if kind == core.EntryNumeric {
					sh.st.JointSum[attr] += b.entNum[e]
					continue
				}
				c := &sh.st.Joint[attr]
				if kind == core.EntryCategoricalBits {
					off := b.entBitOff[e]
					freq.FoldBits(c.Counts, b.bits[off:off+b.entBitLen[e]])
				} else {
					c.Counts[b.entCat[e]]++
				}
				c.N++
				sh.dirty[famJoint].set(attr)
			}
			sh.st.NJoint++
			folded++
		case TaskRange:
			rr := b.rangeAlias(i)
			f := famGrid
			if rr.Kind == rangequery.KindHier {
				f = famLevel
			}
			sh.dirty[f].set(p.rangeT.col.Fold(sh.st.Range, rr))
			sh.st.NRange++
			folded++
		}
	}
	return folded
}

// N returns the total number of reports aggregated so far: the shard
// epochs, as Watermark reads them, plus the reports the gradient task
// accepted into a round (stale drops are not counted).
func (p *Pipeline) N() int64 {
	n := p.Watermark()
	if p.trainer != nil {
		n += p.trainer.Accepted()
	}
	return n
}

// TaskCounts returns the number of aggregated reports per task kind.
// Unlike Snapshot it only sums counters, so it is cheap enough for
// monitoring loops.
func (p *Pipeline) TaskCounts() map[TaskKind]int64 {
	out := make(map[TaskKind]int64, 4)
	for _, sh := range p.shards {
		sh.mu.Lock()
		out[TaskMean] += sh.st.NMean
		out[TaskFreq] += sh.st.NFreq
		out[TaskJoint] += sh.st.NJoint
		out[TaskRange] += sh.st.NRange
		sh.mu.Unlock()
	}
	if p.trainer != nil {
		out[TaskGradient] += p.trainer.Accepted()
	}
	for k, n := range out {
		if n == 0 {
			delete(out, k)
		}
	}
	return out
}

// Watermark returns the total number of reports folded into the shard
// state so far (gradient reports ride the Trainer and are not counted).
// It reads one atomic per shard — no locks — so freshness checks on the
// cached query view are free even under full-rate ingest.
func (p *Pipeline) Watermark() int64 {
	var n int64
	for _, sh := range p.shards {
		n += sh.epoch.Load()
	}
	return n
}

// Snapshot wraps sumShards' in-order sum in an immutable, queryable
// Result. It locks shards one at a time, so concurrent Adds on other
// shards are not blocked. Reports added while the snapshot is in progress
// may or may not be included.
//
// The result holds raw pooled support counts, not estimators: debiasing
// happens lazily per queried attribute (freq.DebiasView with the schema's
// precomputed support probabilities), and the summed range columns are
// copied into a rangequery.View whose hierarchy levels and grids each
// derive on their first read, so the first Range call over a slot
// allocates and later ones are lookups. Most callers should prefer View,
// which memoizes one Result behind an atomic pointer and rebuilds only
// when the ingest watermark moves past the configured staleness bound.
func (p *Pipeline) Snapshot() *Result {
	st := p.sumShards()
	res := &Result{st: *st}
	p.fillResult(res, make([]atomic.Pointer[[]float64], p.sch.Dim()))
	if st.Range != nil {
		res.rangeView = p.rangeT.col.View(st.Range)
		res.st.Range = nil
	}
	return res
}

// fillResult wires a Result around its state: the schema, the debias
// oracles, and an empty per-attribute debias cache.
func (p *Pipeline) fillResult(res *Result, cache []atomic.Pointer[[]float64]) {
	res.sch = p.sch
	if p.freq != nil {
		res.freqOracles = p.freq.oracles
	}
	res.jointOracles = p.joint.oracles
	res.freqCache = cache
}

// Merge folds another pipeline's aggregate state into this one: it
// exports o's state with StateSnapshot and folds it in with MergeState,
// so the two pipelines must have the same Fingerprint (budget, schema,
// and task set). Shard counts may differ. The source's shards are locked
// one at a time before this pipeline locks, so concurrent cross-merges
// (and self-merges) cannot deadlock.
func (p *Pipeline) Merge(o *Pipeline) error {
	if o == nil {
		return fmt.Errorf("pipeline: merge with nil pipeline")
	}
	if p.trainer != nil || o.trainer != nil {
		// Round-based training state (current round, partially filled
		// group) has no meaningful union across trainers.
		return fmt.Errorf("pipeline: merging federated training state is not supported")
	}
	if p.Fingerprint() != o.Fingerprint() {
		return fmt.Errorf("pipeline: merge across budgets, schemas, or task sets")
	}
	return p.MergeState(o.StateSnapshot())
}
