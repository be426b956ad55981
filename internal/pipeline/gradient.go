package pipeline

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ldp/internal/core"
	"ldp/internal/mech"
	"ldp/internal/rng"
	"ldp/internal/schema"
)

// Federated LDP-SGD (the paper's Section V) as a pipeline task: the server
// publishes the current model, each participating user computes the
// gradient of the loss at that model on their own example, clips it
// per-coordinate to [-1, 1], randomizes it with the paper's Algorithm-4
// numeric scheme (sample k of the d coordinates, perturb each with a 1-D
// mechanism at budget eps/k, scale by d/k), and submits only the
// randomized gradient. When a round's group fills, the Trainer averages
// the unbiased noisy gradients and takes one SGD step. Each user
// participates in at most one round — the paper shows splitting a user's
// budget over m iterations is strictly worse — so a training run consumes
// GroupSize*Rounds distinct users.

// GradientConfig parameterizes the federated SGD task registered with
// WithGradient.
type GradientConfig struct {
	// Dim is the gradient dimensionality (the ERM feature dimension),
	// independent of the pipeline schema's attribute count.
	Dim int
	// Rounds is the total number of SGD rounds; after the last round the
	// published model is final and further reports are dropped.
	Rounds int
	// GroupSize is the number of gradient reports that fill one round.
	// Size it from the mechanism's per-coordinate variance (see
	// erm.GroupSizeForVariance) so the averaged noise is useful.
	GroupSize int
	// Eta scales the learning schedule gamma_t = Eta / sqrt(t).
	Eta float64
	// Lambda is the L2 regularization weight the clients train with. The
	// server only echoes it through the model endpoint so clients cannot
	// disagree; it does not enter the server-side update.
	Lambda float64
	// Mechanism is the 1-D numeric mechanism factory (default: the
	// pipeline's mechanism factory, i.e. HM unless WithMechanism says
	// otherwise), instantiated at eps/k.
	Mechanism mech.Factory
}

func (c GradientConfig) validate() error {
	if c.Dim < 1 {
		return fmt.Errorf("pipeline: gradient dimension must be >= 1, got %d", c.Dim)
	}
	if c.Rounds < 1 {
		return fmt.Errorf("pipeline: gradient rounds must be >= 1, got %d", c.Rounds)
	}
	if c.GroupSize < 1 {
		return fmt.Errorf("pipeline: gradient group size must be >= 1, got %d", c.GroupSize)
	}
	if !(c.Eta > 0) || math.IsInf(c.Eta, 0) {
		return fmt.Errorf("pipeline: gradient eta must be positive and finite, got %v", c.Eta)
	}
	if c.Lambda < 0 || math.IsNaN(c.Lambda) || math.IsInf(c.Lambda, 0) {
		return fmt.Errorf("pipeline: gradient lambda must be finite and >= 0, got %v", c.Lambda)
	}
	return nil
}

// WithGradient registers the federated SGD task: the pipeline grows a
// Trainer that accumulates gradient reports round by round and advances
// the model, and a GradientTask that randomizes client gradients. Tuples
// are never routed to the gradient task; clients call
// GradientTask.RandomizeGradient (or transport.SGDClient) instead.
func WithGradient(cfg GradientConfig) Option {
	return func(c *config) error {
		if err := cfg.validate(); err != nil {
			return err
		}
		c.gradient = &cfg
		return nil
	}
}

// GradientTask randomizes one user's clipped gradient under the full
// budget eps: sample k = max(1, min(d, floor(eps/2.5))) of the d
// coordinates, perturb each with the 1-D mechanism at eps/k, scale by
// d/k so the report is coordinate-wise unbiased over the round's group.
type GradientTask struct {
	smp    *core.Sampler
	rounds int
}

func newGradientTask(eps float64, cfg GradientConfig, fallback mech.Factory) (*GradientTask, error) {
	factory := cfg.Mechanism
	if factory == nil {
		factory = fallback
	}
	smp, err := core.NewSampler(factory, eps, cfg.Dim, core.KFor(eps, cfg.Dim))
	if err != nil {
		return nil, fmt.Errorf("pipeline: gradient task mechanism: %w", err)
	}
	return &GradientTask{smp: smp, rounds: cfg.Rounds}, nil
}

// Kind returns TaskGradient.
func (t *GradientTask) Kind() TaskKind { return TaskGradient }

// Name returns "gradient".
func (t *GradientTask) Name() string { return "gradient" }

// Dim returns the gradient dimensionality.
func (t *GradientTask) Dim() int { return t.smp.Dim() }

// K returns the number of coordinates each user reports.
func (t *GradientTask) K() int { return t.smp.K() }

// Epsilon returns the task's total budget (the pipeline budget).
func (t *GradientTask) Epsilon() float64 { return t.smp.Epsilon() }

// Mechanism returns the 1-D mechanism running at eps/k.
func (t *GradientTask) Mechanism() mech.Mechanism { return t.smp.Inner() }

// Randomize implements Task. Gradient reports are not derived from schema
// tuples, so tuple routing never selects this task; it exists to keep the
// task set uniform.
func (t *GradientTask) Randomize(schema.Tuple, *rng.Rand) (Report, error) {
	return Report{}, fmt.Errorf("pipeline: the gradient task randomizes gradients, not tuples; use RandomizeGradient")
}

// RandomizeGradient perturbs one user's local gradient for the given
// round into an eps-LDP report. The gradient must have length Dim;
// coordinates are clipped to [-1, 1] first (the paper's per-coordinate
// clipping), so callers pass the raw loss gradient. It runs entirely on
// the user's side; only the Report leaves the device.
func (t *GradientTask) RandomizeGradient(round int, grad []float64, r *rng.Rand) (Report, error) {
	if len(grad) != t.smp.Dim() {
		return Report{}, fmt.Errorf("pipeline: gradient has %d coordinates, task built for %d", len(grad), t.smp.Dim())
	}
	if round < 0 || round >= t.rounds {
		return Report{}, fmt.Errorf("pipeline: gradient round %d outside [0,%d)", round, t.rounds)
	}
	entries := make([]core.Entry, 0, t.smp.K())
	for _, j := range t.smp.Sample(r) {
		entries = append(entries, core.Entry{
			Attr:  j,
			Kind:  core.EntryNumeric,
			Value: t.smp.Perturb(mech.Clamp1(grad[j]), r),
		})
	}
	return Report{Task: TaskGradient, Round: int32(round), Entries: entries}, nil
}

// Model is an immutable published model snapshot. Round is the round the
// model collects gradients for: clients tag their reports with it. Beta
// must not be mutated by callers — the Trainer publishes each snapshot
// once and never writes to it again, which is what makes lock-free reads
// safe.
type Model struct {
	Round int       `json:"round"`
	Done  bool      `json:"done"`
	Beta  []float64 `json:"beta"`
}

// Trainer is the server-side federated SGD coordinator. Gradient reports
// fold into the current round's accumulator under one lock; when the
// group fills, the model advances by one SGD step
// (beta <- beta - gamma_t * avg, gamma_t = eta/sqrt(t)) and a fresh
// immutable Model is published through an atomic pointer, so Model()
// reads never block ingest and can never observe a torn update. Reports
// tagged with any round other than the current one are counted stale and
// dropped: each accepted report contributes to exactly one round, and
// each round advances exactly once.
type Trainer struct {
	dim       int
	groupSize int
	rounds    int
	eta       float64
	lambda    float64

	mu    sync.Mutex
	sum   []float64
	count int

	accepted atomic.Int64
	stale    atomic.Int64
	model    atomic.Pointer[Model]
}

func newTrainer(cfg GradientConfig) *Trainer {
	tr := &Trainer{
		dim:       cfg.Dim,
		groupSize: cfg.GroupSize,
		rounds:    cfg.Rounds,
		eta:       cfg.Eta,
		lambda:    cfg.Lambda,
		sum:       make([]float64, cfg.Dim),
	}
	tr.model.Store(&Model{Round: 0, Beta: make([]float64, cfg.Dim)})
	return tr
}

// Model returns the current published model. The snapshot is immutable;
// callers must not write to Beta.
func (tr *Trainer) Model() *Model { return tr.model.Load() }

// Dim returns the gradient dimensionality.
func (tr *Trainer) Dim() int { return tr.dim }

// GroupSize returns the number of reports that fill one round.
func (tr *Trainer) GroupSize() int { return tr.groupSize }

// Rounds returns the total number of SGD rounds.
func (tr *Trainer) Rounds() int { return tr.rounds }

// Eta returns the learning-rate scale.
func (tr *Trainer) Eta() float64 { return tr.eta }

// Lambda returns the L2 regularization weight clients train with.
func (tr *Trainer) Lambda() float64 { return tr.lambda }

// Accepted returns the number of gradient reports folded into a round.
func (tr *Trainer) Accepted() int64 { return tr.accepted.Load() }

// Stale returns the number of gradient reports dropped because their
// round tag did not match the collecting round (late arrivals after a
// round filled, or anything after training finished).
func (tr *Trainer) Stale() int64 { return tr.stale.Load() }

// Fill returns the number of gradient reports accumulated toward the
// current round's group so far; it resets to zero when a round advances.
// A monitoring read: it takes the trainer lock, so the fold path pays
// nothing for it.
func (tr *Trainer) Fill() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.count
}

// foldBatch folds every gradient report of a validated batch into the
// trainer under a single lock acquisition. Reports for stale rounds are
// dropped; a round that fills mid-batch advances immediately, so the
// remaining reports of that round in the same batch count as stale.
func (tr *Trainer) foldBatch(b *ReportBatch) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := range b.task {
		if b.task[i] != TaskGradient {
			continue
		}
		tr.foldLocked(b.round[i], b, int(b.entOff[i]), int(b.entOff[i+1]))
	}
}

// foldLocked folds entry span [lo, hi) of a batch's gradient report. The
// caller holds tr.mu.
func (tr *Trainer) foldLocked(round int32, b *ReportBatch, lo, hi int) {
	m := tr.model.Load()
	if m.Done || int(round) != m.Round {
		tr.stale.Add(1)
		return
	}
	for e := lo; e < hi; e++ {
		tr.sum[b.entAttr[e]] += b.entNum[e]
	}
	tr.bump(m)
}

// bump counts one accepted report and advances the round when the group
// fills. The caller holds tr.mu.
func (tr *Trainer) bump(m *Model) {
	tr.count++
	tr.accepted.Add(1)
	if tr.count < tr.groupSize {
		return
	}
	t := m.Round + 1
	gamma := tr.eta / math.Sqrt(float64(t))
	inv := 1 / float64(tr.groupSize)
	beta := make([]float64, tr.dim)
	for j := range beta {
		beta[j] = m.Beta[j] - gamma*tr.sum[j]*inv
		tr.sum[j] = 0
	}
	tr.count = 0
	tr.model.Store(&Model{Round: t, Done: t >= tr.rounds, Beta: beta})
}
