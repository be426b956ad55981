// Package erm implements the paper's Section V case study: training
// empirical-risk-minimization models (linear regression, logistic
// regression, SVM with hinge loss, all L2-regularized) by stochastic
// gradient descent where each iteration's gradient is the average of
// eps-LDP randomized, per-coordinate-clipped user gradients.
//
// Each user participates in at most one iteration (the paper shows that
// splitting a user's budget over m iterations is strictly worse), so the
// number of iterations is n / |G| for group size |G|.
package erm

import (
	"errors"
	"fmt"
	"math"

	"ldp/internal/core"
	"ldp/internal/dataset"
	"ldp/internal/mech"
	"ldp/internal/rng"
)

// Task selects the loss function.
type Task int

const (
	// LinearRegression uses squared loss (x'b - y)^2 with y in [-1, 1].
	LinearRegression Task = iota
	// LogisticRegression uses log(1 + exp(-y x'b)) with y in {-1, +1}.
	LogisticRegression
	// SVM uses the hinge loss max(0, 1 - y x'b) with y in {-1, +1}.
	SVM
)

// String returns the task name.
func (t Task) String() string {
	switch t {
	case LinearRegression:
		return "linreg"
	case LogisticRegression:
		return "logreg"
	case SVM:
		return "svm"
	default:
		return fmt.Sprintf("Task(%d)", int(t))
	}
}

// IsClassification reports whether the task predicts a binary label.
func (t Task) IsClassification() bool { return t != LinearRegression }

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Loss returns l'(beta; x, y) = l(beta; x, y) + (lambda/2) ||beta||^2 for
// the given task.
func Loss(task Task, beta, x []float64, y, lambda float64) float64 {
	margin := Dot(x, beta)
	var l float64
	switch task {
	case LinearRegression:
		d := margin - y
		l = d * d
	case LogisticRegression:
		// log(1+e^{-z}) computed stably for large |z|.
		z := y * margin
		if z > 0 {
			l = math.Log1p(math.Exp(-z))
		} else {
			l = -z + math.Log1p(math.Exp(z))
		}
	case SVM:
		l = math.Max(0, 1-y*margin)
	}
	return l + lambda/2*Dot(beta, beta)
}

// Gradient writes the gradient of l'(beta; x, y) into dst (length matching
// beta) and returns dst.
func Gradient(task Task, beta, x []float64, y, lambda float64, dst []float64) []float64 {
	margin := Dot(x, beta)
	var scale float64
	switch task {
	case LinearRegression:
		scale = 2 * (margin - y)
	case LogisticRegression:
		// d/dz log(1+e^{-z}) = -1/(1+e^z); chain rule over z = y x'b.
		scale = -y / (1 + math.Exp(y*margin))
	case SVM:
		if 1-y*margin > 0 {
			scale = -y
		}
	}
	for i := range dst {
		dst[i] = scale*x[i] + lambda*beta[i]
	}
	return dst
}

// Predict returns the raw score x'b; classification tasks threshold it at
// zero.
func Predict(beta, x []float64) float64 { return Dot(x, beta) }

// Config parameterizes training.
type Config struct {
	// Task selects the loss.
	Task Task
	// Lambda is the L2 regularization weight (the paper uses 1e-4).
	Lambda float64
	// Eta scales the learning schedule gamma_t = Eta / sqrt(t).
	Eta float64
	// GroupSize is the number of users contributing to each iteration's
	// averaged gradient.
	GroupSize int
	// NoClip disables the per-coordinate gradient clipping to [-1, 1].
	// The paper always clips; this exists for the clipping ablation.
	NoClip bool
}

func (c Config) validate(n int) error {
	if c.Lambda < 0 {
		return fmt.Errorf("erm: negative lambda %v", c.Lambda)
	}
	if c.Eta <= 0 {
		return fmt.Errorf("erm: learning rate eta must be positive, got %v", c.Eta)
	}
	if c.GroupSize < 1 {
		return fmt.Errorf("erm: group size must be >= 1, got %d", c.GroupSize)
	}
	if n < c.GroupSize {
		return fmt.Errorf("erm: %d examples is fewer than one group of %d", n, c.GroupSize)
	}
	return nil
}

// ErrNoExamples is returned by Train when the training set is empty.
var ErrNoExamples = errors.New("erm: no training examples")

// DefaultGroupSize returns a group size large enough that the averaged
// noisy gradient is useful: it targets a per-coordinate noise standard
// deviation of 0.25, sizing the group from the worst-case per-coordinate
// variance of the PM-based collector (~ d * 4e^{eps/2}/(3(e^{eps/2}-1)^2)
// for eps <= 2.5). This realizes the paper's requirement
// |G| = Omega(d log d / eps^2) with an explicit constant. The result is
// clamped to [64, n/8] so small simulations still get several iterations.
//
// When the gradient perturber is not PM-based, size the group from that
// mechanism's own variance with GroupSizeForVariance instead.
func DefaultGroupSize(n, d int, eps float64) int {
	k := float64(core.KFor(eps, d))
	e := math.Exp(eps / (2 * k))
	perCoordVar := float64(d) / k * 4 * e / (3 * (e - 1) * (e - 1))
	return GroupSizeForVariance(n, perCoordVar)
}

// GroupSizeForVariance sizes an SGD group so that averaging perCoordVar
// per-coordinate gradient noise over the group leaves a standard deviation
// of ~0.25, clamped to [64, n/8].
func GroupSizeForVariance(n int, perCoordVar float64) int {
	const targetStd = 0.25
	g := int(math.Ceil(perCoordVar / (targetStd * targetStd)))
	if g < 64 {
		g = 64
	}
	if max := n / 8; g > max && max >= 1 {
		g = max
	}
	return g
}

// Train runs group-based SGD. Each user's gradient is clipped
// per-coordinate to [-1, 1] and randomized by pert; pert == nil trains
// non-privately on exact averaged gradients. Examples are consumed in a
// seed-determined shuffled order, each at most once. It returns the final
// parameter vector.
func Train(cfg Config, examples []dataset.ERMExample, pert mech.VectorPerturber, seed uint64) ([]float64, error) {
	if len(examples) == 0 {
		return nil, ErrNoExamples
	}
	if err := cfg.validate(len(examples)); err != nil {
		return nil, err
	}
	d := len(examples[0].X)
	if pert != nil && pert.Dim() != d {
		return nil, fmt.Errorf("erm: perturber dimension %d != feature dimension %d", pert.Dim(), d)
	}

	order := rng.SampleWithoutReplacement(rng.New(seed), len(examples), len(examples))
	beta := make([]float64, d)
	grad := make([]float64, d)
	avg := make([]float64, d)
	iterations := len(examples) / cfg.GroupSize
	pos := 0
	for t := 1; t <= iterations; t++ {
		for i := range avg {
			avg[i] = 0
		}
		for g := 0; g < cfg.GroupSize; g++ {
			ex := examples[order[pos]]
			// One independent randomness stream per user keeps the
			// result invariant to any future parallelization.
			r := rng.NewStream(seed^0x5bd1e995, uint64(order[pos]))
			pos++
			y := ex.YCls
			if cfg.Task == LinearRegression {
				y = ex.YReg
			}
			Gradient(cfg.Task, beta, ex.X, y, cfg.Lambda, grad)
			if !cfg.NoClip {
				for i, v := range grad {
					grad[i] = mech.Clamp1(v)
				}
			}
			if pert != nil {
				noisy := pert.PerturbVector(grad, r)
				for i, v := range noisy {
					avg[i] += v
				}
			} else {
				for i, v := range grad {
					avg[i] += v
				}
			}
		}
		gamma := cfg.Eta / math.Sqrt(float64(t))
		inv := 1 / float64(cfg.GroupSize)
		for i := range beta {
			beta[i] -= gamma * avg[i] * inv
		}
	}
	return beta, nil
}

// MisclassificationRate returns the fraction of examples whose label
// sign(x'b) disagrees with YCls.
func MisclassificationRate(beta []float64, examples []dataset.ERMExample) float64 {
	if len(examples) == 0 {
		return 0
	}
	wrong := 0
	for _, ex := range examples {
		pred := 1.0
		if Predict(beta, ex.X) < 0 {
			pred = -1
		}
		if pred != ex.YCls {
			wrong++
		}
	}
	return float64(wrong) / float64(len(examples))
}

// RegressionMSE returns the mean squared residual (x'b - YReg)^2.
func RegressionMSE(beta []float64, examples []dataset.ERMExample) float64 {
	if len(examples) == 0 {
		return 0
	}
	sum := 0.0
	for _, ex := range examples {
		d := Predict(beta, ex.X) - ex.YReg
		sum += d * d
	}
	return sum / float64(len(examples))
}

// SplitEval holds the outcome of one train/test split.
type SplitEval struct {
	Misclassification float64
	MSE               float64
}

// EvaluateSplits runs `splits` random 90/10 train/test evaluations (a
// cheaper stand-in for the paper's 5x 10-fold cross validation, with the
// same 90/10 proportions) and returns the per-split metrics. buildPert
// constructs a fresh perturber per split (nil trains non-privately).
func EvaluateSplits(cfg Config, examples []dataset.ERMExample, buildPert func() (mech.VectorPerturber, error), splits int, seed uint64) ([]SplitEval, error) {
	if len(examples) < 10 {
		return nil, fmt.Errorf("erm: need at least 10 examples, got %d", len(examples))
	}
	out := make([]SplitEval, 0, splits)
	for s := 0; s < splits; s++ {
		r := rng.NewStream(seed, uint64(s))
		order := rng.SampleWithoutReplacement(r, len(examples), len(examples))
		cut := len(examples) / 10
		test := make([]dataset.ERMExample, 0, cut)
		train := make([]dataset.ERMExample, 0, len(examples)-cut)
		for i, idx := range order {
			if i < cut {
				test = append(test, examples[idx])
			} else {
				train = append(train, examples[idx])
			}
		}
		var pert mech.VectorPerturber
		if buildPert != nil {
			p, err := buildPert()
			if err != nil {
				return nil, err
			}
			pert = p
		}
		beta, err := Train(cfg, train, pert, seed+uint64(s)*7919)
		if err != nil {
			return nil, err
		}
		out = append(out, SplitEval{
			Misclassification: MisclassificationRate(beta, test),
			MSE:               RegressionMSE(beta, test),
		})
	}
	return out, nil
}
