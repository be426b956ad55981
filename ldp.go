package ldp

import (
	"ldp/internal/core"
	"ldp/internal/duchi"
	"ldp/internal/erm"
	"ldp/internal/freq"
	"ldp/internal/mathx"
	"ldp/internal/mech"
	"ldp/internal/noise"
	"ldp/internal/rangequery"
	"ldp/internal/rng"
	"ldp/internal/schema"
)

// Randomness. A Rand must not be shared across goroutines.
type Rand = rng.Rand

// NewRand returns a seeded PRNG.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// NewRandStream returns an independent PRNG for stream i under a base seed
// (use one stream per user for reproducible simulations).
func NewRandStream(seed, i uint64) *Rand { return rng.NewStream(seed, i) }

// Core interfaces.
type (
	// Mechanism perturbs one numeric value in [-1, 1] under eps-LDP.
	Mechanism = mech.Mechanism
	// VectorPerturber perturbs a numeric tuple in [-1, 1]^d under
	// eps-LDP for the whole tuple.
	VectorPerturber = mech.VectorPerturber
	// MechanismFactory builds a Mechanism for a given budget.
	MechanismFactory = mech.Factory
	// FrequencyOracle perturbs one categorical value under eps-LDP.
	FrequencyOracle = freq.Oracle
	// OracleFactory builds a FrequencyOracle for a budget and domain size.
	OracleFactory = freq.Factory
)

// Schema types.
type (
	// Schema describes the attributes of a user record.
	Schema = schema.Schema
	// Attribute is one column of a record.
	Attribute = schema.Attribute
	// Tuple is one user's record under a schema.
	Tuple = schema.Tuple
)

// Attribute kinds.
const (
	// Numeric attributes take values in [-1, 1].
	Numeric = schema.Numeric
	// Categorical attributes take values in {0..Cardinality-1}.
	Categorical = schema.Categorical
)

// NewSchema validates and constructs a schema.
func NewSchema(attrs ...Attribute) (*Schema, error) { return schema.New(attrs...) }

// NewTuple allocates an all-zero tuple for a schema.
func NewTuple(s *Schema) Tuple { return schema.NewTuple(s) }

// Mechanism implementations.
type (
	// Piecewise is the paper's Piecewise Mechanism (Algorithm 2).
	Piecewise = core.Piecewise
	// Hybrid is the paper's Hybrid Mechanism (Section III-C).
	Hybrid = core.Hybrid
	// Duchi is Duchi et al.'s one-dimensional mechanism (Algorithm 1).
	Duchi = duchi.OneDim
	// DuchiMulti is Duchi et al.'s multidimensional mechanism
	// (Algorithm 3).
	DuchiMulti = duchi.Multi
	// Laplace is the classic Laplace mechanism with sensitivity 2.
	Laplace = noise.Laplace
	// SCDF is Soria-Comas and Domingo-Ferrer's piecewise-constant noise.
	SCDF = noise.SCDF
	// Staircase is Geng et al.'s staircase mechanism.
	Staircase = noise.Staircase
)

// NewPiecewise constructs the Piecewise Mechanism for budget eps.
func NewPiecewise(eps float64) (*Piecewise, error) { return core.NewPiecewise(eps) }

// NewHybrid constructs the Hybrid Mechanism with the optimal Eq. 7 alpha.
func NewHybrid(eps float64) (*Hybrid, error) { return core.NewHybrid(eps) }

// NewHybridAlpha constructs a Hybrid Mechanism with an explicit mixing
// coefficient (for ablation; NewHybrid is the paper's mechanism).
func NewHybridAlpha(eps, alpha float64) (*Hybrid, error) { return core.NewHybridAlpha(eps, alpha) }

// NewDuchi constructs Duchi et al.'s one-dimensional mechanism.
func NewDuchi(eps float64) (*Duchi, error) { return duchi.NewOneDim(eps) }

// NewDuchiMulti constructs Duchi et al.'s multidimensional mechanism for
// dimension d.
func NewDuchiMulti(eps float64, d int) (*DuchiMulti, error) { return duchi.NewMulti(eps, d) }

// NewLaplace constructs the Laplace mechanism for domain [-1, 1].
func NewLaplace(eps float64) (*Laplace, error) { return noise.NewLaplace(eps) }

// NewSCDF constructs the SCDF mechanism.
func NewSCDF(eps float64) (*SCDF, error) { return noise.NewSCDF(eps) }

// NewStaircase constructs the staircase mechanism.
func NewStaircase(eps float64) (*Staircase, error) { return noise.NewStaircase(eps) }

// Mechanism and oracle factories for use with WithMechanism, WithOracle,
// and NewNumericCollector.
var (
	// PM builds Piecewise Mechanisms.
	PM MechanismFactory = func(eps float64) (Mechanism, error) { return core.NewPiecewise(eps) }
	// HM builds Hybrid Mechanisms.
	HM MechanismFactory = func(eps float64) (Mechanism, error) { return core.NewHybrid(eps) }
	// OUE builds optimized-unary-encoding frequency oracles.
	OUE OracleFactory = func(eps float64, k int) (FrequencyOracle, error) { return freq.NewOUE(eps, k) }
	// GRR builds generalized-randomized-response oracles.
	GRR OracleFactory = func(eps float64, k int) (FrequencyOracle, error) { return freq.NewGRR(eps, k) }
	// SUE builds symmetric-unary-encoding (basic RAPPOR) oracles.
	SUE OracleFactory = func(eps float64, k int) (FrequencyOracle, error) { return freq.NewSUE(eps, k) }
)

// NumericCollector randomizes purely numeric tuples (Algorithm 4); it is
// the building block of the ERM/SGD subsystem. The mixed numeric and
// categorical collector of Section IV-C is a Pipeline's JointTask.
type NumericCollector = core.NumericCollector

// NewNumericCollector builds the numeric-only collector (Algorithm 4).
func NewNumericCollector(factory MechanismFactory, eps float64, d int) (*NumericCollector, error) {
	return core.NewNumericCollector(factory, eps, d)
}

// KFor returns the paper's Eq. 12 sampling parameter
// k = max(1, min(d, floor(eps/2.5))).
func KFor(eps float64, d int) int { return core.KFor(eps, d) }

// EpsStar returns the paper's eps* constant (~0.61, Eq. 6), below which the
// Hybrid Mechanism reduces to Duchi et al.'s method.
func EpsStar() float64 { return mathx.EpsStar() }

// EpsSharp returns the paper's eps# constant (~1.29), where the worst-case
// variances of PM and Duchi et al.'s method cross.
func EpsSharp() float64 { return mathx.EpsSharp() }

// Stochastic gradient descent under LDP (Section V).
type (
	// SGDTask selects the ERM loss.
	SGDTask = erm.Task
	// SGDConfig parameterizes training.
	SGDConfig = erm.Config
)

// ERM task constants.
const (
	// LinearRegression uses squared loss.
	LinearRegression = erm.LinearRegression
	// LogisticRegression uses logistic loss.
	LogisticRegression = erm.LogisticRegression
	// SVM uses hinge loss.
	SVM = erm.SVM
)

// RangeConfig tunes the range-query task registered with WithRange
// (bucket count, grid resolution, oracle choice, task split).
type RangeConfig = rangequery.Config

// RangeReport is one user's randomized range-query submission, carried
// by a TaskRange Report: a dyadic interval of one numeric attribute at a
// sampled tree depth, or a grid cell of one attribute pair.
type RangeReport = rangequery.Report
