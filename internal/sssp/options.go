// Package sssp implements the paper's single-source shortest path
// algorithms: sequential references (Dijkstra, Bellman-Ford, Δ-stepping)
// and the distributed bulk-synchronous engine with the paper's three
// optimization classes — pruning (edge classification, IOS, push/pull
// direction optimization), hybridization (Δ-stepping → Bellman-Ford
// switch), and two-tier load balancing.
//
// The distributed engine runs P logical ranks over a comm.Transport; each
// rank owns a partition of the vertices and relaxes edges in
// bulk-synchronous supersteps, exactly mirroring the paper's distributed
// implementation (Section II) at the level of messages exchanged.
package sssp

import (
	"fmt"
	"io"
	"math"

	"parsssp/internal/graph"
)

// infBucket is the bucket index of unreached vertices.
const infBucket = math.MaxInt32

// BellmanFordDelta is the Δ value representing Δ=∞: every finite distance
// falls in bucket 0, so Δ-stepping degenerates to Bellman-Ford.
const BellmanFordDelta graph.Weight = math.MaxUint32

// PullEstimator selects the request-count procedure used by the
// push/pull decision heuristic. The paper discusses all three: exact
// counting via binary search over weight-sorted adjacency, histograms,
// and (what their implementation used) the expectation under uniform
// weights.
type PullEstimator int

const (
	// EstimatorExact counts requests exactly with a binary search per
	// unsettled vertex.
	EstimatorExact PullEstimator = iota
	// EstimatorExpectation uses the paper's closed form
	// deg_long(v)·(d(v)−(k+1)Δ)/d(v), exact in expectation for uniform
	// weights.
	EstimatorExpectation
	// EstimatorHistogram interpolates a per-vertex cumulative weight
	// histogram built once at startup.
	EstimatorHistogram
)

// String returns the estimator name.
func (e PullEstimator) String() string {
	switch e {
	case EstimatorExact:
		return "exact"
	case EstimatorExpectation:
		return "expectation"
	case EstimatorHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("PullEstimator(%d)", int(e))
	}
}

// ExecMode selects the engine's execution discipline.
type ExecMode int

const (
	// ExecBSP is the bulk-synchronous reference: relaxations travel in
	// per-phase collective exchanges, progress is settled at phase
	// barriers. Deterministic, and the paper's execution model.
	ExecBSP ExecMode = iota
	// ExecAsync is the barrier-free mode: each rank drains incoming relax
	// batches as they arrive, applies them through the lazy-deletion
	// buckets, and forwards each relax round's records as soon as the
	// round ends — with counting-based distributed termination detection
	// over the collective Allreduce replacing per-phase barriers.
	// Produces the same distance and parent trees as ExecBSP (see
	// DESIGN.md "Asynchronous execution & termination detection").
	ExecAsync
)

// String returns "bsp" or "async".
func (m ExecMode) String() string {
	if m == ExecAsync {
		return "async"
	}
	return "bsp"
}

// ParseExecMode parses the -exec-mode flag values "bsp" and "async".
func ParseExecMode(s string) (ExecMode, error) {
	switch s {
	case "bsp":
		return ExecBSP, nil
	case "async":
		return ExecAsync, nil
	}
	return ExecBSP, fmt.Errorf("sssp: unknown exec mode %q (want bsp or async)", s)
}

// Mode selects the relaxation mechanism of a long-edge phase.
type Mode int

const (
	// ModePush relaxes long edges from the current bucket outwards.
	ModePush Mode = iota
	// ModePull has later-bucket vertices request distances from the
	// current bucket.
	ModePull
)

// String returns "push" or "pull".
func (m Mode) String() string {
	if m == ModePull {
		return "pull"
	}
	return "push"
}

// Options configures a distributed SSSP run. The zero value is not
// runnable; start from a preset (Del, Prune, Opt, ...) or fill in at
// least Delta and Threads.
type Options struct {
	// Policy selects the stepping discipline: Δ-stepping (the zero value
	// and the paper's algorithm), Radius Stepping or ρ-stepping. All
	// policies produce identical distances and canonical parent trees;
	// the paper's Δ-specific heuristics (Prune, IOS, Hybrid, Census,
	// ForceMode, DecisionSequence) are only valid under PolicyDelta.
	Policy SteppingPolicy

	// Delta is the bucket width (Δ) of PolicyDelta. 1 yields Dial's
	// variant of Dijkstra's algorithm; BellmanFordDelta yields
	// Bellman-Ford. Other policies ignore it (but it must still
	// validate, so presets leave it at a sane value).
	Delta graph.Weight

	// RadiusK is Radius Stepping's k: the per-vertex radius r(v) is the
	// k-th smallest incident edge weight. Zero means 32.
	RadiusK int

	// Rho is ρ-stepping's global batch size: each epoch extracts up to
	// ⌈ρ/P⌉ frontier vertices per rank. Zero means 4096.
	Rho int

	// Threads is the number of worker goroutines per rank (the paper's 64
	// SMT threads per node). Zero means 1.
	Threads int

	// EdgeClassification enables Meyer-Sanders short/long classification:
	// short phases relax only short edges, long edges are relaxed once
	// per bucket. Disabling it makes every phase relax all edges of
	// active vertices (text-book Δ-stepping).
	EdgeClassification bool

	// IOS enables the paper's inner-outer-short heuristic: short phases
	// relax a short edge only if the proposed distance lands in the
	// current bucket; outer short edges are relaxed once in the
	// long-edge phase.
	IOS bool

	// Prune enables the push/pull direction-optimized long-edge phase
	// with the per-bucket decision heuristic.
	Prune bool

	// ForceMode overrides the push/pull decision for every bucket (used
	// by the exhaustive §IV.G evaluation); nil means use the heuristic.
	ForceMode *Mode

	// DecisionSequence, when non-nil, supplies the push/pull decision for
	// bucket epoch i in element i (later epochs fall back to the
	// heuristic). Used by the exhaustive decision-sequence evaluator.
	DecisionSequence []Mode

	// Estimator selects how the decision heuristic counts would-be pull
	// requests; see PullEstimator.
	Estimator PullEstimator

	// ImbalanceWeight λ blends total communication volume with the
	// worst-rank load (×P) in the push/pull cost model:
	// cost = (1-λ)·volume + λ·P·maxPerRank. Zero means volume only.
	ImbalanceWeight float64

	// Hybrid enables switching to Bellman-Ford once the settled fraction
	// exceeds Tau.
	Hybrid bool

	// Tau is the settled-fraction switch threshold; zero means 0.4 (the
	// paper's value).
	Tau float64

	// LoadBalance enables intra-rank heavy-vertex edge chunking across
	// threads (the paper's thread-level load balancing). Without it, each
	// active vertex is processed entirely by one thread.
	LoadBalance bool

	// HeavyThreshold is the paper's π: vertices with more incident edges
	// than this are chunked when LoadBalance is on. Zero means 64.
	HeavyThreshold int

	// Census enables the per-bucket edge-category census (self, backward,
	// forward long edges and pull-request counts) used by the Figure 7
	// experiment. It forces push mode so categories can be observed at
	// the destination.
	Census bool

	// MaxEpochs aborts runs that exceed this many epochs; zero means no
	// limit. A safety valve for misconfigured tests.
	MaxEpochs int

	// Trace, when non-nil, receives a line-oriented execution trace from
	// rank 0: epoch boundaries, phase activity, push/pull decisions and
	// the hybrid switch. For debugging and the cmd tools' -trace flag.
	Trace io.Writer

	// RecordPhases enables the per-phase execution timeline
	// (Stats.PhaseLog): one record per bulk-synchronous phase with its
	// kind, active count, relaxations and duration.
	RecordPhases bool

	// ParallelApply applies received relaxations on the rank's thread
	// pool with per-thread vertex ownership (the paper's intra-node
	// model), instead of the default serial pass. Census mode overrides
	// it (exact category counting is serial).
	ParallelApply bool

	// ExecMode selects bulk-synchronous (the default) or asynchronous
	// barrier-free execution; see ExecMode. Async ignores the per-bucket
	// phase machinery (Prune, IOS, Hybrid, Census): without phase
	// boundaries there is no bucket-wide member set to decide push/pull
	// over, so every relaxation is a push — eager for short edges,
	// deferred per bucket for long ones (see async.go).
	ExecMode ExecMode
}

// Validate reports configuration errors.
func (o *Options) Validate() error {
	if o.Delta < 1 {
		return fmt.Errorf("sssp: Delta must be >= 1, got %d", o.Delta)
	}
	if o.Threads < 0 {
		return fmt.Errorf("sssp: negative Threads %d", o.Threads)
	}
	if o.Tau < 0 || o.Tau > 1 {
		return fmt.Errorf("sssp: Tau %v outside [0,1]", o.Tau)
	}
	if o.ImbalanceWeight < 0 || o.ImbalanceWeight > 1 {
		return fmt.Errorf("sssp: ImbalanceWeight %v outside [0,1]", o.ImbalanceWeight)
	}
	if o.IOS && !o.EdgeClassification {
		return fmt.Errorf("sssp: IOS requires EdgeClassification")
	}
	if o.Census && !o.Prune {
		return fmt.Errorf("sssp: Census requires Prune")
	}
	switch o.Policy {
	case PolicyDelta:
	case PolicyRadius, PolicyRho:
		// The paper's per-bucket heuristics assume Δ-stepping's
		// settle-one-bucket epochs; under the other policies they would
		// silently misfire, so they are rejected outright.
		switch {
		case o.Prune:
			return fmt.Errorf("sssp: Prune requires PolicyDelta, not %v", o.Policy)
		case o.IOS:
			return fmt.Errorf("sssp: IOS requires PolicyDelta, not %v", o.Policy)
		case o.Hybrid:
			return fmt.Errorf("sssp: Hybrid requires PolicyDelta, not %v", o.Policy)
		case o.Census:
			return fmt.Errorf("sssp: Census requires PolicyDelta, not %v", o.Policy)
		case o.ForceMode != nil || o.DecisionSequence != nil:
			return fmt.Errorf("sssp: push/pull overrides require PolicyDelta, not %v", o.Policy)
		}
		if o.RadiusK < 0 {
			return fmt.Errorf("sssp: negative RadiusK %d", o.RadiusK)
		}
		if o.Rho < 0 {
			return fmt.Errorf("sssp: negative Rho %d", o.Rho)
		}
	default:
		return fmt.Errorf("sssp: unknown SteppingPolicy %d", int(o.Policy))
	}
	if o.ExecMode != ExecBSP && o.ExecMode != ExecAsync {
		return fmt.Errorf("sssp: unknown ExecMode %d", int(o.ExecMode))
	}
	if o.ExecMode == ExecAsync && o.Census {
		return fmt.Errorf("sssp: Census requires bulk-synchronous per-bucket phases (ExecMode bsp)")
	}
	return nil
}

func (o *Options) threads() int {
	if o.Threads == 0 {
		return 1
	}
	return o.Threads
}

func (o *Options) tau() float64 {
	if o.Tau == 0 {
		return 0.4
	}
	return o.Tau
}

func (o *Options) heavyThreshold() int {
	if o.HeavyThreshold == 0 {
		return 64
	}
	return o.HeavyThreshold
}

func (o *Options) radiusK() int {
	if o.RadiusK == 0 {
		return 32
	}
	return o.RadiusK
}

func (o *Options) rho() int {
	if o.Rho == 0 {
		return 4096
	}
	return o.Rho
}

// PolicyString renders the active policy with its resolved parameter —
// "delta(25)", "radius(32)", "rho(4096)" — the form used by traces, the
// ssspd stats line and the tuner's trial table.
func (o *Options) PolicyString() string {
	switch o.Policy {
	case PolicyRadius:
		return fmt.Sprintf("radius(%d)", o.radiusK())
	case PolicyRho:
		return fmt.Sprintf("rho(%d)", o.rho())
	default:
		if o.Delta == BellmanFordDelta {
			return "delta(inf)"
		}
		return fmt.Sprintf("delta(%d)", o.Delta)
	}
}

// The presets below name the algorithm variants evaluated in the paper.

// DelOptions is the baseline Δ-stepping algorithm with short/long edge
// classification — the paper's Del-Δ.
func DelOptions(delta graph.Weight) Options {
	return Options{Delta: delta, EdgeClassification: true}
}

// PruneOptions is Del augmented with the pruning and IOS heuristics — the
// paper's Prune-Δ.
func PruneOptions(delta graph.Weight) Options {
	o := DelOptions(delta)
	o.IOS = true
	o.Prune = true
	o.ImbalanceWeight = 0.25
	return o
}

// OptOptions is Prune augmented with hybridization — the paper's OPT-Δ.
func OptOptions(delta graph.Weight) Options {
	o := PruneOptions(delta)
	o.Hybrid = true
	return o
}

// LBOptOptions is Opt with intra-rank thread-level load balancing — the
// paper's LB-Opt.
func LBOptOptions(delta graph.Weight) Options {
	o := OptOptions(delta)
	o.LoadBalance = true
	return o
}

// DijkstraOptions is Δ-stepping with Δ=1, Dial's variant of Dijkstra's
// algorithm (the paper analyses Dijkstra as this configuration).
func DijkstraOptions() Options { return DelOptions(1) }

// BellmanFordOptions is Δ-stepping with Δ=∞.
func BellmanFordOptions() Options {
	return Options{Delta: BellmanFordDelta, EdgeClassification: true}
}

// RadiusSteppingOptions is the Radius Stepping policy with radius
// parameter k (0 = default). Delta is set to a valid placeholder; the
// policy does not use it.
func RadiusSteppingOptions(k int) Options {
	return Options{Policy: PolicyRadius, RadiusK: k, Delta: 1}
}

// RhoSteppingOptions is the ρ-stepping policy with batch size rho
// (0 = default). Delta is set to a valid placeholder; the policy does
// not use it.
func RhoSteppingOptions(rho int) Options {
	return Options{Policy: PolicyRho, Rho: rho, Delta: 1}
}
