package sssp

import (
	"fmt"
	"sort"

	"parsssp/internal/graph"
)

// This file defines the stepping-policy seam: the priority/bucket
// discipline of the engine, abstracted so Δ-stepping (the paper's
// algorithm), Radius Stepping (Blelloch et al., arXiv 1602.03881) and
// ρ-stepping (Dong et al., arXiv 2105.06145) share one engine. A policy
// answers four questions the engine would otherwise hard-code:
//
//   - Frontier selection: which vertices relax next, and how many. Δ- and
//     ρ-stepping file vertices under a monotone integer key (key) in the
//     lazy-deletion bucketStore; Radius Stepping scans against a distance
//     threshold instead.
//   - Bucket assignment: the key a relaxed vertex re-files under
//     (applyRec / applyAsyncRec).
//   - Short/long edge split: where a vertex's weight-sorted adjacency
//     splits into eagerly- and lazily-relaxed halves (shortEdgeEnd feeds
//     the plane's shortEnd table; deferWeight feeds the async mode's
//     deferral threshold).
//   - Settle condition: the largest distance an epoch may finalize
//     (settleBound for key-filed policies; the Radius driver's threshold
//     M plays the role directly). See DESIGN.md "Stepping policies" for
//     the per-policy soundness arguments.
//
// The stepper lives on the rankGraph (built by the sanctioned plane
// constructors, immutable afterwards — planepurity enforces this), so
// concurrent queries over one plane share it read-only like every other
// precomputed table.

// SteppingPolicy selects the engine's priority/bucket discipline.
type SteppingPolicy int

const (
	// PolicyDelta is the paper's Δ-stepping: buckets of width Δ, settled
	// one at a time with short-edge fixpoints and a long-edge phase. The
	// zero value, and the only policy supporting the paper's pruning,
	// IOS, push/pull and hybridization heuristics.
	PolicyDelta SteppingPolicy = iota
	// PolicyRadius is Radius Stepping: each epoch settles every vertex
	// within a globally-agreed distance threshold M = min over unsettled
	// v of d(v)+r(v), where the per-vertex radius r(v) is precomputed on
	// the plane. Fewer, fatter epochs than Δ-stepping on long-diameter
	// graphs.
	PolicyRadius
	// PolicyRho is ρ-stepping: a lazy-batched priority queue. Each epoch
	// relaxes the full adjacency of up to ⌈ρ/P⌉ vertices per rank from
	// the lowest-keyed bucket; nothing settles until the queue drains.
	PolicyRho
)

// String returns the flag spelling of the policy.
func (p SteppingPolicy) String() string {
	switch p {
	case PolicyDelta:
		return "delta"
	case PolicyRadius:
		return "radius"
	case PolicyRho:
		return "rho"
	default:
		return fmt.Sprintf("SteppingPolicy(%d)", int(p))
	}
}

// ParseSteppingPolicy parses the -policy flag values "delta", "radius"
// and "rho".
func ParseSteppingPolicy(s string) (SteppingPolicy, error) {
	switch s {
	case "delta":
		return PolicyDelta, nil
	case "radius":
		return PolicyRadius, nil
	case "rho":
		return PolicyRho, nil
	}
	return PolicyDelta, fmt.Errorf("sssp: unknown stepping policy %q (want delta, radius or rho)", s)
}

// stepper is a stepping policy bound to one plane: the pure per-plane
// parameters (Δ, the ρ quantum, the radius quantum) resolved against the
// graph, shared read-only by every query. Distance-dependent state stays
// in queryState; the Radius policy's r(v) table is the rankGraph.radius
// column.
type stepper interface {
	// policy identifies the discipline (the apply paths switch on it).
	policy() SteppingPolicy
	// unbounded reports the single-bucket degeneracy (Δ=∞ today): every
	// finite distance files under key 0, there is no long-edge phase, and
	// the engine may run its Bellman-Ford fast path. Replaces the old
	// engine-wide comparisons against the BellmanFordDelta sentinel,
	// which ρ/radius configurations must never trip.
	unbounded() bool
	// key files a finite tentative distance under a bucket key. Monotone
	// non-decreasing in the distance; used by the store-based BSP paths
	// and by the async mode's priority buckets.
	key(d graph.Dist) int64
	// settleBound is the largest distance filed under key k — what the
	// key-filed disciplines may finalize once bucket k reaches fixpoint.
	settleBound(k int64) graph.Dist
	// shortEdgeEnd is the short/long split point of v's weight-sorted
	// adjacency (the plane's shortEnd table). Policies without a
	// short/long phase split return the full degree.
	shortEdgeEnd(g *graph.Graph, v graph.Vertex) int
	// deferWeight is the async mode's long-edge deferral threshold:
	// edges of at least this weight are parked until no lighter pending
	// work remains (see async.go). Policy-supplied because "long" is
	// relative to how far one epoch advances — Δ for Δ-stepping, the
	// respective quantum for ρ and radius.
	deferWeight() graph.Weight
	// batchCap bounds how many vertices one epoch may take from the
	// frontier on this rank; zero means unlimited. Only ρ-stepping caps.
	batchCap() int
}

// ---- Δ-stepping ------------------------------------------------------------

type deltaStepper struct {
	delta graph.Weight
	dd    graph.Dist
}

func (s *deltaStepper) policy() SteppingPolicy         { return PolicyDelta }
func (s *deltaStepper) unbounded() bool                { return s.delta == BellmanFordDelta }
func (s *deltaStepper) key(d graph.Dist) int64         { return int64(d / s.dd) }
func (s *deltaStepper) settleBound(k int64) graph.Dist { return (k+1)*s.dd - 1 }
func (s *deltaStepper) deferWeight() graph.Weight      { return s.delta }
func (s *deltaStepper) batchCap() int                  { return 0 }

func (s *deltaStepper) shortEdgeEnd(g *graph.Graph, v graph.Vertex) int {
	return g.ShortEdgeEnd(v, s.delta)
}

// ---- Radius Stepping -------------------------------------------------------

// radiusStepper carries the scalar parameters of the Radius policy; the
// per-vertex radius table is rankGraph.radius. The quantum q (the median
// radius) keys the async mode's priority buckets and deferral — the BSP
// driver never files by key, it scans against its threshold M.
type radiusStepper struct {
	k int        // r(v) = k-th smallest incident edge weight
	q graph.Dist // median radius; async bucket quantum and deferral unit
}

func (s *radiusStepper) policy() SteppingPolicy         { return PolicyRadius }
func (s *radiusStepper) unbounded() bool                { return false }
func (s *radiusStepper) key(d graph.Dist) int64         { return int64(d / s.q) }
func (s *radiusStepper) settleBound(k int64) graph.Dist { return (k+1)*s.q - 1 }
func (s *radiusStepper) batchCap() int                  { return 0 }

func (s *radiusStepper) deferWeight() graph.Weight {
	if s.q > graph.Dist(BellmanFordDelta) {
		return BellmanFordDelta
	}
	return graph.Weight(s.q)
}

// Radius Stepping has no short/long phase split: every epoch relaxes the
// full adjacency of its sub-threshold frontier.
func (s *radiusStepper) shortEdgeEnd(g *graph.Graph, v graph.Vertex) int {
	return g.Degree(v)
}

// ---- ρ-stepping ------------------------------------------------------------

// rhoStepper carries the ρ policy's plane parameters: the key quantum q
// (distances are batched q apart — the "lazy" in lazy batching; derived
// from the graph's median incident weight) and the per-rank batch cap
// ⌈ρ/P⌉.
type rhoStepper struct {
	q   graph.Dist
	cap int
}

func (s *rhoStepper) policy() SteppingPolicy         { return PolicyRho }
func (s *rhoStepper) unbounded() bool                { return false }
func (s *rhoStepper) key(d graph.Dist) int64         { return int64(d / s.q) }
func (s *rhoStepper) settleBound(k int64) graph.Dist { return (k+1)*s.q - 1 }
func (s *rhoStepper) batchCap() int                  { return s.cap }

func (s *rhoStepper) deferWeight() graph.Weight {
	if s.q > graph.Dist(BellmanFordDelta) {
		return BellmanFordDelta
	}
	return graph.Weight(s.q)
}

// ρ-stepping relaxes full adjacencies; no short/long split.
func (s *rhoStepper) shortEdgeEnd(g *graph.Graph, v graph.Vertex) int {
	return g.Degree(v)
}

// ---- shared precompute helpers --------------------------------------------

// vertexRadius returns the Radius policy's r(v): the k-th smallest
// incident edge weight (adjacency is weight-sorted, so that is a direct
// index), clamped to the degree, and at least 1 so thresholds strictly
// advance even through zero-weight edges. This one-hop approximation of
// Blelloch et al.'s k-nearest-ball radius keeps the precompute O(1) per
// vertex; any positive radius is sound (see DESIGN.md), only round
// counts vary with the approximation quality.
func vertexRadius(g *graph.Graph, v graph.Vertex, k int) graph.Dist {
	deg := g.Degree(v)
	if deg == 0 {
		return 1
	}
	i := k
	if i > deg {
		i = deg
	}
	_, ws := g.Neighbors(v)
	r := graph.Dist(ws[i-1])
	if r < 1 {
		r = 1
	}
	return r
}

// statSampleCap bounds the deterministic vertex samples behind the
// policy quantums: large enough for a stable median, small enough that a
// patched-plane rebuild pays O(1) for it.
const statSampleCap = 2048

// sampleMedian collects stat(v) over an evenly-strided deterministic
// vertex sample and returns the sample median, at least 1. Every rank
// computes the identical value (full graph, fixed stride) — a policy
// parameter that differed across ranks would diverge the collective
// schedule.
func sampleMedian(g *graph.Graph, stat func(v graph.Vertex) graph.Dist) graph.Dist {
	n := g.NumVertices()
	if n == 0 {
		return 1
	}
	stride := (n + statSampleCap - 1) / statSampleCap
	if stride < 1 {
		stride = 1
	}
	sample := make([]graph.Dist, 0, statSampleCap)
	for v := 0; v < n; v += stride {
		sample = append(sample, stat(graph.Vertex(v)))
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	m := sample[len(sample)/2]
	if m < 1 {
		m = 1
	}
	return m
}

// radiusQuantum is the Radius policy's async bucket quantum: the median
// r(v) over a deterministic sample.
func radiusQuantum(g *graph.Graph, k int) graph.Dist {
	return sampleMedian(g, func(v graph.Vertex) graph.Dist {
		return vertexRadius(g, v, k)
	})
}

// rhoQuantum is the ρ policy's key quantum: the median of the sampled
// vertices' median incident edge weight — the scale at which batching
// nearby distances together stops changing the relaxation order much.
func rhoQuantum(g *graph.Graph) graph.Dist {
	return sampleMedian(g, func(v graph.Vertex) graph.Dist {
		deg := g.Degree(v)
		if deg == 0 {
			return 1
		}
		_, ws := g.Neighbors(v)
		return graph.Dist(ws[deg/2])
	})
}
