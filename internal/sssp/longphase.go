package sssp

import (
	"fmt"
	"math"

	"parsssp/internal/comm"
	"parsssp/internal/graph"
)

// This file implements the long-edge phase of an epoch: the push model,
// the pull model (the paper's pruning heuristic), the per-bucket
// push/pull decision heuristic, and the post-switch Bellman-Ford rounds
// of the hybridization strategy.

// longPhase relaxes the long edges (and, under IOS, the outer short
// edges) of the settled bucket-k vertices.
//
// Stage order matters for the decision heuristic: the outer-short push
// runs first because it assigns finite tentative distances to many
// previously-unreached vertices, which shrinks their useful-request sets;
// counting pull requests before it would overestimate the pull cost by
// roughly 2× on benchmark graphs.
func (r *queryState) longPhase(k int64, bs *BucketStats) error {
	members := r.collectMembers(k)
	r.stats.Phases++

	// Outer short edges (IOS): always pushed, regardless of the long-edge
	// mechanism; see DESIGN.md ("Pull phase and outer-short edges").
	// Without IOS the short phases already relaxed every short edge, so
	// there is nothing outer to do.
	if r.opts.IOS {
		start := now()
		before := r.relaxTotals()
		if err := r.pushOuterShort(k, members); err != nil {
			return err
		}
		r.logPhase(k, PhaseOuterShort, len(members), before, start)
	}

	mode := ModePush
	if r.opts.Prune {
		m, err := r.decideMode(k, members, bs)
		if err != nil {
			return err
		}
		mode = m
	}
	bs.Mode = mode
	r.stats.Decisions = append(r.stats.Decisions, mode)

	start := now()
	before := r.relaxTotals()
	if mode == ModePush {
		if err := r.pushScanLong(k, members, bs); err != nil {
			return err
		}
		r.logPhase(k, PhaseLongPush, len(members), before, start)
		return nil
	}
	if err := r.pullScan(k); err != nil {
		return err
	}
	r.logPhase(k, PhaseLongPull, len(members), before, start)
	return nil
}

// pushOuterShort pushes the outer-short edges of the bucket members in
// one exchange.
func (r *queryState) pushOuterShort(k int64, members []uint32) error {
	r.phBEnd = r.bucketEnd(k)
	if r.outerFn == nil {
		r.outerFn = func(tid int, it workItem) {
			v := r.global(it.li)
			du := r.dist[it.li]
			nbr, ws := r.g.Neighbors(v)
			cnt := &r.tcnt[tid]
			end := it.hi
			if se := r.shortEnd[it.li]; end > se {
				end = se // long edges are handled by the long-edge mechanism
			}
			for i := it.lo; i < end; i++ {
				nd := du + graph.Dist(ws[i])
				if nd <= r.phBEnd {
					continue // inner short: already relaxed in short phases
				}
				cnt.OuterShortPush++
				r.stageRelax(tid, nbr[i], v, ws[i], nd)
			}
		}
	}
	items := r.buildItems(members)
	r.runWorkers(items, r.outerFn)
	in, err := r.exchangeRecords(relaxKind)
	if err != nil {
		return err
	}
	return r.applyRelaxIn(in, false, nil)
}

// pushScanLong pushes only the long edges, attributing the received
// records to the self/backward/forward census when enabled.
func (r *queryState) pushScanLong(k int64, members []uint32, bs *BucketStats) error {
	if r.longFn == nil {
		r.longFn = func(tid int, it workItem) {
			v := r.global(it.li)
			du := r.dist[it.li]
			nbr, ws := r.g.Neighbors(v)
			cnt := &r.tcnt[tid]
			se := r.shortEnd[it.li]
			lo := it.lo
			if lo < se {
				lo = se
			}
			for i := lo; i < it.hi; i++ {
				cnt.LongPush++
				nd := du + graph.Dist(ws[i])
				r.stageRelax(tid, nbr[i], v, ws[i], nd)
			}
		}
	}
	items := r.buildItems(members)
	r.runWorkers(items, r.longFn)
	in, err := r.exchangeRecords(relaxKind)
	if err != nil {
		return err
	}
	var census *BucketStats
	if r.opts.Census {
		census = bs
	}
	return r.applyRelaxIn(in, false, census)
}

// pullScan runs the pull model: every local vertex in a later bucket
// requests, over each long edge whose weight passes the usefulness test
// w <= d(v) − kΔ, the tentative distance of the far endpoint; owners of
// current-bucket vertices respond with relaxations. (Equality is useful
// only to parent election, see the loop body.)
func (r *queryState) pullScan(k int64) error {
	// Requesters are all local unsettled vertices. Collect them (this is
	// work the pull model pays for; charged to relaxation time). The
	// scratch is rank-owned and reused across pull epochs; buildItems
	// copies what it needs.
	start := now()
	requesters := r.requesters[:0]
	for li := 0; li < r.nLocal; li++ {
		if r.bucketOf[li] > k {
			requesters = append(requesters, uint32(li))
		}
	}
	r.requesters = requesters
	r.charge(start, false)

	r.phKBase = k * r.dd
	if r.pullFn == nil {
		r.pullFn = func(tid int, it workItem) {
			v := r.global(it.li)
			dv := r.dist[it.li]
			bound := dv - r.phKBase // request iff w <= bound
			nbr, ws := r.g.Neighbors(v)
			cnt := &r.tcnt[tid]
			se := r.shortEnd[it.li]
			lo := it.lo
			if lo < se {
				lo = se
			}
			for i := lo; i < it.hi; i++ {
				// A boundary-weight edge (w = d(v) − kΔ) cannot improve d(v),
				// but a bucket-k responder at exactly kΔ answers it with a
				// tie — and ties elect parents canonically, so the offer must
				// travel. Hence <=, not <.
				if graph.Dist(ws[i]) > bound {
					cnt.Skipped += int64(it.hi - i)
					break // weight-sorted: the rest fail the test too
				}
				cnt.PullRequests++
				r.stageRequest(tid, nbr[i], v, ws[i])
			}
		}
	}
	items := r.buildItems(requesters)
	r.runWorkers(items, r.pullFn)
	reqIn, err := r.exchangeRecords(requestKind)
	if err != nil {
		return err
	}

	// Respond: for each request (u, v, w) with u local and in the current
	// bucket, send relax(v, d(u)+w) to v's owner. Serial walk, staging
	// through thread 0. Responses stage typed, so nothing they write can
	// alias the received requests (the self-delivered batch is r.out's,
	// rewritten only by the next exchange).
	start = now()
	cnt := &r.tcnt[0]
	nVerts := graph.Vertex(r.pd.NumVertices())
	for src, buf := range reqIn {
		rd := newRequestReader(buf)
		for {
			u, v, w, ok := rd.next()
			if !ok {
				break
			}
			// Damaged requests fail the query like damaged relaxations do
			// (see applyRelaxIn): u must be locally owned, and v must be a
			// real vertex or Owner(v) below would fault.
			li := r.local(u)
			if uint(li) >= uint(r.nLocal) {
				r.charge(start, false)
				return r.corruptErr(src, "request",
					fmt.Errorf("vertex %d is not owned by this rank", u))
			}
			if v >= nVerts {
				r.charge(start, false)
				return r.corruptErr(src, "request",
					fmt.Errorf("requester %d is not a vertex", v))
			}
			if r.bucketOf[li] != k {
				continue
			}
			cnt.PullResponses++
			r.stageRelax(0, v, u, w, r.dist[li]+graph.Dist(w))
		}
		if err := rd.err(); err != nil {
			r.charge(start, false)
			return r.corruptErr(src, "request", err)
		}
	}
	r.charge(start, false)

	respIn, err := r.exchangeRecords(relaxKind)
	if err != nil {
		return err
	}
	return r.applyRelaxIn(respIn, false, nil)
}

// decideMode evaluates the push/pull decision heuristic for bucket k.
//
// Push cost is the number of long edges incident on the current bucket
// (each becomes one relaxation message). Pull cost is twice the request
// count (each useful request triggers at most one response; the paper
// uses the request count as the response upper bound). Following the
// paper's fine-tuned heuristic, each cost blends the machine-wide volume
// with the worst-rank load: cost = (1−λ)·volume + λ·P·maxPerRank.
func (r *queryState) decideMode(k int64, members []uint32, bs *BucketStats) (Mode, error) {
	start := now()
	var pushLocal int64
	for _, li := range members {
		deg := int64(r.g.Degree(r.global(li)))
		pushLocal += deg - int64(r.shortEnd[li])
	}
	var pullLocal int64
	kBase := k * r.dd
	for li := 0; li < r.nLocal; li++ {
		if r.bucketOf[li] <= k {
			continue
		}
		pullLocal += r.requestCount(uint32(li), kBase)
	}
	r.charge(start, false)

	r.reduceVal[0], r.reduceVal[1] = pushLocal, pullLocal
	sums, err := r.allreduce(r.reduceVal[:2], comm.Sum, false)
	if err != nil {
		return ModePush, err
	}
	maxes, err := r.allreduce(r.reduceVal[:2], comm.Max, false)
	if err != nil {
		return ModePush, err
	}
	lambda := r.opts.ImbalanceWeight
	p := float64(r.size)
	costPush := (1-lambda)*float64(sums[0]) + lambda*p*float64(maxes[0])
	// Responses are bounded by both the request count and the number of
	// long edges incident on the current bucket (only those can answer),
	// so min(requests, pushVolume) tightens the paper's requests-only
	// bound.
	responses := sums[1]
	if sums[0] < responses {
		responses = sums[0]
	}
	costPull := (1-lambda)*float64(sums[1]+responses) + lambda*p*2*float64(maxes[1])
	bs.PushCost = int64(costPush)
	bs.PullCost = int64(costPull)
	bs.Requests = sums[1]

	mode := ModePush
	if costPull < costPush {
		mode = ModePull
	}
	// Overrides, strongest first: census forces push (categories are
	// observed at the receiver of push records), then the §IV.G
	// evaluation hooks.
	switch {
	case r.opts.Census:
		mode = ModePush
	case r.opts.ForceMode != nil:
		mode = *r.opts.ForceMode
	case r.epochSeq < len(r.opts.DecisionSequence):
		mode = r.opts.DecisionSequence[r.epochSeq]
	}
	return mode, nil
}

// requestCount returns the number of pull requests vertex li would send
// for the bucket with base distance kBase: long edges with weight
// w < d(v) − kΔ. Exact by default (binary search over the weight-sorted
// adjacency); Options.Estimator selects the paper's expectation formula
// or the histogram approximation instead.
func (r *queryState) requestCount(li uint32, kBase graph.Dist) int64 {
	v := r.global(li)
	deg := int64(r.g.Degree(v))
	longDeg := deg - int64(r.shortEnd[li])
	if longDeg <= 0 {
		return 0
	}
	dv := r.dist[li]
	if dv >= graph.Inf {
		return longDeg
	}
	bound := dv - kBase
	switch r.opts.Estimator {
	case EstimatorExpectation:
		// deg_long(v) × (d(v) − (k+1)Δ) / d(v), clamped to [0, longDeg].
		num := float64(dv - (kBase + r.dd))
		if num <= 0 {
			return 0
		}
		est := float64(longDeg) * num / float64(dv)
		if est > float64(longDeg) {
			est = float64(longDeg)
		}
		return int64(est)
	case EstimatorHistogram:
		return r.histCount(li, bound)
	}
	if bound <= graph.Dist(r.opts.Delta) {
		return 0
	}
	hi := bound
	if hi > graph.Dist(r.maxW)+1 {
		hi = graph.Dist(r.maxW) + 1
	}
	if hi > math.MaxUint32 {
		hi = math.MaxUint32
	}
	return int64(r.g.CountWeightRange(v, r.opts.Delta, graph.Weight(hi)))
}

// bellmanFordFn lazily builds the full-adjacency relaxation scan shared
// by the post-switch Bellman-Ford stage and the incremental repair's
// re-relax rounds (dynamic.go).
func (r *queryState) bellmanFordFn() func(tid int, it workItem) {
	if r.bfFn == nil {
		r.bfFn = func(tid int, it workItem) {
			v := r.global(it.li)
			du := r.dist[it.li]
			nbr, ws := r.g.Neighbors(v)
			cnt := &r.tcnt[tid]
			for i := it.lo; i < it.hi; i++ {
				cnt.BellmanFord++
				nd := du + graph.Dist(ws[i])
				r.stageRelax(tid, nbr[i], v, ws[i], nd)
			}
		}
	}
	return r.bfFn
}

// runBellmanFord executes the post-switch Bellman-Ford stage: all
// remaining buckets are merged and processed with full-adjacency
// relaxation rounds until no distance changes anywhere.
func (r *queryState) runBellmanFord(k int64) error {
	r.hybridMode = true
	start := now()
	frontier := r.active[:0]
	for li := 0; li < r.nLocal; li++ {
		if r.bucketOf[li] > k && r.dist[li] < graph.Inf {
			frontier = append(frontier, uint32(li))
		}
	}
	r.active = frontier
	r.charge(start, true)

	for {
		r.reduceVal[0] = int64(len(r.active))
		av, err := r.allreduce(r.reduceVal[:1], comm.Sum, true)
		if err != nil {
			return err
		}
		if av[0] == 0 {
			return nil
		}
		r.stats.Phases++
		r.stats.BFPhases++
		bfStart := now()
		bfBefore := r.relaxTotals()
		nActive := len(r.active)
		items := r.buildItems(r.active)
		r.runWorkers(items, r.bellmanFordFn())
		in, err := r.exchangeRecords(relaxKind)
		if err != nil {
			return err
		}
		if err := r.applyRelaxIn(in, false, nil); err != nil {
			return err
		}
		r.logPhase(-1, PhaseBellmanFord, nActive, bfBefore, bfStart)
		r.active, r.nextActive = r.nextActive, r.active[:0]
	}
}
