package sssp

import (
	"fmt"
	"time"

	"parsssp/internal/comm"
	"parsssp/internal/graph"
	"parsssp/internal/partition"
)

// queryState is the query plane of one rank: all per-query mutable state
// of a distributed run, over an immutable shared rankGraph. One
// queryState executes on each rank (a goroutine over memtransport, or a
// process over tcptransport); they advance in lockstep through the
// bulk-synchronous collectives of their transports. Distinct queryStates
// over the same rankGraph are independent — a query pool keeps one per
// slot and runs them concurrently.
type queryState struct {
	*rankGraph // shared, read-only; see plane.go

	t   *comm.Counting
	src graph.Vertex

	dist     []graph.Dist   // tentative distances of local vertices
	parent   []graph.Vertex // tree predecessor of local vertices (NoParent = none)
	bucketOf []int64        // current bucket of local vertices (infBucket = unreached)
	store    bucketStore

	curK       int64
	hybridMode bool

	active     []uint32 // local indices active this phase
	nextActive []uint32
	mark       []int64 // stamp array deduplicating nextActive
	stamp      int64

	// Per-thread outgoing records and counters; staging is indexed
	// [thread][dest]. Every record staged is consumed by the encodeDest
	// call of the exchange (or async round) that follows, so the staging
	// is empty between supersteps; reset clears what a failed query left.
	relaxOut   [][][]relaxRec
	reqOut     [][][]requestRec
	tcnt       []RelaxCounts
	out        [][]byte     // per-dest encoded batches
	relaxRecs  []relaxRec   // multi-thread gather scratch of encodeDest
	selfIn     []relaxRec   // this superstep's self-destined relax records; see exchangeRecords
	reqRecs    []requestRec // likewise for requests
	sorter     relaxSorter
	members    []uint32 // bucket-member scratch of collectMembers
	requesters []uint32 // requester scratch of the pull phase
	items      []workItem
	applyStage []applyStaging // per-thread staging of applyRelaxIn
	reduceVal  [2]int64       // input scratch of small allreduces

	// Persistent worker pool. Phase scans dispatch to these long-lived
	// goroutines instead of spawning per phase: the per-phase goroutine
	// and closure spawns were the dominant steady-state allocation of the
	// phase loop. workFn/workItems are the current dispatch, published to
	// the workers by the workStart sends and read back at the workDone
	// receives. The worker bodies (shortFn, ...) are built once, lazily,
	// and read their per-phase parameters (phBEnd, phKBase) from the
	// engine instead of capturing them.
	workFn    func(tid int, it workItem)
	workItems []workItem
	workStart []chan struct{}
	workDone  chan struct{}

	phBEnd  graph.Dist // bucket end of the current short/outer-short phase
	phKBase graph.Dist // kΔ of the current pull phase
	phBound graph.Dist // settle threshold M of the current Radius epoch

	shortFn, outerFn, longFn, pullFn, bfFn, asyncShortFn, asyncLongFn,
	radiusFn, rhoFn func(tid int, it workItem)

	// Radius Stepping state (PolicyRadius; see radius.go). Allocated
	// lazily by the first radius run on this state.
	settled []bool // vertex is finalized (dist is its shortest distance)

	// Asynchronous execution scratch (ExecMode async; see async.go).
	// Allocated lazily by the first async run on this state.
	pending     []bool      // vertex is queued for an async short-edge round
	longPending []bool      // vertex has a deferred async long-edge relax
	longStore   bucketStore // deferred long-edge queue, keyed like store

	settledTotal int64
	epochSeq     int // epoch ordinal (for DecisionSequence)

	stats     Stats
	bktTime   time.Duration
	otherTime time.Duration
}

type workItem struct {
	li     uint32
	lo, hi int32
}

// newQueryState allocates the mutable query plane of one rank over the
// shared graph plane. The transport must belong to the same machine
// shape as the plane (same rank, same size); a query pool calls this
// once per slot, with one independent transport (a memtransport
// sub-group endpoint or a tcptransport channel) per slot.
func newQueryState(plane *rankGraph, t comm.Transport) (*queryState, error) {
	if t.Size() != plane.size {
		return nil, fmt.Errorf("sssp: plane has %d ranks, transport %d", plane.size, t.Size())
	}
	if t.Rank() != plane.rank {
		return nil, fmt.Errorf("sssp: plane is rank %d, transport reports rank %d",
			plane.rank, t.Rank())
	}
	r := &queryState{
		rankGraph: plane,
		t:         comm.NewCounting(t),
	}
	r.dist = newDistArray(r.nLocal)
	r.parent = newParentArray(r.nLocal)
	r.bucketOf = make([]int64, r.nLocal)
	for i := range r.bucketOf {
		r.bucketOf[i] = infBucket
	}
	r.mark = make([]int64, r.nLocal)
	for i := range r.mark {
		r.mark[i] = -1
	}
	r.store = newBucketStore()
	T := r.opts.threads()
	r.relaxOut = make([][][]relaxRec, T)
	r.reqOut = make([][][]requestRec, T)
	for i := 0; i < T; i++ {
		r.relaxOut[i] = make([][]relaxRec, r.size)
		r.reqOut[i] = make([][]requestRec, r.size)
	}
	r.tcnt = make([]RelaxCounts, T)
	r.out = make([][]byte, r.size)
	return r, nil
}

// newRankEngine builds a plane+state pair in one step: the shape used by
// single-query runs (RunRank) and tests, where sharing the plane buys
// nothing.
func newRankEngine(g *graph.Graph, pd partition.Dist, src graph.Vertex,
	opts *Options, t comm.Transport, maxW graph.Weight) (*queryState, error) {
	if pd.NumRanks() != t.Size() {
		return nil, fmt.Errorf("sssp: distribution has %d ranks, transport %d",
			pd.NumRanks(), t.Size())
	}
	if int(src) >= g.NumVertices() {
		return nil, fmt.Errorf("sssp: source %d out of range", src)
	}
	plane, err := newRankGraph(g, pd, t.Rank(), opts, maxW)
	if err != nil {
		return nil, err
	}
	qs, err := newQueryState(plane, t)
	if err != nil {
		return nil, err
	}
	qs.src = src
	return qs, nil
}

// tracef writes an execution-trace line; only rank 0 emits, so the
// writer needs no synchronization.
func (r *queryState) tracef(format string, args ...interface{}) {
	if r.rank != 0 || r.opts.Trace == nil {
		return
	}
	fmt.Fprintf(r.opts.Trace, format+"\n", args...)
}

// ---- timed collectives ----------------------------------------------------

func (r *queryState) allreduce(vals []int64, op comm.ReduceOp, bucketOverhead bool) ([]int64, error) {
	start := now()
	res, err := r.t.AllreduceInt64(vals, op)
	r.charge(start, bucketOverhead)
	return res, err
}

// exchangeRecords runs the superstep's all-to-all over the staged
// records of the given kind and maintains the record-level traffic
// counters (the transport wrapper cannot see record boundaries, so the
// engine counts). Self-destined relax records skip the wire: they are
// sorted and combined like a batch, left in r.selfIn, and applied by the
// applyRelaxIn that follows at the position of this rank's buffer. They
// are taken last because with several threads they live in the gather
// scratch that every other destination's encode reuses.
func (r *queryState) exchangeRecords(kind recKind) ([][]byte, error) {
	start := now()
	defer r.charge(start, false)
	for dest := 0; dest < r.size; dest++ {
		if dest == r.rank {
			continue
		}
		r.t.Stats.RecordsSent += int64(r.encodeDest(kind, dest))
	}
	if kind == relaxKind {
		r.selfIn = r.takeRelax(r.rank)
		r.out[r.rank] = r.out[r.rank][:0]
	} else {
		r.encodeDest(kind, r.rank)
	}
	in, err := r.t.Exchange(r.out)
	if err != nil {
		return nil, err
	}
	for src, buf := range in {
		if src == r.rank {
			continue
		}
		r.t.Stats.RecordsReceived += int64(wireRecordCount(buf))
	}
	return in, nil
}

// encodeDest encodes every thread's staged records of the given kind for
// dest into r.out[dest] as one batch, thread-major, empties that staging
// and returns the record count. Relax batches are stably sorted by
// destination vertex for the delta encoding and min-combined (see
// takeRelax); request batches keep emission order (see
// encodeRequestBatch). BSP exchanges and async rounds both send what
// this produces.
func (r *queryState) encodeDest(kind recKind, dest int) int {
	if kind == requestKind {
		recs := takeStaged(r.reqOut, dest, &r.reqRecs)
		r.out[dest] = encodeRequestBatch(r.out[dest][:0], recs)
		return len(recs)
	}
	recs := r.takeRelax(dest)
	r.out[dest] = encodeRelaxBatch(r.out[dest][:0], recs)
	return len(recs)
}

// takeRelax takes every thread's staged relax records for dest (see
// takeStaged), stably sorted by vertex and min-combined. Census runs keep
// every record: the census counts each long push where it lands.
func (r *queryState) takeRelax(dest int) []relaxRec {
	recs := takeStaged(r.relaxOut, dest, &r.relaxRecs)
	sortRelaxBatch(&r.sorter, recs)
	if r.opts.Census {
		return recs
	}
	return combineRelax(recs)
}

// takeStaged returns every thread's staged records for dest in
// thread-major order and empties that staging. With one thread it hands
// back the staging slice itself (valid until the next record is staged);
// otherwise it concatenates into *scratch.
func takeStaged[T any](staged [][][]T, dest int, scratch *[]T) []T {
	if len(staged) == 1 {
		recs := staged[0][dest]
		staged[0][dest] = recs[:0]
		return recs
	}
	recs := (*scratch)[:0]
	for tid := range staged {
		recs = append(recs, staged[tid][dest]...)
		staged[tid][dest] = staged[tid][dest][:0]
	}
	*scratch = recs
	return recs
}

// stageRelax stages, in thread tid's buffer for v's owner, the offer of
// distance d to v from parent over an edge of weight w.
func (r *queryState) stageRelax(tid int, v, parent graph.Vertex, w graph.Weight, d graph.Dist) {
	dst := r.pd.Owner(v)
	r.relaxOut[tid][dst] = append(r.relaxOut[tid][dst], relaxRec{v, tagParent(parent, w), d})
}

// stageRequest stages, in thread tid's buffer for u's owner, v's request
// for an offer over edge u-v of weight w.
func (r *queryState) stageRequest(tid int, u, v graph.Vertex, w graph.Weight) {
	dst := r.pd.Owner(u)
	r.reqOut[tid][dst] = append(r.reqOut[tid][dst], requestRec{u, v, w})
}

func (r *queryState) charge(start time.Time, bucketOverhead bool) {
	d := since(start)
	if bucketOverhead {
		r.bktTime += d
	} else {
		r.otherTime += d
	}
}

// ---- parallel scans --------------------------------------------------------

// buildItems converts a vertex list into work items, chunking the edge
// lists of heavy vertices when thread-level load balancing is enabled
// (the paper's intra-node strategy: the owner thread does not relax all
// edges of a heavy vertex by itself).
func (r *queryState) buildItems(verts []uint32) []workItem {
	items := r.items[:0]
	if r.opts.LoadBalance && r.opts.threads() > 1 {
		pi := int32(r.opts.heavyThreshold())
		for _, li := range verts {
			deg := int32(r.g.Degree(r.global(li)))
			if deg > pi {
				for lo := int32(0); lo < deg; lo += pi {
					hi := lo + pi
					if hi > deg {
						hi = deg
					}
					items = append(items, workItem{li, lo, hi})
				}
			} else {
				items = append(items, workItem{li, 0, deg})
			}
		}
	} else {
		for _, li := range verts {
			deg := int32(r.g.Degree(r.global(li)))
			items = append(items, workItem{li, 0, deg})
		}
	}
	r.items = items
	return items
}

// runWorkers executes fn over items with the rank's thread pool. fn must
// only touch thread-local state (its own staging through stageRelax /
// stageRequest, tcnt[tid]).
//
// Batches are assigned statically and cyclically: batch b belongs to
// thread b mod T. The item→thread mapping is therefore a pure function
// of the item list, which makes the per-thread emission buffers — and
// with them the entire wire stream and the first-wins parent election —
// reproducible run to run. Cyclic interleaving keeps the load spread
// when cost varies smoothly along the item list; genuinely heavy
// vertices are split across batches by buildItems when LoadBalance is
// on.
func (r *queryState) runWorkers(items []workItem, fn func(tid int, it workItem)) {
	start := now()
	defer r.charge(start, false)
	T := r.opts.threads()
	if T == 1 || len(items) == 0 {
		for _, it := range items {
			fn(0, it)
		}
		return
	}
	if r.workStart == nil {
		r.workStart = make([]chan struct{}, T)
		r.workDone = make(chan struct{}, T)
		for tid := 0; tid < T; tid++ {
			r.workStart[tid] = make(chan struct{}, 1)
			go r.poolWorker(tid, T)
		}
	}
	r.workFn, r.workItems = fn, items
	for tid := 0; tid < T; tid++ {
		r.workStart[tid] <- struct{}{}
	}
	for tid := 0; tid < T; tid++ {
		<-r.workDone
	}
	r.workFn, r.workItems = nil, nil
}

// poolWorker is the body of one pooled worker goroutine. Each workStart
// send publishes workFn/workItems (the channel handshake orders those
// writes before the reads here, and the workDone sends order the scan's
// results before the dispatcher continues). Workers exit when stopWorkers
// closes their start channel.
func (r *queryState) poolWorker(tid, T int) {
	const batch = 16
	for range r.workStart[tid] {
		items, fn := r.workItems, r.workFn
		for base := tid * batch; base < len(items); base += T * batch {
			end := base + batch
			if end > len(items) {
				end = len(items)
			}
			for j := base; j < end; j++ {
				fn(tid, items[j])
			}
		}
		r.workDone <- struct{}{}
	}
}

// stopWorkers shuts down the pooled worker goroutines (if any were ever
// started). The engine must be idle: no runWorkers dispatch in flight.
// Safe to call more than once; runWorkers would lazily restart the pool
// if the engine were used again.
func (r *queryState) stopWorkers() {
	for _, ch := range r.workStart {
		close(ch)
	}
	r.workStart = nil
	r.workDone = nil
}

// relaxTotals sums the per-thread relaxation counters.
func (r *queryState) relaxTotals() RelaxCounts {
	var sum RelaxCounts
	for i := range r.tcnt {
		sum.Add(r.tcnt[i])
	}
	return sum
}

// ---- record application ----------------------------------------------------

// applyRelaxIn applies every relax record in the received buffers, taking
// this rank's own records from r.selfIn at the position of its buffer,
// so the apply order is that of a full exchange.
// activate controls whether improved vertices landing in the current
// bucket join the next phase's active set (short phases) — long-phase
// results can never land in the current bucket and pass false. census, if
// non-nil, receives the self/backward/forward categorization of each
// record relative to bucket k.
//
// Parent election is canonical: a strict distance improvement takes the
// sender as parent, and a positive-weight record matching the current
// distance takes the sender if its id is smaller than the incumbent's.
// For graphs with strictly positive weights the final parent of v is
// therefore min{u : d(u)+w(u,v) = d(v), u offered} — a pure function of
// the final distances and the offered candidate set, independent of the
// schedule that delivered the offers. That is what lets an incremental
// repair (dynamic.go), which re-relaxes only the affected subgraph in a
// completely different phase order, reproduce a from-scratch run's
// parent tree byte for byte. Zero-weight offers are excluded from the
// equal-distance election (the wire tags them — see tagParent): inside a
// cluster of equal-distance vertices joined by zero-weight edges, a
// pointwise min-id election can elect parents that form a cycle. They
// still win on strict improvement, first-wins, so zero-weight-tie
// parents stay schedule-dependent — a valid tree always, byte-equal to
// a recompute only when no zero-weight tie is involved.
//
// The tree stays acyclic in all cases: an equality reassignment needs
// positive weight, so it points strictly downhill in distance, and a
// cycle would need every hop distance-flat — all zero-weight strict
// assignments, whose settle-time ordering already forbids a cycle. See
// DESIGN.md "Wire format" and "Dynamic updates & plane versioning".
//
// Application stages its bucket-store insertions and activations per
// thread (applyStaging) and merges them in thread order at the end; with
// one thread that is the order of a direct write. With ParallelApply
// enabled (and no census, which needs exact serial counting),
// application runs on the rank's thread pool using the paper's
// intra-node ownership model: local vertex li belongs to thread li mod
// T, every thread scans all records but applies only its own vertices,
// so per-vertex state is written without locks — the role the L2
// atomics played on Blue Gene/Q (see applyparallel.go).
//
// Damaged input is an error, not a panic and not data loss: a record
// addressing a vertex this rank does not own, or a buffer the readers
// flag as malformed, fails the query (the sender cannot have produced
// it, so the frame was damaged in flight). Distances already applied
// from the buffer's valid prefix are left in place — the query is failed
// wholesale, nothing reads them.
func (r *queryState) applyRelaxIn(in [][]byte, activate bool, census *BucketStats) error {
	start := now()
	defer r.charge(start, false)
	r.stamp++
	self := r.selfIn
	r.selfIn = nil
	T := 1
	if t := r.opts.threads(); r.opts.ParallelApply && census == nil && t > 1 &&
		totalWireRecords(in)+len(self) >= parallelApplyThreshold {
		T = t
	}
	if len(r.applyStage) < T {
		r.applyStage = make([]applyStaging, T)
	}
	stage := r.applyStage[:T]
	for t := range stage {
		stage[t] = applyStaging{adds: stage[t].adds[:0], active: stage[t].active[:0]}
	}
	if T == 1 {
		stage[0].err = r.applyScan(&stage[0], in, self, 0, 1, activate, census)
	} else {
		r.applyParallel(stage, in, self, activate)
	}
	for t := range stage {
		if stage[t].err != nil {
			// Every thread scans the same buffers, so each sees the same
			// damage; the first thread's report suffices.
			return stage[t].err
		}
	}
	for t := range stage {
		for _, a := range stage[t].adds {
			r.store.add(a.bucket, a.li)
		}
		r.nextActive = append(r.nextActive, stage[t].active...)
	}
	return nil
}

// applyScan applies, as thread t of T, every record of the received
// buffers and, at the position of this rank's buffer, of self.
func (r *queryState) applyScan(st *applyStaging, in [][]byte, self []relaxRec, t, T int, activate bool, census *BucketStats) error {
	for src, buf := range in {
		if src == r.rank {
			for _, rec := range self {
				if err := r.applyRec(st, src, t, T, rec.v, rec.parent, rec.dist, activate, census); err != nil {
					return err
				}
			}
			continue
		}
		rd := newRelaxReader(buf)
		for {
			v, tpar, nd, ok := rd.next()
			if !ok {
				break
			}
			if err := r.applyRec(st, src, t, T, v, tpar, nd, activate, census); err != nil {
				return err
			}
		}
		if err := rd.err(); err != nil {
			return r.corruptErr(src, "relax", err)
		}
	}
	return nil
}

// applyRec applies one relax record from rank src (tpar is the tagged
// parent field) by applyRelaxIn's rule, as thread t of T: a record for a
// vertex another thread owns is skipped after the ownership check, which
// doubles as the bounds check that keeps a corrupt vertex id from
// panicking the scan.
func (r *queryState) applyRec(st *applyStaging, src, t, T int, v, tpar graph.Vertex, nd graph.Dist, activate bool, census *BucketStats) error {
	par, zw := untagParent(tpar)
	li := r.local(v)
	if uint(li) >= uint(r.nLocal) {
		return r.corruptErr(src, "relax", fmt.Errorf("vertex %d is not owned by this rank", v))
	}
	if T > 1 && li%T != t {
		return nil
	}
	k := r.curK
	if census != nil {
		switch b := r.bucketOf[li]; {
		case b == k:
			census.SelfEdges++
		case b < k:
			census.BackwardEdges++
		default:
			census.ForwardEdges++
		}
	}
	if nd >= r.dist[li] {
		// Positive-weight equal-distance offers still compete for the
		// parent slot (canonical min-id election); they never move the
		// vertex.
		if nd == r.dist[li] && nd < graph.Inf && !zw && par < r.parent[li] && v != r.src {
			r.parent[li] = par
		}
		return nil
	}
	r.dist[li] = nd
	r.parent[li] = par
	if r.hybridMode {
		if r.mark[li] != r.stamp {
			r.mark[li] = r.stamp
			st.active = append(st.active, uint32(li))
		}
		return nil
	}
	// Policy bookkeeping: how an improved vertex re-enters the frontier.
	// Δ-stepping re-files by bucket and activates current-bucket
	// landings; Radius activates anything under the epoch threshold (no
	// store); ρ re-files by quantized key under the async mode's
	// re-entrant pending discipline. The pending flags are thread-owned
	// like dist and bucketOf.
	switch r.opts.Policy {
	case PolicyRadius:
		if activate && nd <= r.phBound && r.mark[li] != r.stamp {
			r.mark[li] = r.stamp
			st.active = append(st.active, uint32(li))
		}
	case PolicyRho:
		nb := r.step.key(nd)
		moved := nb != r.bucketOf[li]
		r.bucketOf[li] = nb
		if !r.pending[li] {
			r.pending[li] = true
			st.adds = append(st.adds, bucketAdd{nb, uint32(li)})
		} else if moved {
			st.adds = append(st.adds, bucketAdd{nb, uint32(li)})
		}
	default:
		nb := nd / r.dd
		if nb != r.bucketOf[li] {
			r.bucketOf[li] = nb
			st.adds = append(st.adds, bucketAdd{nb, uint32(li)})
		}
		if activate && nb == k && r.mark[li] != r.stamp {
			r.mark[li] = r.stamp
			st.active = append(st.active, uint32(li))
		}
	}
	return nil
}

// corruptErr builds the query-failing error for a damaged exchange
// payload from rank src.
func (r *queryState) corruptErr(src int, kind string, cause error) error {
	return fmt.Errorf("sssp: rank %d: corrupt %s payload from rank %d: %w", r.rank, kind, src, cause)
}

// ---- main loop ---------------------------------------------------------

// run executes the full query on this rank and leaves per-rank results in
// r.dist / r.stats.
func (r *queryState) run() error {
	if r.opts.ExecMode == ExecAsync {
		return r.runAsync()
	}
	switch r.opts.Policy {
	case PolicyRadius:
		return r.runRadius()
	case PolicyRho:
		return r.runRho()
	}
	totalStart := now()
	localMin := int64(infBucket)
	if r.pd.Owner(r.src) == r.rank {
		li := uint32(r.local(r.src))
		r.dist[li] = 0
		r.parent[li] = r.src
		r.bucketOf[li] = 0
		r.store.add(0, li)
		localMin = 0
	}
	r.reduceVal[0] = localMin
	kv, err := r.allreduce(r.reduceVal[:1], comm.Min, true)
	if err != nil {
		return err
	}
	k := kv[0]
	n := int64(r.g.NumVertices())

	r.tracef("sssp: start source=%d ranks=%d delta=%d", r.src, r.size, r.opts.Delta)
	for k < infBucket {
		if r.opts.MaxEpochs > 0 && int(r.stats.Epochs) >= r.opts.MaxEpochs {
			return fmt.Errorf("sssp: exceeded MaxEpochs=%d at bucket %d", r.opts.MaxEpochs, k)
		}
		r.curK = k
		if err := r.processEpoch(k); err != nil {
			return err
		}
		r.stats.Epochs++
		r.epochSeq++

		// Account settled vertices (bucket k's final members) and drop the
		// bucket.
		bktStart := now()
		settledLocal := r.store.countValid(k, r.bucketOf)
		r.store.drop(k)
		r.charge(bktStart, true)
		r.reduceVal[0] = settledLocal
		sv, err := r.allreduce(r.reduceVal[:1], comm.Sum, true)
		if err != nil {
			return err
		}
		r.settledTotal += sv[0]
		if len(r.stats.Buckets) > 0 {
			bs := &r.stats.Buckets[len(r.stats.Buckets)-1]
			bs.Settled = r.settledTotal
			r.tracef("epoch bucket=%d mode=%s shortPhases=%d settled=%d",
				bs.Index, bs.Mode, bs.ShortPhases, bs.Settled)
		}

		if r.opts.Hybrid && float64(r.settledTotal) >= r.opts.tau()*float64(n) {
			r.stats.HybridSwitched = true
			r.tracef("hybrid switch after bucket %d: settled %d/%d", k, r.settledTotal, n)
			if err := r.runBellmanFord(k); err != nil {
				return err
			}
			break
		}

		bktStart = now()
		localNext := r.store.nextNonEmpty(k, r.bucketOf)
		r.charge(bktStart, true)
		r.reduceVal[0] = localNext
		nv, err := r.allreduce(r.reduceVal[:1], comm.Min, true)
		if err != nil {
			return err
		}
		k = nv[0]
	}

	r.finishStats(totalStart)
	r.tracef("done epochs=%d phases=%d bfPhases=%d reached=%d relax=%d",
		r.stats.Epochs, r.stats.Phases, r.stats.BFPhases, r.stats.Reached,
		r.stats.Relax.Total())
	return nil
}

// finishStats assembles this rank's Stats.
func (r *queryState) finishStats(totalStart time.Time) {
	r.stats.Relax = r.relaxTotals()
	r.stats.BktTime = r.bktTime
	r.stats.OtherTime = r.otherTime
	r.stats.Total = since(totalStart)
	for _, d := range r.dist {
		if d < graph.Inf {
			r.stats.Reached++
		}
	}
	r.stats.MaxRankRelax = r.stats.Relax.Total()
	r.stats.Traffic = r.t.Stats
}

// collectMembers returns the valid members of bucket k (charged to bucket
// overhead, per the paper's BktTime definition). The result aliases a
// rank-owned scratch slice, invalidated by the next collectMembers call;
// callers that keep it across epochs must copy.
func (r *queryState) collectMembers(k int64) []uint32 {
	start := now()
	defer r.charge(start, true)
	members := r.members[:0]
	for _, li := range r.store.list(k) {
		if r.bucketOf[li] == k {
			members = append(members, li)
		}
	}
	r.members = members
	return members
}

// processEpoch settles bucket k: short-edge phases to a fixpoint, then
// the long-edge phase.
func (r *queryState) processEpoch(k int64) error {
	bs := BucketStats{Index: k, Mode: ModePush}
	// Copy out of the shared scratch: r.active survives into the phase
	// loop's swap chain, and longPhase calls collectMembers again.
	r.active = append(r.active[:0], r.collectMembers(k)...)

	before := r.relaxTotals()
	for {
		r.reduceVal[0] = int64(len(r.active))
		av, err := r.allreduce(r.reduceVal[:1], comm.Sum, true)
		if err != nil {
			return err
		}
		if av[0] == 0 {
			break
		}
		r.stats.Phases++
		bs.ShortPhases++
		phaseStart := now()
		beforePhase := r.relaxTotals()
		nActive := len(r.active)
		if err := r.shortPhase(k); err != nil {
			return err
		}
		r.logPhase(k, PhaseShort, nActive, beforePhase, phaseStart)
		r.active, r.nextActive = r.nextActive, r.active[:0]
	}
	afterShort := r.relaxTotals()
	bs.ShortRelax = afterShort.Total() - before.Total()

	if r.opts.EdgeClassification && !r.step.unbounded() {
		if err := r.longPhase(k, &bs); err != nil {
			return err
		}
	}
	afterLong := r.relaxTotals()
	bs.LongRelax = afterLong.Total() - afterShort.Total()
	r.stats.Buckets = append(r.stats.Buckets, bs)
	return nil
}

// shortPhase relaxes the (inner) short edges of the active vertices and
// applies the resulting updates.
func (r *queryState) shortPhase(k int64) error {
	r.phBEnd = r.bucketEnd(k)
	if r.shortFn == nil {
		// Built once per engine; reads the phase bound from r.phBEnd so the
		// same closure serves every phase without a per-phase allocation.
		ios := r.opts.IOS
		r.shortFn = func(tid int, it workItem) {
			v := r.global(it.li)
			du := r.dist[it.li]
			nbr, ws := r.g.Neighbors(v)
			end := it.hi
			if se := r.shortEnd[it.li]; end > se {
				end = se
			}
			cnt := &r.tcnt[tid]
			for i := it.lo; i < end; i++ {
				nd := du + graph.Dist(ws[i])
				if ios && nd > r.phBEnd {
					cnt.Skipped++
					continue
				}
				cnt.ShortPush++
				r.stageRelax(tid, nbr[i], v, ws[i], nd)
			}
		}
	}
	items := r.buildItems(r.active)
	r.runWorkers(items, r.shortFn)
	in, err := r.exchangeRecords(relaxKind)
	if err != nil {
		return err
	}
	return r.applyRelaxIn(in, true, nil)
}
