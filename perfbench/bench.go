package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"runtime"
	"time"

	"parsssp/internal/comm/memtransport"
	"parsssp/internal/graph"
	"parsssp/internal/partition"
	"parsssp/internal/sssp"
	"parsssp/internal/validate"
)

// setupReps is the number of times one run builds the CSR and the
// machine; setup_s is the median of their CPU times.
const setupReps = 5

// batchesPerQuery: in the update workload every 8th operation is a
// query, after seven update batches.
const batchesPerQuery = 7

// bench is one run of one workload: the machine under test, the
// benchmark's own copy of the current graph version for the checks, and
// everything measured so far.
type bench struct {
	w     workload
	trace bool

	m        *sssp.Machine
	counters []*commCounters // per-rank transport counters (traced runs)
	g0       *graph.Graph    // version-0 graph the machine was built on
	cur      *graph.Graph    // current graph version, patched by the benchmark
	src      graph.Vertex    // source of the machine's standing tree
	edges    int64           // undirected edges of the version-0 graph

	attempted, failed int
	firstErr          error

	setupS, buildMs, machineMs []float64  // CPU time of each set-up
	queries, updates           []opSample // timed operations

	hashSeed maphash.Seed
	checked  map[graph.Vertex]uint64 // tree hashes that passed checkTree

	// layerQ and layerU sum the traced per-layer figures over the timed
	// queries and update batches; the run divides them by the counts.
	layerQ, layerU map[string]float64
}

func newBench(w workload, trace bool) *bench {
	return &bench{
		w: w, trace: trace,
		hashSeed: maphash.MakeSeed(),
		checked:  map[graph.Vertex]uint64{},
		layerQ:   map[string]float64{},
		layerU:   map[string]float64{},
	}
}

// opSample is one timed operation: its wall-clock, the CPU time the
// process spent on it, and its key — the index of its root in the round,
// or of its batch in the cycle — which is the same for every repeat of
// the same operation.
type opSample struct {
	key           int
	wallMs, cpuMs float64
}

// fail records a failed or wrong operation.
func (b *bench) fail(err error) {
	b.failed++
	if b.firstErr == nil {
		b.firstErr = err
	}
}

// setup builds the CSR and the machine setupReps times, timing the
// process CPU time of each, and keeps the last machine for the run. CPU
// time, unlike wall clock, leaves out the time the hypervisor steals.
func (b *bench) setup(n int, edges []graph.Edge) error {
	for i := 0; i < setupReps; i++ {
		if b.m != nil {
			if err := b.m.Close(); err != nil {
				return fmt.Errorf("close machine: %w", err)
			}
			b.m = nil
		}
		runtime.GC() // every build starts from the same heap
		c0 := processCPU()
		g, err := graph.FromEdges(n, edges, graph.BuildOptions{})
		if err != nil {
			return err
		}
		c1 := processCPU()
		m, counters, err := newMachine(g, b.w.opts(), b.trace)
		if err != nil {
			return err
		}
		c2 := processCPU()
		b.m, b.counters, b.g0, b.cur = m, counters, g, g
		b.setupS = append(b.setupS, (c2 - c0).Seconds())
		b.buildMs = append(b.buildMs, ms(c1-c0))
		b.machineMs = append(b.machineMs, ms(c2-c1))
	}
	return nil
}

// newMachine builds a numRanks-rank machine for g over memtransport
// endpoints. When traced, each endpoint is wrapped in a timedTransport
// and the per-rank counters are returned.
func newMachine(g *graph.Graph, opts sssp.Options, traced bool) (*sssp.Machine, []*commCounters, error) {
	pd, err := partition.New(partition.Block, g.NumVertices(), numRanks)
	if err != nil {
		return nil, nil, err
	}
	group, err := memtransport.New(numRanks)
	if err != nil {
		return nil, nil, err
	}
	eps := group.Endpoints()
	var counters []*commCounters
	if traced {
		if eps, counters, err = wrapTransports(eps); err != nil {
			return nil, nil, err
		}
	}
	m, err := sssp.NewMachineWithTransports(g, pd, opts, eps)
	return m, counters, err
}

func (b *bench) close() error {
	if b.m == nil {
		return nil
	}
	return b.m.Close()
}

// errPoisoned stops a run: a failed Query or ApplyUpdates leaves the
// machine's transports poisoned.
var errPoisoned = errors.New("machine failed; run stopped")

// query runs one Query from src and records it under key when timed. The tree is
// checked outside the timed region: with checkTree, and with
// validate.Distances against Dijkstra when dijkstra is set.
func (b *bench) query(src graph.Vertex, key int, timed, dijkstra bool) error {
	var before commSnapshot
	if b.trace {
		before = snapshotAll(b.counters)
	}
	c0 := processCPU()
	t0 := time.Now()
	res, err := b.m.Query(src)
	wall := time.Since(t0)
	cpu := processCPU() - c0
	b.attempted++
	if err != nil {
		b.fail(fmt.Errorf("query %d: %w", src, err))
		return errPoisoned
	}
	b.src = src
	if timed {
		b.queries = append(b.queries, opSample{key, ms(wall), ms(cpu)})
		if b.trace {
			b.recordQueryLayers(&res.Stats, snapshotAll(b.counters).sub(before), wall)
		}
	}
	if err := b.checkTree(src, res); err != nil {
		b.fail(fmt.Errorf("query %d: %w", src, err))
		return nil
	}
	if dijkstra {
		if err := validate.Distances(b.cur, src, res.Dist); err != nil {
			b.fail(fmt.Errorf("query %d: %w", src, err))
		}
	}
	return nil
}

// checkTree validates a tree for src on the current graph version with
// validate.CheckTree. A tree bit-identical to one that already passed
// for the same source and version passes without a second walk: the
// certificate costs ~0.7 s on the road grid, three times the query.
func (b *bench) checkTree(src graph.Vertex, res *sssp.Result) error {
	h := treeHash(b.hashSeed, res)
	if prev, ok := b.checked[src]; ok && prev == h {
		return nil
	}
	if err := validate.CheckTree(b.cur, src, res.Dist, res.Parent); err != nil {
		return err
	}
	b.checked[src] = h
	return nil
}

// treeHash fingerprints a result's distances and parents.
func treeHash(seed maphash.Seed, res *sssp.Result) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	buf := make([]byte, 0, 12*1024)
	for i := range res.Dist {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(res.Dist[i]))
		buf = binary.LittleEndian.AppendUint32(buf, res.Parent[i])
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return h.Sum64()
}

// recordQueryLayers adds one traced query's per-layer figures: the
// engine's own counts from st and the wrapper's waits d. Counts of
// records, bytes and messages are machine-wide; call counts and waits
// are per rank (the mean over ranks, since every rank enters the
// collectives).
func (b *bench) recordQueryLayers(st *sssp.Stats, d commSnapshot, wall time.Duration) {
	perRank := 1 / float64(numRanks)
	l := b.layerQ
	l["comm.records_sent"] += float64(st.Traffic.RecordsSent)
	l["comm.bytes_sent"] += float64(st.Traffic.BytesSent)
	l["comm.messages_sent"] += float64(st.Traffic.MessagesSent)
	l["comm.exchange_calls"] += float64(st.Traffic.ExchangeCalls) * perRank
	l["comm.exchange_wait_ms"] += nsToMs(d[exchangeNs]) * perRank
	l["comm.allreduce_calls"] += float64(st.Traffic.AllreduceCalls) * perRank
	l["comm.allreduce_wait_ms"] += nsToMs(d[allreduceNs]) * perRank
	l["comm.recvbatch_wait_ms"] += nsToMs(d[recvBatchNs]) * perRank
	l["sssp.relaxations"] += float64(st.Relax.Total())
	l["sssp.skipped"] += float64(st.Relax.Skipped)
	l["sssp.phases"] += float64(st.Phases)
	l["sssp.epochs"] += float64(st.Epochs)
	l["sssp.bkt_ms"] += ms(st.BktTime)
	l["sssp.other_ms"] += ms(st.OtherTime)
	l["sssp.imbalance"] += st.Imbalance()
	l["sssp.async_rounds"] += float64(st.AsyncRounds)
	l["sssp.async_probes"] += float64(st.AsyncProbes)
	l["sssp.assemble_ms"] += ms(wall - st.Total)
}

// update applies one batch, recorded under key when timed: first to the benchmark's own graph copy with
// graph.Patched (timed as graph.patch_ms in traced runs), then to the
// machine with ApplyUpdates (the timed operation). The repaired tree is
// checked against the patched copy outside the timed region.
func (b *bench) update(batch sssp.UpdateBatch, key int, timed bool) error {
	dels, ins := splitBatch(batch)
	t0 := time.Now()
	next, err := b.cur.Patched(dels, ins)
	patch := time.Since(t0)
	if err != nil {
		return fmt.Errorf("patch benchmark copy: %w", err)
	}
	b.cur = next
	clear(b.checked) // checked trees belong to the previous version
	c0 := processCPU()
	t0 = time.Now()
	res, rs, err := b.m.ApplyUpdates(batch)
	wall := time.Since(t0)
	cpu := processCPU() - c0
	b.attempted++
	if err != nil {
		b.fail(fmt.Errorf("update batch: %w", err))
		return errPoisoned
	}
	if timed {
		b.updates = append(b.updates, opSample{key, ms(wall), ms(cpu)})
		if b.trace {
			l := b.layerU
			l["graph.patch_ms"] += ms(patch)
			l["sssp.repair_invalidated"] += float64(rs.Invalidated)
			l["sssp.repair_flood_rounds"] += float64(rs.FloodRounds)
			l["sssp.repair_relax_rounds"] += float64(rs.RelaxRounds)
		}
	}
	if res == nil {
		b.fail(errors.New("update batch: no repaired tree"))
		return nil
	}
	if err := validate.CheckTree(b.cur, b.src, res.Dist, res.Parent); err != nil {
		b.fail(fmt.Errorf("repaired tree from %d: %w", b.src, err))
	}
	return nil
}

// runQueries is the query workloads' closed loop. A warm-up round over
// the roots fills caches and checks every tree in full (the first root
// also against Dijkstra); timed rounds then repeat until the time is up.
func (b *bench) runQueries(roots []graph.Vertex, d time.Duration) error {
	for i, r := range roots {
		if err := b.query(r, i, false, i == 0); err != nil {
			return err
		}
	}
	for start := time.Now(); time.Since(start) < d; {
		for i, r := range roots {
			if err := b.query(r, i, true, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// runUpdates is the update workload's closed loop. One cycle is
// len(cycle) batches with a query from the next root after every
// batchesPerQuery batches; the cycle restores the graph and ends on
// a query from the last root, so every cycle starts from the same
// graph and standing tree and repeats exactly. The run warms up with a
// query from the last root (checked against Dijkstra), the cycle's first
// seven batch pairs and the same query again, then repeats timed cycles
// until the time is up.
func (b *bench) runUpdates(roots []graph.Vertex, cycle []sssp.UpdateBatch, d time.Duration) error {
	if len(cycle) != len(roots)*batchesPerQuery {
		return fmt.Errorf("perfbench: %d batches do not fit %d query groups", len(cycle), len(roots))
	}
	last := len(roots) - 1
	if err := b.query(roots[last], last, false, true); err != nil {
		return err
	}
	// apply runs batch j of the cycle. Before a forward batch (even j)
	// the graph is back to version 0, so the benchmark's copy restarts
	// from it: CheckTree on a copy patched through a whole cycle takes
	// ~7x longer than on a copy one or two batches from compact.
	apply := func(j int, timed bool) error {
		if j%2 == 0 {
			b.cur = b.g0
		}
		return b.update(cycle[j], j, timed)
	}
	for j := 0; j < 2*batchesPerQuery; j++ { // warm-up: 7 whole pairs
		if err := apply(j, false); err != nil {
			return err
		}
	}
	if err := b.query(roots[last], last, false, false); err != nil {
		return err
	}
	oneCycle := func(timed bool) error {
		for i, r := range roots {
			for j := i * batchesPerQuery; j < (i+1)*batchesPerQuery; j++ {
				if err := apply(j, timed); err != nil {
					return err
				}
			}
			if err := b.query(r, i, timed, false); err != nil {
				return err
			}
		}
		return nil
	}
	for start := time.Now(); time.Since(start) < d; {
		if err := oneCycle(true); err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }
