// Benchmarks, one per table/figure of the paper's evaluation (§IV).
// Each benchmark runs the workload its figure measures and reports the
// figure's metrics via b.ReportMetric (GTEPS, relaxations, phases,
// buckets) in addition to ns/op. The full sweep-and-print harness is
// cmd/bench; these benches regenerate individual data points under
// `go test -bench`.
package parsssp_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"parsssp"
	"parsssp/internal/bfs"
	"parsssp/internal/comm"
	"parsssp/internal/comm/memtransport"
	"parsssp/internal/expt"
	"parsssp/internal/gen"
	"parsssp/internal/graph"
	"parsssp/internal/partition"
	"parsssp/internal/rmat"
	"parsssp/internal/sssp"
	"parsssp/internal/validate"
)

// benchScale keeps individual benchmark iterations fast while exercising
// real R-MAT skew; cmd/bench runs the full weak-scaling sweeps.
const benchScale = 13

// benchRanks is the in-process machine size for benches.
const benchRanks = 4

var (
	graphCacheMu sync.Mutex
	graphCache   = map[string]*graph.Graph{}
)

// cachedGraph memoizes graph construction across benchmarks.
func cachedGraph(b *testing.B, key string, build func() (*graph.Graph, error)) *graph.Graph {
	b.Helper()
	graphCacheMu.Lock()
	defer graphCacheMu.Unlock()
	if g, ok := graphCache[key]; ok {
		return g
	}
	g, err := build()
	if err != nil {
		b.Fatal(err)
	}
	graphCache[key] = g
	return g
}

func rmatGraph(b *testing.B, family expt.Family, scale int) *graph.Graph {
	key := fmt.Sprintf("rmat%d-%d", family, scale)
	return cachedGraph(b, key, func() (*graph.Graph, error) {
		return rmat.Generate(family.Params(scale, 0xC0FFEE))
	})
}

// benchRoot returns a deterministic non-isolated source vertex (vertex
// ids are scrambled by the generator, so low ids are often isolated).
func benchRoot(g *graph.Graph) graph.Vertex {
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(graph.Vertex(v)) > 16 {
			return graph.Vertex(v)
		}
	}
	return 0
}

// benchRun executes one query per iteration and reports the figure
// metrics.
func benchRun(b *testing.B, g *graph.Graph, opts sssp.Options) {
	b.Helper()
	opts.Threads = 2
	root := benchRoot(g)
	var last *sssp.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sssp.Run(g, benchRanks, root, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if last != nil {
		b.ReportMetric(last.Stats.GTEPS(g.NumEdges()), "GTEPS")
		b.ReportMetric(float64(last.Stats.Relax.Total()), "relaxations")
		b.ReportMetric(float64(last.Stats.Phases), "phases")
		b.ReportMetric(float64(last.Stats.Epochs), "buckets")
	}
}

// --- Figure 1 (headline table) ---------------------------------------------

func BenchmarkTable1_RMAT1_LBOpt25(b *testing.B) {
	benchRun(b, rmatGraph(b, expt.RMAT1, benchScale), sssp.LBOptOptions(25))
}

func BenchmarkTable1_RMAT2_LBOpt40(b *testing.B) {
	benchRun(b, rmatGraph(b, expt.RMAT2, benchScale), sssp.LBOptOptions(40))
}

// --- Figure 3 (phases / relaxations per algorithm) --------------------------

func BenchmarkFig3_BellmanFord(b *testing.B) {
	benchRun(b, rmatGraph(b, expt.RMAT1, benchScale), sssp.BellmanFordOptions())
}

func BenchmarkFig3_Dijkstra(b *testing.B) {
	benchRun(b, rmatGraph(b, expt.RMAT1, benchScale), sssp.DijkstraOptions())
}

func BenchmarkFig3_Del25(b *testing.B) {
	benchRun(b, rmatGraph(b, expt.RMAT1, benchScale), sssp.DelOptions(25))
}

func BenchmarkFig3_Hybrid25(b *testing.B) {
	opts := sssp.DelOptions(25)
	opts.Hybrid = true
	benchRun(b, rmatGraph(b, expt.RMAT1, benchScale), opts)
}

func BenchmarkFig3_Prune25(b *testing.B) {
	benchRun(b, rmatGraph(b, expt.RMAT1, benchScale), sssp.PruneOptions(25))
}

// --- Figure 4 (long-phase dominance under Del-25) ----------------------------

func BenchmarkFig4_Del25PhaseCensus(b *testing.B) {
	g := rmatGraph(b, expt.RMAT1, benchScale)
	var short, long int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sssp.Run(g, benchRanks, benchRoot(g), sssp.DelOptions(25))
		if err != nil {
			b.Fatal(err)
		}
		short, long = 0, 0
		for _, bk := range res.Stats.Buckets {
			short += bk.ShortRelax
			long += bk.LongRelax
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(short), "short-relax")
	b.ReportMetric(float64(long), "long-relax")
}

// --- Figures 5/6 (push vs pull illustration) ---------------------------------

func BenchmarkFig6_CliquePull(b *testing.B) {
	g := cachedGraph(b, "clique", func() (*graph.Graph, error) {
		return gen.CliqueChain(64, 256, 10, 10, 10)
	})
	benchRun(b, g, sssp.PruneOptions(5))
}

// --- Figure 7 (per-bucket census) --------------------------------------------

func BenchmarkFig7_Census(b *testing.B) {
	opts := sssp.PruneOptions(25)
	opts.Census = true
	benchRun(b, rmatGraph(b, expt.RMAT1, benchScale), opts)
}

// --- Figure 8 (degree skew by family) ----------------------------------------

func BenchmarkFig8_MaxDegree(b *testing.B) {
	var max1, max2 int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g1, err := rmat.Generate(rmat.Family1(benchScale, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		g2, err := rmat.Generate(rmat.Family2(benchScale, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		max1, max2 = g1.MaxDegree(), g2.MaxDegree()
	}
	b.StopTimer()
	b.ReportMetric(float64(max1), "maxdeg-rmat1")
	b.ReportMetric(float64(max2), "maxdeg-rmat2")
}

// --- Figure 9 (Δ sweep of Δ-stepping) -----------------------------------------

func BenchmarkFig9_DeltaSweep(b *testing.B) {
	g := rmatGraph(b, expt.RMAT1, benchScale)
	for _, delta := range []graph.Weight{1, 10, 25, 50, 100} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			benchRun(b, g, sssp.DelOptions(delta))
		})
	}
	b.Run("delta=inf", func(b *testing.B) {
		benchRun(b, g, sssp.BellmanFordOptions())
	})
}

// --- Figure 10 (RMAT-1 analysis) -----------------------------------------------

func BenchmarkFig10_RMAT1(b *testing.B) {
	g := rmatGraph(b, expt.RMAT1, benchScale)
	lineup := []struct {
		name string
		opts sssp.Options
	}{
		{"Del25", sssp.DelOptions(25)},
		{"Prune25", sssp.PruneOptions(25)},
		{"Opt25", sssp.OptOptions(25)},
		{"Opt10", sssp.OptOptions(10)},
		{"Opt40", sssp.OptOptions(40)},
		{"LBOpt10", sssp.LBOptOptions(10)},
		{"LBOpt25", sssp.LBOptOptions(25)},
		{"LBOpt40", sssp.LBOptOptions(40)},
	}
	for _, entry := range lineup {
		b.Run(entry.name, func(b *testing.B) { benchRun(b, g, entry.opts) })
	}
}

// --- Figure 11 (RMAT-2 analysis) -------------------------------------------------

func BenchmarkFig11_RMAT2(b *testing.B) {
	g := rmatGraph(b, expt.RMAT2, benchScale)
	lineup := []struct {
		name string
		opts sssp.Options
	}{
		{"Del25", sssp.DelOptions(25)},
		{"Prune25", sssp.PruneOptions(25)},
		{"Opt25", sssp.OptOptions(25)},
		{"Opt10", sssp.OptOptions(10)},
		{"Opt40", sssp.OptOptions(40)},
	}
	for _, entry := range lineup {
		b.Run(entry.name, func(b *testing.B) { benchRun(b, g, entry.opts) })
	}
}

// --- Figure 12 (final algorithms, including vertex splitting) ---------------------

func BenchmarkFig12_RMAT1_TwoTierLB(b *testing.B) {
	g := rmatGraph(b, expt.RMAT1, benchScale)
	opts := sssp.LBOptOptions(25)
	opts.Threads = 2
	var last *sssp.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := partition.SplitHeavyVertices(g, partition.SplitOptions{
			DegreeThreshold: 256, MaxProxies: benchRanks,
		})
		if err != nil {
			b.Fatal(err)
		}
		pd := partition.MustNew(partition.Cyclic, sr.Graph.NumVertices(), benchRanks)
		res, err := sssp.RunDistributed(sr.Graph, pd, benchRoot(g), opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if last != nil {
		b.ReportMetric(last.Stats.GTEPS(g.NumEdges()), "GTEPS")
	}
}

func BenchmarkFig12_RMAT2_Opt40(b *testing.B) {
	benchRun(b, rmatGraph(b, expt.RMAT2, benchScale), sssp.OptOptions(40))
}

// --- §IV.G (push/pull decision heuristic validation) -------------------------------

func BenchmarkPushPull_Exhaustive(b *testing.B) {
	g := rmatGraph(b, expt.RMAT1, 10)
	opts := sssp.OptOptions(25)
	var optimal bool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := validate.ExhaustivePushPull(g, 2, benchRoot(g), opts, 12)
		if err != nil {
			b.Fatal(err)
		}
		optimal = rep.HeuristicIsOptimal
	}
	b.StopTimer()
	if optimal {
		b.ReportMetric(1, "heuristic-optimal")
	} else {
		b.ReportMetric(0, "heuristic-optimal")
	}
}

// --- §IV.H (real-world graphs) -------------------------------------------------------

func BenchmarkRealWorld(b *testing.B) {
	specs := []struct {
		name string
		p    gen.SocialParams
	}{
		{"Friendster", gen.SocialParams{N: 20000, AvgDegree: 29, Skew: 0.57, Seed: 1, NumHubSeed: 1000}},
		{"Orkut", gen.SocialParams{N: 10000, AvgDegree: 39, Skew: 0.55, Seed: 2, NumHubSeed: 600}},
		{"LiveJournal", gen.SocialParams{N: 16000, AvgDegree: 14, Skew: 0.55, Seed: 3, NumHubSeed: 500}},
	}
	for _, spec := range specs {
		g := cachedGraph(b, "social-"+spec.name, func() (*graph.Graph, error) {
			return gen.Social(spec.p)
		})
		b.Run(spec.name+"/Del40", func(b *testing.B) { benchRun(b, g, sssp.DelOptions(40)) })
		b.Run(spec.name+"/Opt40", func(b *testing.B) { benchRun(b, g, sssp.LBOptOptions(40)) })
	}
}

// --- public API sanity ---------------------------------------------------------------

func BenchmarkQuickstartAPI(b *testing.B) {
	g := cachedGraph(b, "api", func() (*graph.Graph, error) {
		return parsssp.GenerateRMAT1(12, 42)
	})
	opts := parsssp.OptOptions(25)
	b.ResetTimer()
	root := benchRoot(g)
	for i := 0; i < b.N; i++ {
		if _, err := parsssp.Run(g, benchRanks, root, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md design choices) -------------------------------------------

func BenchmarkAblation_IOS(b *testing.B) {
	g := rmatGraph(b, expt.RMAT1, benchScale)
	with := sssp.PruneOptions(25)
	without := sssp.PruneOptions(25)
	without.IOS = false
	b.Run("with-ios", func(b *testing.B) { benchRun(b, g, with) })
	b.Run("without-ios", func(b *testing.B) { benchRun(b, g, without) })
}

func BenchmarkAblation_Estimator(b *testing.B) {
	g := rmatGraph(b, expt.RMAT1, benchScale)
	for _, est := range []sssp.PullEstimator{
		sssp.EstimatorExact, sssp.EstimatorExpectation, sssp.EstimatorHistogram,
	} {
		opts := sssp.OptOptions(25)
		opts.Estimator = est
		b.Run(est.String(), func(b *testing.B) { benchRun(b, g, opts) })
	}
}

func BenchmarkAblation_Tau(b *testing.B) {
	g := rmatGraph(b, expt.RMAT1, benchScale)
	for _, tau := range []float64{0.2, 0.4, 0.8} {
		opts := sssp.OptOptions(25)
		opts.Tau = tau
		b.Run(fmt.Sprintf("tau=%.1f", tau), func(b *testing.B) { benchRun(b, g, opts) })
	}
}

func BenchmarkAblation_HeavyThreshold(b *testing.B) {
	g := rmatGraph(b, expt.RMAT1, benchScale)
	for _, pi := range []int{16, 64, 256} {
		opts := sssp.LBOptOptions(25)
		opts.HeavyThreshold = pi
		b.Run(fmt.Sprintf("pi=%d", pi), func(b *testing.B) { benchRun(b, g, opts) })
	}
}

// --- Substrate microbenchmarks --------------------------------------------------------

func BenchmarkRMATGeneration(b *testing.B) {
	p := rmat.Family1(benchScale, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rmat.Edges(p); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(p.NumEdges() * 12)
}

func BenchmarkCSRConstruction(b *testing.B) {
	p := rmat.Family1(benchScale, 1)
	edges, err := rmat.Edges(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.FromEdges(p.NumVertices(), edges, graph.BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialDijkstra(b *testing.B) {
	g := rmatGraph(b, expt.RMAT1, benchScale)
	root := benchRoot(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sssp.Dijkstra(g, root); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVertexSplitting(b *testing.B) {
	g := rmatGraph(b, expt.RMAT1, benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.SplitHeavyVertices(g, partition.SplitOptions{
			DegreeThreshold: 128, MaxProxies: 8,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 1 discussion (BFS vs SSSP on the same machine) ----------------------------

func BenchmarkBFSCompare(b *testing.B) {
	g := rmatGraph(b, expt.RMAT1, benchScale)
	root := benchRoot(g)
	b.Run("BFS", func(b *testing.B) {
		var last *bfs.Result
		for i := 0; i < b.N; i++ {
			res, err := bfs.Run(g, benchRanks, root, bfs.Options{})
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		if last != nil {
			b.ReportMetric(float64(last.EdgesInspected), "edges-inspected")
			b.ReportMetric(float64(last.Levels), "levels")
		}
	})
	b.Run("SSSP", func(b *testing.B) { benchRun(b, g, sssp.LBOptOptions(25)) })
}

func BenchmarkAblation_ParallelApply(b *testing.B) {
	g := rmatGraph(b, expt.RMAT1, benchScale)
	serial := sssp.LBOptOptions(25)
	par := serial
	par.ParallelApply = true
	b.Run("serial", func(b *testing.B) { benchRun(b, g, serial) })
	b.Run("parallel", func(b *testing.B) { benchRun(b, g, par) })
}

// --- Communication layer (wire codec + buffer pooling) ---------------------

// BenchmarkCommWire measures the steady-state cost of repeated queries on
// a warm Machine: the phase loop and the exchange path run entirely out
// of pooled buffers, so allocs/op is the pooling regression metric and
// the wire-byte metrics quantify the codec. make bench-json exports it as
// BENCH_comm.json.
func BenchmarkCommWire(b *testing.B) {
	g := rmatGraph(b, expt.RMAT1, benchScale)
	opts := sssp.OptOptions(25)
	opts.Threads = 2
	m, err := sssp.NewMachine(g, benchRanks, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	root := benchRoot(g)
	// One warm-up query grows every pool to its steady-state size.
	if _, err := m.Query(root); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var last *sssp.Result
	for i := 0; i < b.N; i++ {
		res, err := m.Query(root)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if last != nil {
		tr := last.Stats.Traffic
		b.ReportMetric(last.Stats.GTEPS(g.NumEdges()), "GTEPS")
		b.ReportMetric(float64(tr.BytesSent), "wire-bytes")
		if tr.RecordsSent > 0 {
			b.ReportMetric(float64(tr.BytesSent)/float64(tr.RecordsSent), "bytes/record")
		}
		if total := last.Stats.Relax.Total(); total > 0 {
			b.ReportMetric(float64(tr.BytesSent)/float64(total), "bytes/relax")
		}
	}
}

// --- Query serving (concurrent pools) --------------------------------------

// BenchmarkServeThroughput measures sustained query throughput of a warm
// QueryPool at serving concurrency 1, 2 and 4 — the pool analogue of the
// paper's per-query GTEPS numbers. The pool is warmed (one query per
// slot) before the timer starts, so the measurement excludes plane
// construction and slot allocation, exactly as a long-lived server
// amortizes them. The headline metric is queries/sec; speedup over the
// concurrency=1 line is the benefit of slot parallelism on this host
// (bounded by free cores — on a single-core runner the lines coincide).
// --- Dynamic updates (incremental repair vs rebuild) ------------------------

// updateBatchPair builds a forward batch (dels deletions of existing
// edges plus ins insertions of fresh edges) and its exact inverse.
// Alternating the two lets a benchmark update the same graph through
// b.N iterations in steady state: every delete always hits a live edge,
// and the graph only ever occupies two states.
func updateBatchPair(rng *rand.Rand, g *graph.Graph, dels, ins int) (fwd, rev sssp.UpdateBatch) {
	edges := g.Edges()
	picked := make(map[int]bool, dels)
	for len(picked) < dels {
		i := rng.Intn(len(edges))
		if picked[i] {
			continue
		}
		picked[i] = true
		e := edges[i]
		fwd = append(fwd, sssp.EdgeUpdate{Op: sssp.OpDelete, U: e.U, V: e.V})
		rev = append(rev, sssp.EdgeUpdate{Op: sssp.OpInsert, U: e.U, V: e.V, W: e.W})
	}
	n := g.NumVertices()
	for added := 0; added < ins; {
		u := graph.Vertex(rng.Intn(n))
		v := graph.Vertex(rng.Intn(n))
		if u == v {
			continue
		}
		// Only brand-new edges keep the pair invertible (inserting over
		// an existing edge min-merges; deleting removes both).
		if _, ok := g.EdgeWeight(u, v); ok {
			continue
		}
		fwd = append(fwd, sssp.EdgeUpdate{Op: sssp.OpInsert, U: u, V: v, W: graph.Weight(1 + rng.Intn(255))})
		rev = append(rev, sssp.EdgeUpdate{Op: sssp.OpDelete, U: u, V: v})
		added++
	}
	return fwd, rev
}

// BenchmarkIncrementalRepair measures the serving cost of one edge-update
// batch two ways on the scale-13 / 4-rank machine: "repair" applies the
// batch and incrementally repairs the standing tree in place
// (Machine.ApplyUpdates — the affected-subgraph path of dynamic.go),
// "rebuild" applies the batch and recomputes the tree from scratch (a
// one-slot pool's migrate path). Both sides pay the same copy-on-write
// plane rebuild; the difference is the incremental repair against the
// full run. make bench-dynamic-json archives the numbers as
// BENCH_dynamic.json; see EXPERIMENTS.md "Dynamic updates".
func BenchmarkIncrementalRepair(b *testing.B) {
	g := rmatGraph(b, expt.RMAT1, benchScale)
	opts := sssp.OptOptions(25)
	opts.Threads = 2
	roots, err := sssp.PickRoots(g, 2, 0xC0FFEE)
	if err != nil {
		b.Fatal(err)
	}
	// Several independent pairs per batch size, cycled fwd,rev,fwd,rev…
	// so the measurement averages over batch placements: one batch that
	// happens to delete a tree edge near the root orphans (and repairs) a
	// large subtree, most batches touch almost nothing.
	const numPairs = 8
	pick := func(pairs [][2]sssp.UpdateBatch, i int) sssp.UpdateBatch {
		return pairs[(i/2)%len(pairs)][i%2]
	}
	for _, size := range []int{4, 32, 256} {
		pairs := make([][2]sssp.UpdateBatch, numPairs)
		for k := range pairs {
			rng := rand.New(rand.NewSource(int64(0xD15C0<<8 | size<<4 | k)))
			pairs[k][0], pairs[k][1] = updateBatchPair(rng, g, size/2, size-size/2)
		}
		b.Run(fmt.Sprintf("repair/batch=%d", size), func(b *testing.B) {
			m, err := sssp.NewMachine(g, benchRanks, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			if _, err := m.Query(roots[0]); err != nil {
				b.Fatal(err)
			}
			var invalidated int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, rs, err := m.ApplyUpdates(pick(pairs, i))
				if err != nil {
					b.Fatal(err)
				}
				if res == nil || rs == nil {
					b.Fatal("no repair ran")
				}
				invalidated += rs.Invalidated
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/sec")
			b.ReportMetric(float64(invalidated)/float64(b.N), "invalidated/op")
		})
		b.Run(fmt.Sprintf("rebuild/batch=%d", size), func(b *testing.B) {
			pool, err := sssp.NewQueryPool(g, benchRanks, 1, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer pool.Close()
			// Warm the slot on the root the first iteration will NOT ask
			// for: alternating two roots keeps the slot's standing tree
			// from ever matching the requested source, so every iteration
			// pays apply + plane migration + a full from-scratch run.
			if _, err := pool.Query(roots[1]); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pool.ApplyUpdates(pick(pairs, i)); err != nil {
					b.Fatal(err)
				}
				if _, err := pool.Query(roots[i%2]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/sec")
		})
	}
}

// --- Asynchronous execution (barrier-free relaxation vs BSP) ----------------

// benchExecMode measures repeated queries on a warm Machine whose
// transports are wrapped in comm.Latent, so every collective charges the
// emulated network latency and every async batch becomes visible to its
// receiver one delay after it is sent. This is where the asynchronous
// mode earns its keep: BSP pays the latency once per phase (hundreds of
// phases per query), async pays it only on termination probes and on the
// critical path of the relax wavefront. make bench-async-json archives
// the numbers as BENCH_async.json; see EXPERIMENTS.md "Asynchronous
// execution".
func benchExecMode(b *testing.B, mode sssp.ExecMode, delay time.Duration) {
	g := rmatGraph(b, expt.RMAT1, benchScale)
	opts := sssp.OptOptions(25)
	opts.Threads = 2
	opts.ExecMode = mode
	group, err := memtransport.New(benchRanks)
	if err != nil {
		b.Fatal(err)
	}
	transports := group.Endpoints()
	for i := range transports {
		transports[i] = comm.NewLatent(transports[i], delay)
	}
	pd := partition.MustNew(partition.Block, g.NumVertices(), benchRanks)
	m, err := sssp.NewMachineWithTransports(g, pd, opts, transports)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	root := benchRoot(g)
	if _, err := m.Query(root); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last *sssp.Result
	for i := 0; i < b.N; i++ {
		res, err := m.Query(root)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if last != nil {
		b.ReportMetric(last.Stats.GTEPS(g.NumEdges()), "GTEPS")
		b.ReportMetric(float64(last.Stats.Relax.Total()), "relaxations")
		if mode == sssp.ExecAsync {
			b.ReportMetric(float64(last.Stats.AsyncRounds), "async-rounds")
			b.ReportMetric(float64(last.Stats.AsyncProbes), "probes")
		} else {
			b.ReportMetric(float64(last.Stats.Phases), "phases")
		}
	}
}

// BenchmarkAsyncVsBSP is the headline comparison: both execution modes
// on the same 4-rank machine, without latency (BSP's home turf — phases
// are nearly free in-process) and with the paper-realistic 100µs one-way
// latency where barrier-free execution pulls ahead.
func BenchmarkAsyncVsBSP(b *testing.B) {
	for _, lat := range []time.Duration{0, 100 * time.Microsecond} {
		for _, mode := range []sssp.ExecMode{sssp.ExecBSP, sssp.ExecAsync} {
			b.Run(fmt.Sprintf("latency=%v/%v", lat, mode), func(b *testing.B) {
				benchExecMode(b, mode, lat)
			})
		}
	}
}

func BenchmarkServeThroughput(b *testing.B) {
	g := rmatGraph(b, expt.RMAT1, benchScale)
	roots, err := sssp.PickRoots(g, 16, 0xC0FFEE)
	if err != nil {
		b.Fatal(err)
	}
	opts := sssp.LBOptOptions(25)
	opts.Threads = 2
	for _, conc := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("concurrency=%d", conc), func(b *testing.B) {
			pool, err := sssp.NewQueryPool(g, benchRanks, conc, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer pool.Close()
			// Warm every slot: first queries page in slot buffers and
			// start worker pools.
			var wg sync.WaitGroup
			warmErrs := make([]error, conc)
			for s := 0; s < conc; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					_, warmErrs[s] = pool.Query(roots[s%len(roots)])
				}(s)
			}
			wg.Wait()
			for _, err := range warmErrs {
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			queries := make(chan graph.Vertex)
			benchErrs := make([]error, conc)
			for w := 0; w < conc; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for src := range queries {
						if _, err := pool.Query(src); err != nil {
							benchErrs[w] = err
							return
						}
					}
				}(w)
			}
			for i := 0; i < b.N; i++ {
				queries <- roots[i%len(roots)]
			}
			close(queries)
			wg.Wait()
			b.StopTimer()
			for _, err := range benchErrs {
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}
