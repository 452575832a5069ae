package main

import (
	"fmt"

	"parsssp/internal/gen"
	"parsssp/internal/graph"
	"parsssp/internal/rmat"
	"parsssp/internal/sssp"
)

// Machine shape of every workload: two ranks of one thread each, one
// rank per core of the two-core host the benchmark was sized on.
const (
	numRanks       = 2
	threadsPerRank = 1
)

// rmatScale gives 32,768 vertices and ~442k undirected edges after
// min-weight dedup.
const rmatScale = 15

// Road workload: a 512×512 grid with weights 1..16.
const (
	gridSide       = 512
	gridMinW       = 1
	gridMaxW       = 16
	updateBatchLen = 16 // 8 deletes of live edges + 8 inserts of absent pairs
)

// workload is one set of generated inputs and the operation mix run
// over them. The program under test only ever sees the generated edge
// list, roots and update batches; the seed stays in the benchmark.
type workload struct {
	name string
	// input generates the edge list from the seed.
	input func(seed uint64) (n int, edges []graph.Edge, maxW graph.Weight, err error)
	opts  func() sssp.Options
	// roots is the number of distinct query roots in one round (query
	// workloads) or one cycle (the update workload). Each round repeats
	// the same roots, so per-query counts averaged over whole rounds
	// repeat exactly.
	roots int
	// updatePairs > 0 makes this the update workload: each cycle streams
	// updatePairs forward/inverse batch pairs, with every 8th operation
	// a query from the cycle's next root.
	updatePairs int
}

func rmatInput(seed uint64) (int, []graph.Edge, graph.Weight, error) {
	p := rmat.Family1(rmatScale, seed)
	edges, err := rmat.Edges(p)
	return p.NumVertices(), edges, rmat.MaxWeight, err
}

func gridInput(seed uint64) (int, []graph.Edge, graph.Weight, error) {
	g, err := gen.Grid(gridSide, gridSide, gridMinW, gridMaxW, seed)
	if err != nil {
		return 0, nil, 0, err
	}
	return g.NumVertices(), g.Edges(), gridMaxW, nil
}

func withThreads(o sssp.Options) sssp.Options {
	o.Threads = threadsPerRank
	return o
}

// workloads lists the benchmark's workloads; BENCHMARK.json names the
// same set and gives the reason for each.
var workloads = []workload{
	{
		name:  "rmat-bsp",
		input: rmatInput,
		opts:  func() sssp.Options { return withThreads(sssp.OptOptions(25)) },
		roots: 32,
	},
	{
		name:  "road-bsp",
		input: gridInput,
		opts:  func() sssp.Options { return withThreads(sssp.DelOptions(25)) },
		roots: 10,
	},
	{
		name:        "rmat-updates",
		input:       rmatInput,
		opts:        func() sssp.Options { return withThreads(sssp.OptOptions(25)) },
		roots:       32,
		updatePairs: 112, // 224 batches + 32 queries = 256 operations per cycle
	},
	{
		name:  "rmat-async",
		input: rmatInput,
		opts: func() sssp.Options {
			o := withThreads(sssp.OptOptions(25))
			o.ExecMode = sssp.ExecAsync
			return o
		},
		roots: 32,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// distinctRoots returns k distinct non-isolated roots drawn by
// sssp.PickRoots from the seed.
func distinctRoots(g *graph.Graph, k int, seed uint64) ([]graph.Vertex, error) {
	cand, err := sssp.PickRoots(g, 8*k, seed)
	if err != nil {
		return nil, err
	}
	seen := make(map[graph.Vertex]bool, k)
	roots := make([]graph.Vertex, 0, k)
	for _, v := range cand {
		if !seen[v] && len(roots) < k {
			seen[v] = true
			roots = append(roots, v)
		}
	}
	if len(roots) < k {
		return nil, fmt.Errorf("perfbench: only %d distinct roots, want %d", len(roots), k)
	}
	return roots, nil
}
