package main

import (
	"fmt"

	"parsssp/internal/graph"
	"parsssp/internal/rng"
	"parsssp/internal/sssp"
)

// updateCycle generates a seeded stream of edge-update batches against
// g that returns g to its original edge set after every full cycle. The
// stream is pairs × (forward, inverse): a forward batch deletes
// batchSize/2 live edges of g and inserts batchSize/2 absent pairs; its
// inverse, applied next, deletes those inserts and re-inserts the
// deleted edges with their original weights. Every forward batch is
// drawn against g itself, because the graph is back to g whenever one
// is applied, so a delete always hits a live edge and an insert always
// adds an absent one — the engine silently accepts a re-delete of a
// dead edge, which would turn the rest of a naive stream into no-ops.
func updateCycle(g *graph.Graph, pairs, batchSize int, maxW graph.Weight, seed uint64) ([]sssp.UpdateBatch, error) {
	n := g.NumVertices()
	edges := g.Edges()
	if n < 2 || len(edges) < batchSize {
		return nil, fmt.Errorf("perfbench: graph too small for %d-edge update batches", batchSize)
	}
	gen := rng.NewXoshiro256(seed)
	out := make([]sssp.UpdateBatch, 0, 2*pairs)
	for p := 0; p < pairs; p++ {
		named := make(map[uint64]bool, batchSize) // pairs this batch names
		var fwd, inv sssp.UpdateBatch
		for len(fwd) < batchSize/2 {
			e := edges[gen.IntN(len(edges))]
			if named[pairKey(e.U, e.V)] {
				continue
			}
			named[pairKey(e.U, e.V)] = true
			fwd = append(fwd, sssp.EdgeUpdate{Op: sssp.OpDelete, U: e.U, V: e.V})
			inv = append(inv, sssp.EdgeUpdate{Op: sssp.OpInsert, U: e.U, V: e.V, W: e.W})
		}
		for len(fwd) < batchSize {
			u, v := graph.Vertex(gen.IntN(n)), graph.Vertex(gen.IntN(n))
			if u == v || named[pairKey(u, v)] {
				continue
			}
			if _, live := g.EdgeWeight(u, v); live {
				continue
			}
			named[pairKey(u, v)] = true
			w := graph.Weight(1 + gen.IntN(int(maxW)))
			fwd = append(fwd, sssp.EdgeUpdate{Op: sssp.OpInsert, U: u, V: v, W: w})
			inv = append(inv, sssp.EdgeUpdate{Op: sssp.OpDelete, U: u, V: v})
		}
		out = append(out, fwd, inv)
	}
	return out, nil
}

// pairKey canonicalises an unordered vertex pair.
func pairKey(u, v graph.Vertex) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// splitBatch returns a batch's deletes and inserts in the form
// graph.Patched takes.
func splitBatch(b sssp.UpdateBatch) (deletes, inserts []graph.Edge) {
	for _, u := range b {
		e := graph.Edge{U: u.U, V: u.V, W: u.W}
		if u.Op == sssp.OpDelete {
			deletes = append(deletes, e)
		} else {
			inserts = append(inserts, e)
		}
	}
	return deletes, inserts
}
