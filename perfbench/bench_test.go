package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"parsssp/internal/comm"
	"parsssp/internal/comm/memtransport"
	"parsssp/internal/graph"
	"parsssp/internal/rmat"
	"parsssp/internal/sssp"
)

// TestTracedMatchesUntraced runs the same roots on an untraced and a
// traced machine and requires identical trees and identical engine
// counts: the timing wrapper must not change the path the engine takes.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, name := range []string{"rmat-bsp", "road-bsp", "rmat-async"} {
		t.Run(name, func(t *testing.T) {
			w, err := findWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			n, edges, _, err := w.input(1)
			if err != nil {
				t.Fatal(err)
			}
			g, err := graph.FromEdges(n, edges, graph.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			plain, _, err := newMachine(g, w.opts(), false)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			traced, counters, err := newMachine(g, w.opts(), true)
			if err != nil {
				t.Fatal(err)
			}
			defer traced.Close()
			roots, err := distinctRoots(g, 2, rootSalt)
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range roots {
				a, err := plain.Query(src)
				if err != nil {
					t.Fatal(err)
				}
				before := snapshotAll(counters)
				b, err := traced.Query(src)
				if err != nil {
					t.Fatal(err)
				}
				d := snapshotAll(counters).sub(before)
				if !reflect.DeepEqual(a.Dist, b.Dist) {
					t.Fatalf("root %d: traced distances differ from untraced", src)
				}
				if w.opts().ExecMode == sssp.ExecAsync {
					// Async counts, and parents across zero-weight
					// edges, depend on the schedule; the traced run
					// must still have used the batch path.
					if b.Stats.Traffic.ExchangeCalls != 0 || d[recvBatchNs] == 0 {
						t.Fatalf("root %d: traced async run made %d exchanges, waited %d ns in RecvBatch",
							src, b.Stats.Traffic.ExchangeCalls, d[recvBatchNs])
					}
					continue
				}
				if d[exchangeNs] == 0 || d[allreduceNs] == 0 {
					t.Errorf("root %d: wrapper timed no exchange (%d ns) or allreduce (%d ns)", src, d[exchangeNs], d[allreduceNs])
				}
				if !reflect.DeepEqual(a.Parent, b.Parent) {
					t.Fatalf("root %d: traced parents differ from untraced", src)
				}
				if x, y := a.Stats.Relax.Total(), b.Stats.Relax.Total(); x != y {
					t.Errorf("root %d: relaxations %d untraced, %d traced", src, x, y)
				}
				if x, y := a.Stats.Traffic.RecordsSent, b.Stats.Traffic.RecordsSent; x != y {
					t.Errorf("root %d: records sent %d untraced, %d traced", src, x, y)
				}
				if x, y := a.Stats.Traffic.BytesSent, b.Stats.Traffic.BytesSent; x != y {
					t.Errorf("root %d: bytes sent %d untraced, %d traced", src, x, y)
				}
				if a.Stats.Traffic != b.Stats.Traffic {
					t.Errorf("root %d: traffic %+v untraced, %+v traced", src, a.Stats.Traffic, b.Stats.Traffic)
				}
			}
		})
	}
}

// TestWrapperForwardsExtensions: the wrapper answers the async probe
// and carries Abort's cause for the endpoint it wraps, and refuses an
// endpoint without every extension.
func TestWrapperForwardsExtensions(t *testing.T) {
	group, err := memtransport.New(1)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, _, err := wrapTransports(group.Endpoints())
	if err != nil {
		t.Fatal(err)
	}
	if !comm.SupportsBatch(wrapped[0]) {
		t.Error("wrapper hides the endpoint's async batch support")
	}
	cause := errors.New("injected")
	comm.Abort(wrapped[0], cause)
	if err := wrapped[0].Barrier(); !errors.Is(err, comm.ErrAborted) || !errors.Is(err, cause) {
		t.Errorf("barrier after Abort: %v", err)
	}
	if _, _, err := wrapTransports([]comm.Transport{struct{ comm.Transport }{group.Rank(0)}}); err == nil {
		t.Error("wrapper accepted a transport without the comm extensions")
	}
}

// TestUpdateCycleRestoresEdges applies one full cycle with Graph.Patched:
// every delete must hit a live edge, every insert an absent pair, and
// the cycle must end on the original edge set.
func TestUpdateCycleRestoresEdges(t *testing.T) {
	g, err := rmat.Generate(rmat.Family1(10, 7))
	if err != nil {
		t.Fatal(err)
	}
	cycle, err := updateCycle(g, 6, updateBatchLen, rmat.MaxWeight, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cycle) != 12 {
		t.Fatalf("%d batches, want 12", len(cycle))
	}
	cur := g
	for i, batch := range cycle {
		if len(batch) != updateBatchLen {
			t.Fatalf("batch %d has %d updates", i, len(batch))
		}
		for _, u := range batch {
			_, live := cur.EdgeWeight(u.U, u.V)
			if u.Op == sssp.OpDelete && !live {
				t.Fatalf("batch %d deletes dead edge %d-%d", i, u.U, u.V)
			}
			if u.Op == sssp.OpInsert && live {
				t.Fatalf("batch %d inserts live edge %d-%d", i, u.U, u.V)
			}
		}
		dels, ins := splitBatch(batch)
		if cur, err = cur.Patched(dels, ins); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 && cur.NumEdges() != g.NumEdges() {
			// 8 deletes and 8 inserts keep the count.
			t.Fatalf("batch %d: %d edges, want %d", i, cur.NumEdges(), g.NumEdges())
		}
	}
	if !reflect.DeepEqual(sortedEdges(cur), sortedEdges(g)) {
		t.Fatal("one full cycle did not restore the original edge set")
	}
}

func sortedEdges(g *graph.Graph) []graph.Edge {
	e := g.Edges()
	sort.Slice(e, func(i, j int) bool {
		if e[i].U != e[j].U {
			return e[i].U < e[j].U
		}
		return e[i].V < e[j].V
	})
	return e
}

// TestCheckCatchesWrongTree: a tree that differs from one already
// checked is walked again and a wrong one fails.
func TestCheckCatchesWrongTree(t *testing.T) {
	w, _ := findWorkload("rmat-bsp")
	g, err := rmat.Generate(rmat.Family1(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := newMachine(g, w.opts(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	roots, err := distinctRoots(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Query(roots[0])
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(w, false)
	b.cur = g
	if err := b.checkTree(roots[0], res); err != nil {
		t.Fatal(err)
	}
	for v := range res.Dist {
		if graph.Vertex(v) != roots[0] && res.Dist[v] < graph.Inf {
			res.Dist[v]++
			break
		}
	}
	if err := b.checkTree(roots[0], res); err == nil {
		t.Fatal("a corrupted tree passed the check")
	}
}

// TestCountsRepeat: two traced runs of the update workload on one seed
// give identical per-layer counts, whatever number of cycles fits.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the update workload twice")
	}
	w, _ := findWorkload("rmat-updates")
	var first map[string]metric
	for i := 0; i < 2; i++ {
		b, host, err := measure(w, 5, time.Duration(i+1)*time.Second/2, true)
		if err != nil {
			t.Fatal(err)
		}
		if b.failed != 0 {
			t.Fatalf("%d failed: %v", b.failed, b.firstErr)
		}
		m := b.perLayerMetrics(host)
		if i == 0 {
			first = m
			continue
		}
		for _, k := range []string{"sssp.relaxations", "sssp.phases", "comm.records_sent",
			"comm.bytes_sent", "sssp.repair_invalidated", "sssp.repair_relax_rounds"} {
			if m[k] != first[k] {
				t.Errorf("%s: %v then %v", k, first[k].Value, m[k].Value)
			}
		}
		if m["sssp.repair_invalidated"].Value == 0 || m["sssp.relaxations"].Value == 0 {
			t.Error("update workload measured no repair or query work")
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	for _, c := range []struct {
		spec []struct{ Name, Unit string }
		prog []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.prog) {
			t.Errorf("%d metrics in BENCHMARK.json, %d in the program", len(c.spec), len(c.prog))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("metric %d: %s/%s in BENCHMARK.json, %s/%s in the program",
					i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}
