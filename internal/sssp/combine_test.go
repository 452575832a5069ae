package sssp

import (
	"reflect"
	"testing"

	"parsssp/internal/graph"
)

// Tests for sender-side combining (combineRelax): a combined batch must
// leave a receiver in exactly the (dist, parent) state the full batch
// would, from any starting state, under the receiver's own rule
// (applyRec).

// combineProbe is a one-rank receiver over n vertices, in hybrid mode so
// applying a record touches only dist, parent and the activation marks.
func combineProbe(n int, src graph.Vertex) *queryState {
	return &queryState{
		rankGraph:  &rankGraph{pd: blockDist(n, 1), opts: &Options{}, size: 1, nLocal: n},
		src:        src,
		dist:       newDistArray(n),
		parent:     newParentArray(n),
		mark:       make([]int64, n),
		hybridMode: true,
	}
}

// applyFrom applies recs in order to the start state and returns the
// resulting dist and parent arrays. A source on this rank starts at
// distance 0 as its own parent, the only state the engine gives it: no
// offer can improve it, so the election's source guard never meets a
// strict improvement.
func applyFrom(t *testing.T, r *queryState, startDist []graph.Dist, startParent []graph.Vertex, recs []relaxRec) ([]graph.Dist, []graph.Vertex) {
	t.Helper()
	copy(r.dist, startDist)
	copy(r.parent, startParent)
	if int(r.src) < r.nLocal { // one rank: local index = vertex id
		r.dist[r.src], r.parent[r.src] = 0, r.src
	}
	var st applyStaging
	for _, rec := range recs {
		if err := r.applyRec(&st, 0, 0, 1, rec.v, rec.parent, rec.dist, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	return append([]graph.Dist(nil), r.dist...), append([]graph.Vertex(nil), r.parent...)
}

// checkCombine combines a copy of the sorted batch recs and checks the
// combined batch's shape and its equivalence at the receiver.
func checkCombine(t *testing.T, r *queryState, startDist []graph.Dist, startParent []graph.Vertex, recs []relaxRec) []relaxRec {
	t.Helper()
	combined := combineRelax(append([]relaxRec(nil), recs...))
	if len(combined) > len(recs) {
		t.Fatalf("combined batch has %d records, input %d", len(combined), len(recs))
	}
	perVertex := map[graph.Vertex]int{}
	for i, rec := range combined {
		if i > 0 && combined[i-1].v > rec.v {
			t.Fatalf("combined batch not sorted at %d: %v", i, combined)
		}
		if perVertex[rec.v]++; perVertex[rec.v] > 2 {
			t.Fatalf("vertex %d keeps %d records: %v", rec.v, perVertex[rec.v], combined)
		}
	}
	wantD, wantP := applyFrom(t, r, startDist, startParent, recs)
	gotD, gotP := applyFrom(t, r, startDist, startParent, combined)
	if !reflect.DeepEqual(gotD, wantD) || !reflect.DeepEqual(gotP, wantP) {
		t.Fatalf("combined batch diverges at the receiver\nbatch    %v\ncombined %v\nstart    %v %v\nfull     %v %v\ngot      %v %v",
			recs, combined, startDist, startParent, wantD, wantP, gotD, gotP)
	}
	return combined
}

// offer builds a relax record for v at distance d from parent p; zw
// tags a zero-weight offer.
func offer(v graph.Vertex, d graph.Dist, p graph.Vertex, zw bool) relaxRec {
	var w graph.Weight = 1
	if zw {
		w = 0
	}
	return relaxRec{v: v, parent: tagParent(p, w), dist: d}
}

func TestCombineRelaxZeroWeightFirst(t *testing.T) {
	inf := graph.Inf
	cases := []struct {
		name      string
		recs, out []relaxRec
	}{
		{"zero-weight first, smaller positive later",
			[]relaxRec{offer(0, 5, 3, true), offer(0, 5, 7, false), offer(0, 5, 2, false), offer(0, 6, 1, false)},
			[]relaxRec{offer(0, 5, 3, true), offer(0, 5, 2, false)}},
		{"zero-weight first, smaller than every positive",
			[]relaxRec{offer(0, 7, 4, false), offer(0, 5, 1, true), offer(0, 5, 4, false)},
			[]relaxRec{offer(0, 5, 1, true), offer(0, 5, 4, false)}},
		{"zero-weight first, no positive at d*",
			[]relaxRec{offer(0, 5, 3, true), offer(0, 5, 1, true), offer(0, 7, 0, false)},
			[]relaxRec{offer(0, 5, 3, true)}},
		{"positive first, zero-weight later",
			[]relaxRec{offer(0, 5, 4, false), offer(0, 5, 1, true), offer(0, 5, 2, false)},
			[]relaxRec{offer(0, 5, 2, false)}},
		{"unreached offers",
			[]relaxRec{offer(0, inf, 4, true), offer(0, inf, 2, false), offer(1, 3, 0, true)},
			[]relaxRec{offer(0, inf, 4, true), offer(0, inf, 2, false), offer(1, 3, 0, true)}},
	}
	starts := []struct {
		d graph.Dist
		p graph.Vertex
	}{{inf, NoParent}, {5, 4}, {5, 1}, {5, 6}, {4, 9}, {7, 0}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, src := range []graph.Vertex{0, 1, 2} {
				r := combineProbe(2, src)
				for _, s := range starts {
					got := checkCombine(t, r, []graph.Dist{s.d, s.d}, []graph.Vertex{s.p, s.p}, tc.recs)
					if !reflect.DeepEqual(got, tc.out) {
						t.Fatalf("combined %v, want %v", got, tc.out)
					}
				}
			}
		})
	}
}

// FuzzCombineRelax draws, from the fuzz input, a receiver start state
// over a few vertices and a stably sorted batch dense in repeated
// vertices, equal distances, zero-weight tags and unreached offers, and
// checks combineRelax against the full batch at the receiver.
func FuzzCombineRelax(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{5, 5, 5, 5, 9, 9, 9, 9, 0, 0x13, 0x02, 0, 0x13, 0x05, 0, 0x13, 0x04, 0, 0x14, 0x01})
	f.Add([]byte{1, 2, 3, 4, 0, 1, 2, 3, 4, 8, 16, 1, 9, 17, 2, 10, 18, 3, 11, 19, 0, 12, 20, 1, 13, 21})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 4
		dist := func(b byte) graph.Dist {
			if b%6 == 5 {
				return graph.Inf
			}
			return graph.Dist(b % 6)
		}
		if len(data) < 2*n+1 {
			return
		}
		startDist := make([]graph.Dist, n)
		startParent := make([]graph.Vertex, n)
		for i := 0; i < n; i++ {
			startDist[i] = dist(data[i])
			if startParent[i] = graph.Vertex(data[n+i] % 9); startParent[i] == 8 {
				startParent[i] = NoParent
			}
		}
		src := graph.Vertex(data[2*n] % (n + 1)) // n: the source lives elsewhere
		var recs []relaxRec
		for b := data[2*n+1:]; len(b) >= 3; b = b[3:] {
			recs = append(recs, relaxRec{
				v:      graph.Vertex(b[0] % n),
				parent: graph.Vertex(b[2] % 16),
				dist:   dist(b[1]),
			})
		}
		var sorter relaxSorter
		sortRelaxBatch(&sorter, recs)
		checkCombine(t, combineProbe(n, src), startDist, startParent, recs)
	})
}
