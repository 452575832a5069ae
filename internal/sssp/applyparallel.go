package sssp

import (
	"fmt"
	"sync"

	"parsssp/internal/graph"
)

// This file implements the ownership-partitioned parallel apply path of
// applyRelaxIn; see the comment there for the model.

// parallelApplyThreshold is the record count below which the serial
// apply path beats spawning workers. A variable so tests can force the
// parallel path on small inputs.
var parallelApplyThreshold = 2048

// bucketAdd is a staged bucket-store insertion.
type bucketAdd struct {
	bucket int64
	li     uint32
}

// applyStaging is one thread's private output of a parallel apply pass.
type applyStaging struct {
	adds   []bucketAdd
	active []uint32
	err    error // damaged input seen by this thread
}

// applyRelaxParallel applies records on T threads: thread t processes
// exactly the records whose target satisfies li mod T == t, so dist,
// parent, bucketOf and mark writes are disjoint across threads. The
// shared structures (bucket store, nextActive) receive per-thread
// staging merged by a short serial pass. Damaged input (an unowned
// vertex, a malformed buffer) is recorded per thread and surfaced after
// the join; the ownership check doubles as the bounds check that keeps a
// corrupt vertex id from panicking the scan.
func (r *queryState) applyRelaxParallel(in [][]byte, activate bool, T int) error {
	if len(r.applyStage) < T {
		r.applyStage = make([]applyStaging, T)
	}
	stage := r.applyStage[:T]
	for t := range stage {
		stage[t].adds = stage[t].adds[:0]
		stage[t].active = stage[t].active[:0]
		stage[t].err = nil
	}
	var wg sync.WaitGroup
	for t := 0; t < T; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			st := &stage[t]
			k := r.curK
			for src, buf := range in {
				rd := newRelaxReader(buf)
				for {
					v, tpar, nd, ok := rd.next()
					if !ok {
						break
					}
					par, zw := untagParent(tpar)
					li := r.local(v)
					if uint(li) >= uint(r.nLocal) {
						st.err = r.corruptErr(src, "relax",
							fmt.Errorf("vertex %d is not owned by this rank", v))
						return
					}
					if li%T != t {
						continue
					}
					if nd >= r.dist[li] {
						// Canonical parent election on positive-weight ties,
						// as in the serial path; the write is still
						// thread-owned.
						if nd == r.dist[li] && nd < graph.Inf && !zw && par < r.parent[li] && v != r.src {
							r.parent[li] = par
						}
						continue
					}
					r.dist[li] = nd
					r.parent[li] = par
					if r.hybridMode {
						if r.mark[li] != r.stamp {
							r.mark[li] = r.stamp
							st.active = append(st.active, uint32(li))
						}
						continue
					}
					// Mirror of applyRelaxIn's policy bookkeeping; the
					// pending flags are thread-owned like dist/bucketOf, and
					// store insertions stage per thread.
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
				}
				if err := rd.err(); err != nil {
					st.err = r.corruptErr(src, "relax", err)
					return
				}
			}
		}(t)
	}
	wg.Wait()
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
