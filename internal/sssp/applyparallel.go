package sssp

import "sync"

// This file implements the ownership-partitioned parallel apply path of
// applyRelaxIn; see the comment there for the model.

// parallelApplyThreshold is the record count below which the serial
// apply path beats spawning workers. It counts the received records plus
// this rank's self-destined ones, which never touch the wire; otherwise
// a one-rank run would never apply in parallel. A variable so tests can
// force the parallel path on small inputs.
var parallelApplyThreshold = 2048

// bucketAdd is a staged bucket-store insertion.
type bucketAdd struct {
	bucket int64
	li     uint32
}

// applyStaging is one thread's private output of an apply pass.
type applyStaging struct {
	adds   []bucketAdd
	active []uint32
	err    error // damaged input seen by this thread
}

// applyParallel runs applyScan on len(stage) threads: thread t applies
// exactly the records whose target satisfies li mod T == t, so dist,
// parent, bucketOf, pending and mark writes are disjoint across threads,
// and the shared structures (bucket store, nextActive) only see the
// per-thread staging that applyRelaxIn merges after the join.
func (r *queryState) applyParallel(stage []applyStaging, in [][]byte, self []relaxRec, activate bool) {
	var wg sync.WaitGroup
	for t := range stage {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			stage[t].err = r.applyScan(&stage[t], in, self, t, len(stage), activate, nil)
		}(t)
	}
	wg.Wait()
}
