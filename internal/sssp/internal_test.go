package sssp

import "testing"

// Tests for the unexported building blocks: the bucket store and the
// option presets. The record codec's tests live in wire_test.go.

func TestBucketStoreBasics(t *testing.T) {
	s := newBucketStore()
	bucketOf := []int64{0, 0, 3, infBucket}
	s.add(0, 0)
	s.add(0, 1)
	s.add(3, 2)
	if got := s.countValid(0, bucketOf); got != 2 {
		t.Errorf("countValid(0) = %d, want 2", got)
	}
	if got := s.nextNonEmpty(0, bucketOf); got != 3 {
		t.Errorf("nextNonEmpty(0) = %d, want 3", got)
	}
	if got := s.nextNonEmpty(3, bucketOf); got != int64(infBucket) {
		t.Errorf("nextNonEmpty(3) = %d, want infBucket", got)
	}
}

func TestBucketStoreStaleEntries(t *testing.T) {
	s := newBucketStore()
	bucketOf := []int64{1, 5}
	// Vertex 0 was inserted into bucket 5, then moved down to bucket 1:
	// the bucket-5 entry is stale.
	s.add(5, 0)
	s.add(1, 0)
	s.add(5, 1)
	if got := s.countValid(5, bucketOf); got != 1 {
		t.Errorf("countValid(5) = %d, want 1 (stale entry filtered)", got)
	}
	if got := s.nextNonEmpty(0, bucketOf); got != 1 {
		t.Errorf("nextNonEmpty(0) = %d, want 1", got)
	}
	// After bucket 1 empties, only the valid bucket-5 entry remains.
	s.drop(1)
	if got := s.nextNonEmpty(1, bucketOf); got != 5 {
		t.Errorf("nextNonEmpty(1) = %d, want 5", got)
	}
	l := s.list(5)
	valid := 0
	for _, li := range l {
		if bucketOf[li] == 5 {
			valid++
		}
	}
	if valid != 1 {
		t.Errorf("bucket 5 kept %d valid entries, want 1", valid)
	}
}

func TestBucketStoreFullyStaleBucketSkipped(t *testing.T) {
	s := newBucketStore()
	bucketOf := []int64{2, 9}
	s.add(4, 0) // stale: vertex 0 is in bucket 2 now
	s.add(9, 1)
	if got := s.nextNonEmpty(2, bucketOf); got != 9 {
		t.Errorf("nextNonEmpty skipped to %d, want 9", got)
	}
	if _, exists := s.lists[4]; exists {
		t.Error("fully stale bucket 4 not deleted")
	}
}

func TestBucketStoreTake(t *testing.T) {
	s := newBucketStore()
	s.add(7, 3)
	l := s.take(7)
	if len(l) != 1 || l[0] != 3 {
		t.Errorf("take(7) = %v", l)
	}
	if s.list(7) != nil {
		t.Error("take did not remove the list")
	}
}

func TestModeString(t *testing.T) {
	if ModePush.String() != "push" || ModePull.String() != "pull" {
		t.Error("mode names wrong")
	}
}

func TestPresetShapes(t *testing.T) {
	del := DelOptions(25)
	if !del.EdgeClassification || del.Prune || del.Hybrid || del.IOS {
		t.Errorf("DelOptions misconfigured: %+v", del)
	}
	prune := PruneOptions(25)
	if !prune.Prune || !prune.IOS || prune.Hybrid {
		t.Errorf("PruneOptions misconfigured: %+v", prune)
	}
	opt := OptOptions(25)
	if !opt.Prune || !opt.Hybrid || opt.LoadBalance {
		t.Errorf("OptOptions misconfigured: %+v", opt)
	}
	lb := LBOptOptions(25)
	if !lb.LoadBalance {
		t.Errorf("LBOptOptions misconfigured: %+v", lb)
	}
	if DijkstraOptions().Delta != 1 {
		t.Error("DijkstraOptions Delta != 1")
	}
	if BellmanFordOptions().Delta != BellmanFordDelta {
		t.Error("BellmanFordOptions Delta != BellmanFordDelta")
	}
}
