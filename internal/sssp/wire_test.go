package sssp

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"parsssp/internal/graph"
	"parsssp/internal/rmat"
)

// randomRelaxBatch builds an unsorted batch whose destinations cluster
// (mostly tiny gaps with occasional large jumps), so the delta encoding
// sees both its best and worst cases.
func randomRelaxBatch(rng *rand.Rand, n int) []relaxRec {
	recs := make([]relaxRec, n)
	v := graph.Vertex(rng.Intn(100))
	for i := range recs {
		if rng.Intn(4) == 0 {
			v += graph.Vertex(rng.Intn(1 << 20))
		} else {
			v += graph.Vertex(rng.Intn(3))
		}
		recs[i] = relaxRec{
			v:      v,
			parent: graph.Vertex(rng.Uint32()),
			dist:   graph.Dist(rng.Int63n(int64(graph.Inf))),
		}
	}
	rng.Shuffle(n, func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

// relaxExtremes are records at the edges of each field's range: the
// largest vertex id, the unreached parent sentinel and distance, zero.
var relaxExtremes = []relaxRec{
	{v: 42, parent: 7, dist: 1234567890123},
	{v: 0, parent: 0, dist: 0},
	{v: ^graph.Vertex(0), parent: NoParent, dist: graph.Inf},
}

func TestRelaxBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sorter relaxSorter
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		recs := randomRelaxBatch(rng, n)
		if trial%2 == 0 {
			recs = append(recs, relaxExtremes...)
			n = len(recs)
		}
		sortRelaxBatch(&sorter, recs)
		for i := 1; i < n; i++ {
			if recs[i-1].v > recs[i].v {
				t.Fatalf("trial %d: batch not sorted at %d", trial, i)
			}
		}
		buf := encodeRelaxBatch(nil, recs)
		if got := wireRecordCount(buf); got != n {
			t.Fatalf("trial %d: wireRecordCount = %d, want %d", trial, got, n)
		}
		got, rd := drainRelax(buf)
		if err := rd.err(); err != nil {
			t.Fatalf("trial %d: clean batch flagged: %v", trial, err)
		}
		if !reflect.DeepEqual(got, recs) && n > 0 {
			t.Fatalf("trial %d: decoded %v, want %v", trial, got, recs)
		}
	}
}

func TestRequestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(200)
		reqs := make([]requestRec, n)
		for i := range reqs {
			reqs[i] = requestRec{graph.Vertex(rng.Uint32()), graph.Vertex(rng.Uint32()), graph.Weight(rng.Uint32())}
		}
		buf := encodeRequestBatch(nil, reqs)
		if got := wireRecordCount(buf); got != n {
			t.Fatalf("trial %d: wireRecordCount = %d, want %d", trial, got, n)
		}
		// Records must come back in emission order: the responder's
		// output order depends on it.
		got, rd := drainRequests(buf)
		if err := rd.err(); err != nil {
			t.Fatalf("trial %d: clean batch flagged: %v", trial, err)
		}
		if !reflect.DeepEqual(got, reqs) && n > 0 {
			t.Fatalf("trial %d: decoded %v, want %v", trial, got, reqs)
		}
	}
}

// drainRelax reads every record a relaxReader yields from buf and
// returns them with the exhausted reader.
func drainRelax(buf []byte) ([]relaxRec, relaxReader) {
	var got []relaxRec
	rd := newRelaxReader(buf)
	for {
		v, par, d, ok := rd.next()
		if !ok {
			return got, rd
		}
		got = append(got, relaxRec{v, par, d})
	}
}

// drainRequests is drainRelax for requestReader.
func drainRequests(buf []byte) ([]requestRec, requestReader) {
	var got []requestRec
	rd := newRequestReader(buf)
	for {
		u, v, w, ok := rd.next()
		if !ok {
			return got, rd
		}
		got = append(got, requestRec{u, v, w})
	}
}

// checkDrained asserts what a reader must guarantee on any input,
// however damaged: it never yields more records than the header
// declares, and its error is set whenever it stopped short of the
// declared count or left bytes unread.
func checkDrained(t *testing.T, data []byte, got, off int, err error) {
	t.Helper()
	declared := wireRecordCount(data)
	if got > declared {
		t.Fatalf("reader yielded %d records, header declares %d", got, declared)
	}
	if err == nil && (got != declared || off != len(data)) {
		t.Fatalf("clean read of %d/%d records ending at byte %d of %d",
			got, declared, off, len(data))
	}
}

// truncationSweep returns every prefix of a valid relax batch and of a
// valid request batch, the damage a cut-short frame does.
func truncationSweep() [][]byte {
	rng := rand.New(rand.NewSource(3))
	var sorter relaxSorter
	recs := randomRelaxBatch(rng, 50)
	sortRelaxBatch(&sorter, recs)
	reqs := make([]requestRec, 30)
	for i := range reqs {
		reqs[i] = requestRec{graph.Vertex(rng.Uint32()), graph.Vertex(rng.Intn(1 << 16)), graph.Weight(rng.Intn(256))}
	}
	var out [][]byte
	for _, valid := range [][]byte{encodeRelaxBatch(nil, recs), encodeRequestBatch(nil, reqs)} {
		for k := 0; k <= len(valid); k++ {
			out = append(out, valid[:k])
		}
	}
	return out
}

// TestWireReadersTolerateCorruption feeds the decode path random bytes
// and every truncation of valid batches: the readers must terminate
// without panicking and keep checkDrained's guarantees. This is the
// property the engine relies on when it trusts wireRecordCount for
// sizing decisions.
func TestWireReadersTolerateCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inputs := truncationSweep()
	for trial := 0; trial < 500; trial++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		inputs = append(inputs, buf)
	}
	for _, buf := range inputs {
		recs, rd := drainRelax(buf)
		checkDrained(t, buf, len(recs), rd.off, rd.err())
		reqs, qd := drainRequests(buf)
		checkDrained(t, buf, len(reqs), qd.off, qd.err())
	}
}

// FuzzRelaxReader checks the relax reader against arbitrary frames: no
// panic, checkDrained's guarantees, and — reading the input as raw
// records instead — that whatever the encoder writes decodes back to
// the same records.
func FuzzRelaxReader(f *testing.F) {
	for _, seed := range truncationSweep() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, rd := drainRelax(data)
		checkDrained(t, data, len(got), rd.off, rd.err())

		recs := make([]relaxRec, 0, len(data)/16)
		for ; len(data) >= 16; data = data[16:] {
			recs = append(recs, relaxRec{
				v:      binary.LittleEndian.Uint32(data),
				parent: binary.LittleEndian.Uint32(data[4:]),
				dist:   graph.Dist(binary.LittleEndian.Uint64(data[8:])),
			})
		}
		var sorter relaxSorter
		sortRelaxBatch(&sorter, recs)
		back, rd := drainRelax(encodeRelaxBatch(nil, recs))
		if err := rd.err(); err != nil {
			t.Fatalf("encoder output flagged: %v", err)
		}
		if len(recs) > 0 && !reflect.DeepEqual(back, recs) {
			t.Fatalf("round trip: decoded %v, want %v", back, recs)
		}
	})
}

// FuzzRequestReader is FuzzRelaxReader for request batches.
func FuzzRequestReader(f *testing.F) {
	for _, seed := range truncationSweep() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, rd := drainRequests(data)
		checkDrained(t, data, len(got), rd.off, rd.err())

		reqs := make([]requestRec, 0, len(data)/12)
		for ; len(data) >= 12; data = data[12:] {
			reqs = append(reqs, requestRec{
				u: binary.LittleEndian.Uint32(data),
				v: binary.LittleEndian.Uint32(data[4:]),
				w: binary.LittleEndian.Uint32(data[8:]),
			})
		}
		back, rd := drainRequests(encodeRequestBatch(nil, reqs))
		if err := rd.err(); err != nil {
			t.Fatalf("encoder output flagged: %v", err)
		}
		if len(reqs) > 0 && !reflect.DeepEqual(back, reqs) {
			t.Fatalf("round trip: decoded %v, want %v", back, reqs)
		}
	})
}

// wireRunKey extracts the record-level fields of a run: everything but
// byte counts and timings.
type wireRunKey struct {
	Relax           RelaxCounts
	Phases, Epochs  int64
	BFPhases        int64
	HybridSwitched  bool
	Reached         int64
	Decisions       []Mode
	Buckets         []BucketStats
	RecordsSent     int64
	RecordsReceived int64
	ExchangeCalls   int64
}

func runKey(r *Result) wireRunKey {
	return wireRunKey{
		Relax:           r.Stats.Relax,
		Phases:          r.Stats.Phases,
		Epochs:          r.Stats.Epochs,
		BFPhases:        r.Stats.BFPhases,
		HybridSwitched:  r.Stats.HybridSwitched,
		Reached:         r.Stats.Reached,
		Decisions:       r.Stats.Decisions,
		Buckets:         r.Stats.Buckets,
		RecordsSent:     r.Stats.Traffic.RecordsSent,
		RecordsReceived: r.Stats.Traffic.RecordsReceived,
		ExchangeCalls:   r.Stats.Traffic.ExchangeCalls,
	}
}

// TestWireV2CutsBytesScale13 pins the relax traffic of a scale-13
// RMAT-1 graph over 4 ranks: the record count is exact, and BytesSent
// may not exceed 0.65× the 290,905 bytes the batch codec sent before
// sender-side combining (fixed-width 16- and 12-byte records, the
// removed wire format v1, sent 1,014,172; the uncombined batches carried
// 65,846 records).
func TestWireV2CutsBytesScale13(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-13 acceptance run skipped in -short mode")
	}
	g, err := rmat.Generate(rmat.Family1(13, 99))
	if err != nil {
		t.Fatal(err)
	}
	o := OptOptions(25)
	o.Threads = 2
	r := mustRun(t, g, 4, testRoot(g), o)
	const wantRecords, maxBytes = 40431, 189088
	tr := r.Stats.Traffic
	t.Logf("scale-13: %d bytes for %d records", tr.BytesSent, tr.RecordsSent)
	if tr.RecordsSent != wantRecords {
		t.Errorf("RecordsSent = %d, want %d", tr.RecordsSent, wantRecords)
	}
	if tr.BytesSent > maxBytes {
		t.Errorf("BytesSent = %d, want <= %d", tr.BytesSent, maxBytes)
	}
}

// TestSameSeedRunsIdentical checks reproducibility: two runs of the same
// query with the same options produce byte-identical trees and identical
// counters, even with multiple threads and the parallel apply path. This
// pins the static emission schedule in runWorkers and the stable relax
// sort — dynamic scheduling or an unstable sort would make the
// first-wins parent choice run-dependent.
func TestSameSeedRunsIdentical(t *testing.T) {
	g, err := rmat.Generate(rmat.Family1(10, 7))
	if err != nil {
		t.Fatal(err)
	}
	src := testRoot(g)
	old := parallelApplyThreshold
	parallelApplyThreshold = 1
	defer func() { parallelApplyThreshold = old }()
	o := LBOptOptions(25)
	o.Threads = 3
	o.ParallelApply = true
	r1 := mustRun(t, g, 4, src, o)
	r2 := mustRun(t, g, 4, src, o)
	if !reflect.DeepEqual(r1.Dist, r2.Dist) {
		t.Error("distances differ between identical runs")
	}
	if !reflect.DeepEqual(r1.Parent, r2.Parent) {
		t.Error("parents differ between identical runs")
	}
	if k1, k2 := runKey(r1), runKey(r2); !reflect.DeepEqual(k1, k2) {
		t.Errorf("counters differ between identical runs:\n%+v\n%+v", k1, k2)
	}
	if b1, b2 := r1.Stats.Traffic.BytesSent, r2.Stats.Traffic.BytesSent; b1 != b2 {
		t.Errorf("BytesSent differ between identical runs: %d vs %d", b1, b2)
	}
}
