package sssp

import (
	"errors"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"parsssp/internal/comm"
	"parsssp/internal/comm/memtransport"
	"parsssp/internal/comm/tcptransport"
	"parsssp/internal/partition"
)

// These chaos tests prove the fail-fast contract end to end: whatever a
// transport does mid-query — a rank erroring, dying, stalling, or
// damaging frames — every rank surfaces an error; nothing hangs, nothing
// panics, and a Machine stays Closeable. Run under -race (the CI chaos
// job does) to also prove the abort paths are data-race free.

const chaosRanks = 3

// recordingTransport observes the collective sequence of one rank: the
// kind of each collective and, for exchanges, the bytes sent to other
// ranks. Chaos tests use it to aim payload faults at a collective that
// actually carries records.
type recordingTransport struct {
	t      comm.Transport
	kinds  []byte // 'X' exchange, 'A' allreduce, 'B' barrier
	xBytes []int
}

func (r *recordingTransport) Rank() int { return r.t.Rank() }
func (r *recordingTransport) Size() int { return r.t.Size() }
func (r *recordingTransport) Exchange(out [][]byte) ([][]byte, error) {
	n := 0
	for i, b := range out {
		if i != r.t.Rank() {
			n += len(b)
		}
	}
	r.kinds = append(r.kinds, 'X')
	r.xBytes = append(r.xBytes, n)
	return r.t.Exchange(out)
}
func (r *recordingTransport) AllreduceInt64(vals []int64, op comm.ReduceOp) ([]int64, error) {
	r.kinds = append(r.kinds, 'A')
	r.xBytes = append(r.xBytes, 0)
	return r.t.AllreduceInt64(vals, op)
}
func (r *recordingTransport) Barrier() error {
	r.kinds = append(r.kinds, 'B')
	r.xBytes = append(r.xBytes, 0)
	return r.t.Barrier()
}
func (r *recordingTransport) Close() error { return r.t.Close() }

// chaosOpts returns the option set all chaos tests share.
func chaosOpts() Options {
	opts := OptOptions(25)
	opts.Threads = 2
	return opts
}

// recordCollectives runs one clean query and returns the observed
// collective schedule of faultRank. The engine is deterministic, so a
// faulted re-run follows the identical schedule up to the fault.
func recordCollectives(t *testing.T, faultRank int) *recordingTransport {
	t.Helper()
	g := rmatTestGraph
	group, err := memtransport.New(chaosRanks)
	if err != nil {
		t.Fatal(err)
	}
	transports := group.Endpoints()
	rec := &recordingTransport{t: transports[faultRank]}
	transports[faultRank] = rec
	if _, err := RunWithTransports(g, blockDist(g.NumVertices(), chaosRanks), testRoot(g), chaosOpts(), transports); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	return rec
}

func blockDist(n, ranks int) partition.Dist {
	return partition.MustNew(partition.Block, n, ranks)
}

// firstLoadedExchange returns the index of the first exchange collective
// carrying at least minBytes to other ranks.
func firstLoadedExchange(t *testing.T, rec *recordingTransport, minBytes int) int {
	t.Helper()
	for i, k := range rec.kinds {
		if k == 'X' && rec.xBytes[i] >= minBytes {
			return i
		}
	}
	t.Fatal("no exchange with payload found in the clean run")
	return -1
}

// runFaulted executes RunWithTransports with the given faults injected
// on faultRank's transport over a fresh memtransport group.
func runFaulted(t *testing.T, faultRank int, faults ...comm.Fault) (*Result, error) {
	t.Helper()
	g := rmatTestGraph
	group, err := memtransport.New(chaosRanks)
	if err != nil {
		t.Fatal(err)
	}
	transports := group.Endpoints()
	f, err := comm.NewFaulty(transports[faultRank], faults...)
	if err != nil {
		t.Fatal(err)
	}
	transports[faultRank] = f
	return RunWithTransports(g, blockDist(g.NumVertices(), chaosRanks), testRoot(g), chaosOpts(), transports)
}

func TestChaosEngineErrorFailsQuery(t *testing.T) {
	// A rank-local failure between collectives (FaultError) must fail the
	// whole query — peers waiting at the next collective are unblocked by
	// the failing rank's abort, not left deadlocked.
	for _, idx := range []int{0, 1, 5} {
		_, err := runFaulted(t, 1, comm.Fault{Collective: idx, Kind: comm.FaultError})
		if err == nil {
			t.Fatalf("fault at collective %d: query succeeded", idx)
		}
		if !errors.Is(err, comm.ErrInjected) {
			t.Errorf("fault at collective %d: reported error %v is not the root cause", idx, err)
		}
		if errors.Is(err, comm.ErrAborted) {
			t.Errorf("fault at collective %d: a peer's secondary abort error was reported over the cause", idx)
		}
	}
}

func TestChaosRankCrashFailsQuery(t *testing.T) {
	_, err := runFaulted(t, 2, comm.Fault{Collective: 3, Kind: comm.FaultCrash})
	if err == nil {
		t.Fatal("query survived a rank crash")
	}
	if !errors.Is(err, comm.ErrInjected) {
		t.Errorf("reported error %v is not the injected crash", err)
	}
}

func TestChaosTruncatedFrameFailsQuery(t *testing.T) {
	rec := recordCollectives(t, 1)
	idx := firstLoadedExchange(t, rec, 16)
	_, err := runFaulted(t, 1, comm.Fault{Collective: idx, Kind: comm.FaultTruncate})
	if err == nil {
		t.Fatalf("truncated frame at collective %d went undetected", idx)
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("error does not identify payload damage: %v", err)
	}
}

func TestChaosCorruptFrameFailsQuery(t *testing.T) {
	rec := recordCollectives(t, 1)
	idx := firstLoadedExchange(t, rec, 16)
	g := rmatTestGraph
	group, err := memtransport.New(chaosRanks)
	if err != nil {
		t.Fatal(err)
	}
	transports := group.Endpoints()
	f, err := comm.NewFaulty(transports[1], comm.Fault{Collective: idx, Kind: comm.FaultCorrupt})
	if err != nil {
		t.Fatal(err)
	}
	transports[1] = f
	_, err = RunWithTransports(g, blockDist(g.NumVertices(), chaosRanks), testRoot(g), chaosOpts(), transports)
	if err == nil {
		t.Fatalf("corrupt frame at collective %d went undetected", idx)
	}
}

func TestChaosFaultPlanSweep(t *testing.T) {
	// Seeded fault plans across all mem-injectable kinds: every run must
	// terminate (the test -timeout is the hang detector) with either a
	// clean error or a correct result — never a panic, hang, or silent
	// wrong answer.
	g := rmatTestGraph
	src := testRoot(g)
	want, err := Dijkstra(g, src)
	if err != nil {
		t.Fatal(err)
	}
	rec := recordCollectives(t, 0)
	span := len(rec.kinds)
	kinds := []comm.FaultKind{comm.FaultError, comm.FaultCrash, comm.FaultTruncate, comm.FaultCorrupt}
	for seed := uint64(1); seed <= 8; seed++ {
		plan := comm.FaultPlan(seed, 2, span, 0, kinds...)
		res, err := runFaulted(t, int(seed)%chaosRanks, plan...)
		if err != nil {
			continue // clean failure is one of the two allowed outcomes
		}
		if !reflect.DeepEqual(res.Dist, want.Dist) {
			t.Errorf("seed %d: faulted run returned wrong distances without an error", seed)
		}
	}
}

func TestMachineSurvivesFailedQuery(t *testing.T) {
	// A failed query must poison the machine cleanly: the error is the
	// injected root cause, later queries fail fast instead of hanging,
	// and Close still works.
	g := rmatTestGraph
	group, err := memtransport.New(chaosRanks)
	if err != nil {
		t.Fatal(err)
	}
	transports := group.Endpoints()
	f, err := comm.NewFaulty(transports[1], comm.Fault{Collective: 4, Kind: comm.FaultError})
	if err != nil {
		t.Fatal(err)
	}
	transports[1] = f
	m, err := NewMachineWithTransports(g, blockDist(g.NumVertices(), chaosRanks), chaosOpts(), transports)
	if err != nil {
		t.Fatal(err)
	}
	src := testRoot(g)
	if _, err := m.Query(src); !errors.Is(err, comm.ErrInjected) {
		t.Fatalf("first query error = %v, want the injected fault", err)
	}
	if _, err := m.Query(src); err == nil {
		t.Error("query on a poisoned machine succeeded")
	}
	if err := m.Close(); err != nil {
		t.Errorf("Close after failed query: %v", err)
	}
}

func TestMachineWithTransportsCleanQueries(t *testing.T) {
	// The transport-injection constructor must behave exactly like
	// NewMachine when handed plain memtransport endpoints.
	g := rmatTestGraph
	group, err := memtransport.New(chaosRanks)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachineWithTransports(g, blockDist(g.NumVertices(), chaosRanks), chaosOpts(), group.Endpoints())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	src := testRoot(g)
	res, err := m.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Dijkstra(g, src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Dist, want.Dist) {
		t.Error("distances mismatch Dijkstra")
	}
	if _, err := NewMachineWithTransports(g, blockDist(g.NumVertices(), 2), chaosOpts(), group.Endpoints()); err == nil {
		t.Error("transport count mismatch accepted")
	}
}

// TestChaosUpdateRepairFaults extends the fail-fast contract to the
// incremental-repair collectives: a rank erroring, dying, or damaging
// frames mid-ApplyUpdates must fail the update on every rank (or, for
// payload damage the hardened readers happened not to flag, leave a tree
// identical to the recompute) — never hang, never panic, and the Machine
// stays poisoned-but-Closeable exactly like a failed query.
func TestChaosUpdateRepairFaults(t *testing.T) {
	g := positivize(t, rmatTestGraph)
	src := testRoot(g)
	opts := chaosOpts()
	rng := rand.New(rand.NewSource(91))
	batch := randomBatch(rng, g, 4, 4)

	// Clean recording run: where in rank 1's collective schedule the
	// repair begins, and which repair exchanges carry payload.
	group, err := memtransport.New(chaosRanks)
	if err != nil {
		t.Fatal(err)
	}
	transports := group.Endpoints()
	rec := &recordingTransport{t: transports[1]}
	transports[1] = rec
	m, err := NewMachineWithTransports(g, blockDist(g.NumVertices(), chaosRanks), opts, transports)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Query(src); err != nil {
		t.Fatalf("clean query: %v", err)
	}
	queryEnd := len(rec.kinds)
	if res, rs, err := m.ApplyUpdates(batch); err != nil || res == nil || rs == nil {
		t.Fatalf("clean ApplyUpdates: res=%v rs=%v err=%v", res, rs, err)
	}
	repairSpan := len(rec.kinds) - queryEnd
	m.Close()
	if repairSpan < 2 {
		t.Fatalf("repair used only %d collectives; cannot aim faults", repairSpan)
	}

	// newFaulted rebuilds the identical machine with one fault injected
	// on rank 1 and runs the pre-fault query; the engine's determinism
	// makes the faulted run follow the recorded schedule.
	newFaulted := func(fault comm.Fault) *Machine {
		t.Helper()
		group, err := memtransport.New(chaosRanks)
		if err != nil {
			t.Fatal(err)
		}
		transports := group.Endpoints()
		f, err := comm.NewFaulty(transports[1], fault)
		if err != nil {
			t.Fatal(err)
		}
		transports[1] = f
		m, err := NewMachineWithTransports(g, blockDist(g.NumVertices(), chaosRanks), opts, transports)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Query(src); err != nil {
			t.Fatalf("pre-fault query: %v", err)
		}
		return m
	}

	for _, kind := range []comm.FaultKind{comm.FaultError, comm.FaultCrash} {
		for _, off := range []int{0, repairSpan / 2, repairSpan - 1} {
			m := newFaulted(comm.Fault{Collective: queryEnd + off, Kind: kind})
			if _, _, err := m.ApplyUpdates(batch); err == nil {
				t.Errorf("kind %v offset %d: faulted repair succeeded", kind, off)
			} else if !errors.Is(err, comm.ErrInjected) {
				t.Errorf("kind %v offset %d: error %v is not the injected root cause", kind, off, err)
			}
			if _, err := m.Query(src); err == nil {
				t.Errorf("kind %v offset %d: query on a poisoned machine succeeded", kind, off)
			}
			if err := m.Close(); err != nil {
				t.Errorf("kind %v offset %d: Close after failed update: %v", kind, off, err)
			}
		}
	}

	// Payload damage, aimed at the first repair exchange that actually
	// carries bytes from the faulted rank.
	idx := -1
	for i := queryEnd; i < len(rec.kinds); i++ {
		if rec.kinds[i] == 'X' && rec.xBytes[i] >= 4 {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no loaded exchange inside the repair")
	}
	for _, kind := range []comm.FaultKind{comm.FaultTruncate, comm.FaultCorrupt} {
		m := newFaulted(comm.Fault{Collective: idx, Kind: kind})
		res, _, err := m.ApplyUpdates(batch)
		if err == nil {
			// Damage the readers happened not to flag must have been
			// harmless: the repaired tree still matches the recompute.
			pv := m.set.Acquire()
			requireTreesEqual(t, pv.Graph(), src, res, opts, chaosRanks, "damaged repair")
			m.set.Release(pv)
		}
		if err := m.Close(); err != nil {
			t.Errorf("kind %v: Close after damaged update: %v", kind, err)
		}
	}
}

// runOverTCPFaulted runs a query over real TCP sockets with faults
// injected on one rank and returns the per-rank errors.
func runOverTCPFaulted(t *testing.T, timeout time.Duration, faultRank int, faults ...comm.Fault) []error {
	t.Helper()
	g := rmatTestGraph
	src := testRoot(g)
	opts := chaosOpts()

	addrs := make([]string, chaosRanks)
	listeners := make([]net.Listener, chaosRanks)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}

	pd := blockDist(g.NumVertices(), chaosRanks)
	errs := make([]error, chaosRanks)
	var wg sync.WaitGroup
	for r := 0; r < chaosRanks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := tcptransport.New(tcptransport.Config{
				Addrs: addrs, Rank: r,
				DialTimeout:       10 * time.Second,
				CollectiveTimeout: timeout,
			})
			if err != nil {
				errs[r] = err
				return
			}
			defer tr.Close()
			var rt comm.Transport = tr
			if r == faultRank {
				f, err := comm.NewFaulty(tr, faults...)
				if err != nil {
					errs[r] = err
					return
				}
				rt = f
			}
			_, errs[r] = RunRank(g, pd, src, opts, rt, 0)
		}(r)
	}
	wg.Wait()
	return errs
}

func TestChaosTCPPeerDeath(t *testing.T) {
	// A rank dying mid-query over TCP (its transport closes) must fail
	// every surviving rank promptly through connection death — no
	// collective timeout is configured here, so the closed sockets are
	// the only failure signal.
	errs := runOverTCPFaulted(t, 0, 1, comm.Fault{Collective: 5, Kind: comm.FaultCrash})
	for r, err := range errs {
		if err == nil {
			t.Errorf("rank %d returned no error after a peer died", r)
		}
	}
	if !errors.Is(errs[1], comm.ErrInjected) {
		t.Errorf("crashed rank's error = %v, want the injected fault", errs[1])
	}
}

func TestChaosTCPStallTimesOut(t *testing.T) {
	// A rank stalling past the collective timeout must fail its peers via
	// the deadline, and then fail itself when it resumes onto dead
	// connections.
	errs := runOverTCPFaulted(t, 400*time.Millisecond, 2,
		comm.Fault{Collective: 4, Kind: comm.FaultStall, Stall: 2 * time.Second})
	for r, err := range errs {
		if err == nil {
			t.Errorf("rank %d returned no error after a peer stalled past the timeout", r)
		}
	}
}
