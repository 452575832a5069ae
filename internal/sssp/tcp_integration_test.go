package sssp

import (
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"parsssp/internal/comm"
	"parsssp/internal/comm/tcptransport"
	"parsssp/internal/graph"
	"parsssp/internal/partition"
	"parsssp/internal/rmat"
)

// runOverTCP executes a distributed run over real TCP sockets on
// localhost (one goroutine per rank standing in for one process per
// rank) and assembles the global result.
func runOverTCP(t *testing.T, g *graph.Graph, ranks int, src graph.Vertex, opts Options) *Result {
	t.Helper()
	addrs := make([]string, ranks)
	listeners := make([]net.Listener, ranks)
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

	pd := partition.MustNew(partition.Block, g.NumVertices(), ranks)
	results := make([]*RankResult, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tr, err := tcptransport.New(tcptransport.Config{
				Addrs: addrs, Rank: r, DialTimeout: 10 * time.Second,
			})
			if err != nil {
				errs[r] = err
				return
			}
			defer tr.Close()
			results[r], errs[r] = RunRank(g, pd, src, opts, tr, 0)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	// Control-flow statistics must agree across ranks (lockstep).
	for r := 1; r < ranks; r++ {
		if results[r].Stats.Phases != results[0].Stats.Phases ||
			results[r].Stats.Epochs != results[0].Stats.Epochs {
			t.Errorf("rank %d phases/epochs diverge from rank 0", r)
		}
	}
	res, err := assemble(g, pd, results)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEngineOverTCP runs the full distributed algorithm over TCP and
// checks the result against Dijkstra. This is the end-to-end test of the
// MPI-substitute stack.
func TestEngineOverTCP(t *testing.T) {
	g := rmatTestGraph
	src := testRoot(g)
	opts := OptOptions(25)
	opts.Threads = 2
	res := runOverTCP(t, g, 3, src, opts)

	want, err := Dijkstra(g, src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Dist, want.Dist) {
		t.Error("TCP-machine distances mismatch Dijkstra")
	}
}

// TestRepairOverTCPMatchesRecompute is the transport-equivalence oracle
// for the dynamic subsystem: one RankServer per rank over real TCP
// sockets, driven through interleaved queries and incremental repairs.
// Every repaired tree must equal a from-scratch memtransport run on the
// updated graph — the same byte-for-byte contract dynamic_test.go proves
// in process, now across the wire.
func TestRepairOverTCPMatchesRecompute(t *testing.T) {
	base, err := rmat.Generate(rmat.Family2(9, 42))
	if err != nil {
		t.Fatalf("rmat: %v", err)
	}
	g := positivize(t, base)
	src := testRoot(g)
	const ranks = 3
	opts := OptOptions(25)
	opts.Threads = 2

	addrs := make([]string, ranks)
	listeners := make([]net.Listener, ranks)
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

	// The mesh handshake needs all endpoints dialing at once.
	trs := make([]comm.Transport, ranks)
	terrs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			trs[r], terrs[r] = tcptransport.New(tcptransport.Config{
				Addrs: addrs, Rank: r, DialTimeout: 10 * time.Second,
			})
		}(r)
	}
	wg.Wait()
	for r, err := range terrs {
		if err != nil {
			t.Fatalf("rank %d transport: %v", r, err)
		}
	}

	pd := partition.MustNew(partition.Block, g.NumVertices(), ranks)
	servers := make([]*RankServer, ranks)
	for r := range servers {
		servers[r], err = NewRankServer(g, pd, opts, []comm.Transport{trs[r]})
		if err != nil {
			t.Fatalf("NewRankServer %d: %v", r, err)
		}
	}
	defer func() {
		for _, s := range servers {
			s.Close() // closes the slot transports too
		}
	}()

	lockstep := func(fn func(r int, s *RankServer) error) {
		t.Helper()
		errs := make([]error, ranks)
		var wg sync.WaitGroup
		for r, s := range servers {
			wg.Add(1)
			go func(r int, s *RankServer) {
				defer wg.Done()
				errs[r] = fn(r, s)
			}(r, s)
		}
		wg.Wait()
		if err := firstCause(errs); err != nil {
			t.Fatalf("lockstep: %v", err)
		}
	}
	gather := func(curr *graph.Graph) *Result {
		t.Helper()
		rrs := make([]*RankResult, ranks)
		lockstep(func(r int, s *RankServer) error {
			rr, err := s.Query(0, src)
			rrs[r] = rr
			return err
		})
		res, err := assemble(curr, pd, rrs)
		if err != nil {
			t.Fatalf("assemble: %v", err)
		}
		return res
	}

	requireTreesEqual(t, g, src, gather(g), opts, ranks, "tcp initial")

	rng := rand.New(rand.NewSource(83))
	cur := g
	for step := 0; step < 3; step++ {
		batch := randomBatch(rng, cur, 4, 4)
		target := uint64(step + 1)
		stats := make([]*RepairStats, ranks)
		lockstep(func(r int, s *RankServer) error {
			rs, err := s.ApplyUpdates(0, target, batch)
			stats[r] = rs
			return err
		})
		for r, rs := range stats {
			if rs == nil {
				t.Fatalf("step %d: rank %d did not repair", step, r)
			}
		}
		pv := servers[0].set.Acquire()
		cur = pv.Graph()
		servers[0].set.Release(pv)
		requireTreesEqual(t, cur, src, gather(cur), opts, ranks, "tcp repair")
	}
}

// TestEngineTCPMatchesMemtransport checks that the transport is
// invisible to the algorithm: the same query produces byte-identical
// trees and identical record-level statistics over TCP sockets and over
// the in-process transport.
func TestEngineTCPMatchesMemtransport(t *testing.T) {
	g := rmatTestGraph
	src := testRoot(g)
	opts := OptOptions(25)
	opts.Threads = 2
	tcpRes := runOverTCP(t, g, 3, src, opts)
	memRes := mustRun(t, g, 3, src, opts)
	if !reflect.DeepEqual(tcpRes.Dist, memRes.Dist) {
		t.Error("distances differ between TCP and memtransport")
	}
	if !reflect.DeepEqual(tcpRes.Parent, memRes.Parent) {
		t.Error("parents differ between TCP and memtransport")
	}
	k1, k2 := runKey(tcpRes), runKey(memRes)
	if !reflect.DeepEqual(k1, k2) {
		t.Errorf("record-level stats differ:\ntcp: %+v\nmem: %+v", k1, k2)
	}
	if b1, b2 := tcpRes.Stats.Traffic.BytesSent, memRes.Stats.Traffic.BytesSent; b1 != b2 {
		t.Errorf("BytesSent differ between transports: tcp %d, mem %d", b1, b2)
	}
}
