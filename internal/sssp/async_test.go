package sssp

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"parsssp/internal/comm"
	"parsssp/internal/comm/memtransport"
	"parsssp/internal/graph"
	"parsssp/internal/rmat"
)

// asyncOpts returns opts with the execution mode flipped to async.
func asyncOpts(opts Options) Options {
	opts.ExecMode = ExecAsync
	return opts
}

// TestAsyncMatchesBSPMemtransport is the equivalence oracle of the
// asynchronous mode: on strictly positive weights, async must reproduce
// the BSP reference byte for byte — identical distances AND identical
// canonical parent trees — whatever the message arrival order. See
// async.go for why the parents are schedule-independent.
func TestAsyncMatchesBSPMemtransport(t *testing.T) {
	for _, seed := range []uint64{123, 777} {
		g, err := rmat.Generate(rmat.Family1(11, seed))
		if err != nil {
			t.Fatal(err)
		}
		g = positivize(t, g)
		src := testRoot(g)
		for _, ranks := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("seed=%d/ranks=%d", seed, ranks), func(t *testing.T) {
				opts := OptOptions(25)
				opts.Threads = 2
				want := mustRun(t, g, ranks, src, opts)
				got := mustRun(t, g, ranks, src, asyncOpts(opts))
				if !reflect.DeepEqual(got.Dist, want.Dist) {
					t.Fatal("async distances differ from BSP")
				}
				if !reflect.DeepEqual(got.Parent, want.Parent) {
					t.Fatal("async parent tree differs from BSP")
				}
				if got.Stats.AsyncRounds == 0 || got.Stats.AsyncProbes == 0 {
					t.Errorf("async run reported no async work: rounds=%d probes=%d",
						got.Stats.AsyncRounds, got.Stats.AsyncProbes)
				}
				if want.Stats.AsyncRounds != 0 {
					t.Errorf("BSP run reported async rounds: %d", want.Stats.AsyncRounds)
				}
			})
		}
	}
}

// TestAsyncMatchesBSPOverTCP repeats the equivalence oracle over real
// TCP sockets, covering the ctrlAsync frame path end to end.
func TestAsyncMatchesBSPOverTCP(t *testing.T) {
	g := positivize(t, rmatTestGraph)
	src := testRoot(g)
	for _, ranks := range []int{2, 4} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			opts := OptOptions(25)
			opts.Threads = 2
			want := runOverTCP(t, g, ranks, src, opts)
			got := runOverTCP(t, g, ranks, src, asyncOpts(opts))
			if !reflect.DeepEqual(got.Dist, want.Dist) {
				t.Fatal("async-over-TCP distances differ from BSP")
			}
			if !reflect.DeepEqual(got.Parent, want.Parent) {
				t.Fatal("async-over-TCP parent tree differs from BSP")
			}
		})
	}
}

// TestAsyncMachineReuse proves the reset path: one Machine answering
// repeated async queries from different sources, each checked against
// Dijkstra, with traffic counters restarting from zero.
func TestAsyncMachineReuse(t *testing.T) {
	g := rmatTestGraph
	opts := asyncOpts(OptOptions(25))
	opts.Threads = 2
	m, err := NewMachine(g, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srcs := []graph.Vertex{testRoot(g), 0, 1}
	for _, s := range srcs {
		res, err := m.Query(s)
		if err != nil {
			t.Fatalf("query src=%d: %v", s, err)
		}
		want, err := Dijkstra(g, s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Dist, want.Dist) {
			t.Fatalf("src=%d: async machine query distances wrong", s)
		}
	}
}

// TestAsyncChaos drives the async mode's only collective — the
// termination probe — through every fault offset of its schedule: each
// faulted run must end in a clean error or a correct result, never a
// hang (the test -timeout is the detector) or a panic. Batches pass
// through Faulty untouched and unindexed, so the schedule recorded here
// counts probes only.
func TestAsyncChaos(t *testing.T) {
	g := rmatTestGraph
	src := testRoot(g)
	want, err := Dijkstra(g, src)
	if err != nil {
		t.Fatal(err)
	}
	opts := asyncOpts(chaosOpts())

	// Clean run to learn the probe count (AsyncProbes is collective —
	// identical on every rank — and the engine's probe schedule from a
	// given start is reproducible enough to aim single faults at).
	clean, err := Run(g, chaosRanks, src, opts)
	if err != nil {
		t.Fatalf("clean async run: %v", err)
	}
	span := int(clean.Stats.AsyncProbes)
	if span == 0 {
		t.Fatal("clean async run settled without a probe")
	}

	for idx := 0; idx <= span; idx++ {
		for _, kind := range []comm.FaultKind{comm.FaultError, comm.FaultCrash} {
			group, err := memtransport.New(chaosRanks)
			if err != nil {
				t.Fatal(err)
			}
			transports := group.Endpoints()
			f, err := comm.NewFaulty(transports[1], comm.Fault{Collective: idx, Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			transports[1] = f
			res, err := RunWithTransports(g, blockDist(g.NumVertices(), chaosRanks), src, opts, transports)
			if err != nil {
				// Async probe counts are timing-dependent: a fault beyond
				// this run's schedule fires never, and the run succeeds.
				if !errors.Is(err, comm.ErrInjected) {
					t.Errorf("probe %d %v: error %v does not carry the injected cause", idx, kind, err)
				}
				continue
			}
			if !reflect.DeepEqual(res.Dist, want.Dist) {
				t.Errorf("probe %d %v: faulted run returned wrong distances without an error", idx, kind)
			}
		}
	}
}

// TestAsyncOptionsValidation covers the ExecMode surface of Validate and
// ParseExecMode.
func TestAsyncOptionsValidation(t *testing.T) {
	opts := asyncOpts(OptOptions(25))
	opts.Census = true
	if err := opts.Validate(); err == nil {
		t.Error("Census+Async validated")
	}
	bad := OptOptions(25)
	bad.ExecMode = ExecMode(99)
	if err := bad.Validate(); err == nil {
		t.Error("unknown ExecMode validated")
	}
	for _, tc := range []struct {
		in   string
		want ExecMode
		ok   bool
	}{
		{"bsp", ExecBSP, true},
		{"async", ExecAsync, true},
		{"turbo", 0, false},
	} {
		got, err := ParseExecMode(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("ParseExecMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if ExecBSP.String() != "bsp" || ExecAsync.String() != "async" {
		t.Error("ExecMode.String mismatch")
	}
}

// TestAsyncNeedsBatchTransport checks the graceful error when the
// transport cannot do point-to-point batches.
func TestAsyncNeedsBatchTransport(t *testing.T) {
	g := rmatTestGraph
	group, err := memtransport.New(2)
	if err != nil {
		t.Fatal(err)
	}
	transports := group.Endpoints()
	wrapped := make([]comm.Transport, len(transports))
	for i, tr := range transports {
		wrapped[i] = collectiveOnly{tr}
	}
	_, err = RunWithTransports(g, blockDist(g.NumVertices(), 2), testRoot(g), asyncOpts(OptOptions(25)), wrapped)
	if err == nil {
		t.Fatal("async ran over a transport with no batch support")
	}
}

// collectiveOnly hides any BatchSender the wrapped transport implements.
type collectiveOnly struct{ comm.Transport }
