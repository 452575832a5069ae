package sssp_test

import (
	"reflect"
	"testing"

	"parsssp/internal/graph"
	"parsssp/internal/rmat"
	"parsssp/internal/sssp"
	"parsssp/internal/validate"
)

// wirePin is what a run puts on the wire: its record-level counters and
// its byte count.
type wirePin struct {
	Relax                             sssp.RelaxCounts
	Phases, Epochs, BFPhases, Reached int64
	HybridSwitched                    bool
	Decisions                         []sssp.Mode
	Buckets                           []sssp.BucketStats
	RecordsSent, RecordsReceived      int64
	ExchangeCalls, BytesSent          int64
}

func pinOf(s sssp.Stats) wirePin {
	return wirePin{
		Relax:           s.Relax,
		Phases:          s.Phases,
		Epochs:          s.Epochs,
		BFPhases:        s.BFPhases,
		Reached:         s.Reached,
		HybridSwitched:  s.HybridSwitched,
		Decisions:       s.Decisions,
		Buckets:         s.Buckets,
		RecordsSent:     s.Traffic.RecordsSent,
		RecordsReceived: s.Traffic.RecordsReceived,
		ExchangeCalls:   s.Traffic.ExchangeCalls,
		BytesSent:       s.Traffic.BytesSent,
	}
}

// TestWireFormatsEquivalent pins three configurations' wire traffic.
// The algorithm counters (relaxations, phases, epochs, decisions,
// buckets, reached) keep the values recorded while records were still
// staged as fixed-width bytes: neither typed staging nor sender-side
// combining nor applying self-destined records without the wire may
// change which relaxations happen. RecordsSent, RecordsReceived and
// BytesSent are pinned to the combined batches (del sends 37% of its
// uncombined records, opt 63%). The trees must still be shortest-path
// trees.
func TestWireFormatsEquivalent(t *testing.T) {
	g, err := rmat.Generate(rmat.Family1(10, 7))
	if err != nil {
		t.Fatal(err)
	}
	src := graph.Vertex(0)
	for src < graph.Vertex(g.NumVertices()) && g.Degree(src) <= 8 {
		src++
	}
	push, pull := sssp.ModePush, sssp.ModePull
	opt := sssp.OptOptions(25)
	opt.Threads = 2
	lbopt := sssp.LBOptOptions(25)
	lbopt.Threads = 3
	lbopt.ParallelApply = true
	cases := []struct {
		name string
		opts sssp.Options
		want wirePin
	}{
		{"del", sssp.DelOptions(20), wirePin{
			Relax:  sssp.RelaxCounts{ShortPush: 4565, LongPush: 18656},
			Phases: 48, Epochs: 17, BFPhases: 0, Reached: 894, HybridSwitched: false,
			Decisions: []sssp.Mode{push, push, push, push, push, push, push, push, push, push, push, push, push, push, push, push, push},
			Buckets: []sssp.BucketStats{
				{ShortPhases: 1, LongRelax: 24, Settled: 1},
				{Index: 1, ShortPhases: 11, ShortRelax: 4006, LongRelax: 12118, Settled: 239},
				{Index: 2, ShortPhases: 3, ShortRelax: 547, LongRelax: 4744, Settled: 509},
				{Index: 3, ShortPhases: 2, ShortRelax: 8, LongRelax: 788, Settled: 620},
				{Index: 4, ShortPhases: 2, ShortRelax: 2, LongRelax: 451, Settled: 701},
				{Index: 5, ShortPhases: 1, ShortRelax: 1, LongRelax: 193, Settled: 745},
				{Index: 6, ShortPhases: 1, ShortRelax: 1, LongRelax: 126, Settled: 780},
				{Index: 7, ShortPhases: 1, LongRelax: 73, Settled: 812},
				{Index: 8, ShortPhases: 1, LongRelax: 33, Settled: 828},
				{Index: 9, ShortPhases: 1, LongRelax: 29, Settled: 844},
				{Index: 10, ShortPhases: 1, LongRelax: 27, Settled: 860},
				{Index: 11, ShortPhases: 1, LongRelax: 20, Settled: 871},
				{Index: 12, ShortPhases: 1, LongRelax: 17, Settled: 883},
				{Index: 13, ShortPhases: 1, LongRelax: 8, Settled: 889},
				{Index: 14, ShortPhases: 1, LongRelax: 3, Settled: 892},
				{Index: 15, ShortPhases: 1, LongRelax: 1, Settled: 893},
				{Index: 18, ShortPhases: 1, LongRelax: 1, Settled: 894},
			},
			RecordsSent: 6353, RecordsReceived: 6353, ExchangeCalls: 192, BytesSent: 27863,
		}},
		{"opt", opt, wirePin{
			Relax:  sssp.RelaxCounts{ShortPush: 3837, OuterShortPush: 1084, LongPush: 24, PullRequests: 1809, PullResponses: 1654, BellmanFord: 3048, Skipped: 5148},
			Phases: 18, Epochs: 2, BFPhases: 3, Reached: 894, HybridSwitched: true,
			Decisions: []sssp.Mode{push, pull},
			Buckets: []sssp.BucketStats{
				{ShortPhases: 1, LongRelax: 24, Requests: 18154, Settled: 1, PushCost: 42, PullCost: 23515},
				{Index: 1, Mode: sssp.ModePull, ShortPhases: 12, ShortRelax: 3837, LongRelax: 4547, Requests: 1805, Settled: 423, PushCost: 15725, PullCost: 3745},
			},
			RecordsSent: 5358, RecordsReceived: 5358, ExchangeCalls: 84, BytesSent: 24231,
		}},
		{"lbopt-parallel", lbopt, wirePin{
			Relax:  sssp.RelaxCounts{ShortPush: 3837, OuterShortPush: 1084, LongPush: 24, PullRequests: 1809, PullResponses: 1654, BellmanFord: 3048, Skipped: 5148},
			Phases: 18, Epochs: 2, BFPhases: 3, Reached: 894, HybridSwitched: true,
			Decisions: []sssp.Mode{push, pull},
			Buckets: []sssp.BucketStats{
				{ShortPhases: 1, LongRelax: 24, Requests: 18154, Settled: 1, PushCost: 42, PullCost: 23515},
				{Index: 1, Mode: sssp.ModePull, ShortPhases: 12, ShortRelax: 3837, LongRelax: 4547, Requests: 1805, Settled: 423, PushCost: 15725, PullCost: 3745},
			},
			RecordsSent: 5358, RecordsReceived: 5358, ExchangeCalls: 84, BytesSent: 24231,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := sssp.Run(g, 4, src, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := validate.Distances(g, src, res.Dist); err != nil {
				t.Error(err)
			}
			if err := validate.CheckTree(g, src, res.Dist, res.Parent); err != nil {
				t.Error(err)
			}
			if got := pinOf(res.Stats); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("wire traffic moved:\ngot  %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
