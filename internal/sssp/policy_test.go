package sssp

import (
	"reflect"
	"testing"

	"parsssp/internal/gen"
	"parsssp/internal/graph"
	"parsssp/internal/rmat"
)

func TestParseSteppingPolicy(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want SteppingPolicy
	}{
		{"delta", PolicyDelta},
		{"radius", PolicyRadius},
		{"rho", PolicyRho},
	} {
		got, err := ParseSteppingPolicy(tc.s)
		if err != nil || got != tc.want {
			t.Errorf("ParseSteppingPolicy(%q) = %v, %v; want %v", tc.s, got, err, tc.want)
		}
		if got.String() != tc.s {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.s)
		}
	}
	if _, err := ParseSteppingPolicy("dial"); err == nil {
		t.Error("ParseSteppingPolicy accepted unknown policy")
	}
}

func TestPolicyOptionValidation(t *testing.T) {
	push := ModePush
	bad := []Options{
		func() Options { o := RadiusSteppingOptions(0); o.Prune = true; return o }(),
		func() Options { o := RadiusSteppingOptions(0); o.EdgeClassification = true; o.IOS = true; return o }(),
		func() Options { o := RhoSteppingOptions(0); o.Hybrid = true; return o }(),
		func() Options { o := RhoSteppingOptions(0); o.Prune = true; o.Census = true; return o }(),
		func() Options { o := RadiusSteppingOptions(0); o.ForceMode = &push; return o }(),
		func() Options { o := RhoSteppingOptions(0); o.DecisionSequence = []Mode{push}; return o }(),
		{Policy: PolicyRadius, Delta: 1, RadiusK: -1},
		{Policy: PolicyRho, Delta: 1, Rho: -1},
		{Policy: SteppingPolicy(42), Delta: 1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d (%+v): Validate accepted invalid options", i, o)
		}
	}
	good := []Options{
		RadiusSteppingOptions(0), RadiusSteppingOptions(8),
		RhoSteppingOptions(0), RhoSteppingOptions(512),
		func() Options { o := RhoSteppingOptions(0); o.ExecMode = ExecAsync; return o }(),
	}
	for i, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("case %d: Validate rejected valid options: %v", i, err)
		}
	}
}

// policyTestGraphs returns the equivalence-matrix graph families: skewed
// R-MAT (zero weights included) and a long-diameter grid, two seeds each.
func policyTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := make(map[string]*graph.Graph)
	for _, seed := range []uint64{123, 777} {
		g, err := rmat.Generate(rmat.Family1(10, seed))
		if err != nil {
			t.Fatal(err)
		}
		out["rmat/"+string(rune('0'+seed%10))] = g
		gr, err := gen.Grid(24, 24, 1, 16, seed)
		if err != nil {
			t.Fatal(err)
		}
		out["grid/"+string(rune('0'+seed%10))] = gr
	}
	return out
}

// TestSeqPolicyOraclesMatchDijkstra proves the sequential Radius/ρ
// references compute exact distances, including through zero-weight
// edges (the R-MAT weights include zeros).
func TestSeqPolicyOraclesMatchDijkstra(t *testing.T) {
	for name, g := range policyTestGraphs(t) {
		src := testRoot(g)
		want, err := Dijkstra(g, src)
		if err != nil {
			t.Fatal(err)
		}
		rad, err := SeqRadiusStepping(g, src, 0)
		if err != nil {
			t.Fatalf("%s: SeqRadiusStepping: %v", name, err)
		}
		if !reflect.DeepEqual(rad.Dist, want.Dist) {
			t.Errorf("%s: SeqRadiusStepping distances differ from Dijkstra", name)
		}
		if rad.Reached != want.Reached {
			t.Errorf("%s: radius reached %d, Dijkstra %d", name, rad.Reached, want.Reached)
		}
		for _, rho := range []int{1, 64, 0} {
			rr, err := SeqRhoStepping(g, src, rho)
			if err != nil {
				t.Fatalf("%s: SeqRhoStepping(%d): %v", name, rho, err)
			}
			if !reflect.DeepEqual(rr.Dist, want.Dist) {
				t.Errorf("%s: SeqRhoStepping(%d) distances differ from Dijkstra", name, rho)
			}
		}
		// Radius parameter variants stay exact too.
		for _, k := range []int{1, 8} {
			rk, err := SeqRadiusStepping(g, src, k)
			if err != nil {
				t.Fatalf("%s: SeqRadiusStepping(k=%d): %v", name, k, err)
			}
			if !reflect.DeepEqual(rk.Dist, want.Dist) {
				t.Errorf("%s: SeqRadiusStepping(k=%d) distances differ", name, k)
			}
		}
	}
}

// TestSteppingPolicyEquivalence is the cross-policy equivalence matrix:
// for every graph family × seed × rank count, the distributed Radius and
// ρ engines must reproduce their sequential oracles' distances exactly,
// and on strictly-positive weights their canonical parent trees
// byte-for-byte; all policies (including Δ=25) agree on distances.
func TestSteppingPolicyEquivalence(t *testing.T) {
	for name, g0 := range policyTestGraphs(t) {
		g := positivize(t, g0)
		src := testRoot(g)
		delta, err := SeqDeltaStepping(g, src, 25)
		if err != nil {
			t.Fatal(err)
		}
		oracle := map[SteppingPolicy]*SeqResult{}
		if oracle[PolicyRadius], err = SeqRadiusStepping(g, src, 0); err != nil {
			t.Fatal(err)
		}
		if oracle[PolicyRho], err = SeqRhoStepping(g, src, 0); err != nil {
			t.Fatal(err)
		}
		for pol, o := range oracle {
			if !reflect.DeepEqual(o.Dist, delta.Dist) {
				t.Errorf("%s: %v oracle distances differ from Δ-stepping's", name, pol)
			}
		}
		// Canonical parents: on positive weights every policy elects
		// min{u : d(u)+w(u,v) = d(v)}, so the two oracles agree exactly
		// (SeqDeltaStepping predates the election and is distance-only).
		if !reflect.DeepEqual(oracle[PolicyRadius].Parent, oracle[PolicyRho].Parent) {
			t.Errorf("%s: radius and rho oracle parents disagree", name)
		}
		for _, ranks := range []int{1, 2, 4, 8} {
			// The distributed Δ engine elects canonically too: its parents
			// must match the non-Δ oracles', proving all three policies
			// land on one tree.
			dopts := DelOptions(25)
			dopts.Threads = 2
			dres := mustRun(t, g, ranks, src, dopts)
			if !reflect.DeepEqual(dres.Dist, delta.Dist) {
				t.Errorf("%s: delta ranks=%d distances differ from oracle", name, ranks)
			}
			if !reflect.DeepEqual(dres.Parent, oracle[PolicyRadius].Parent) {
				t.Errorf("%s: delta ranks=%d parents differ from canonical tree", name, ranks)
			}
			for pol, o := range oracle {
				var opts Options
				if pol == PolicyRadius {
					opts = RadiusSteppingOptions(0)
				} else {
					opts = RhoSteppingOptions(0)
				}
				opts.Threads = 2
				res := mustRun(t, g, ranks, src, opts)
				if !reflect.DeepEqual(res.Dist, o.Dist) {
					t.Errorf("%s: %v ranks=%d distances differ from oracle", name, pol, ranks)
				}
				if !reflect.DeepEqual(res.Parent, o.Parent) {
					t.Errorf("%s: %v ranks=%d parents differ from oracle", name, pol, ranks)
				}
			}
		}
	}
}

// TestSteppingPolicyZeroWeightDistances drops the positivization: with
// zero-weight edges in play, parents are schedule-dependent but the
// distances must still be exact under every policy and rank count.
func TestSteppingPolicyZeroWeightDistances(t *testing.T) {
	g := rmatTestGraph // scale-11, weights include zeros
	src := testRoot(g)
	want, err := Dijkstra(g, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 4} {
		for _, opts := range []Options{RadiusSteppingOptions(0), RhoSteppingOptions(0)} {
			opts.Threads = 2
			res := mustRun(t, g, ranks, src, opts)
			if !reflect.DeepEqual(res.Dist, want.Dist) {
				t.Errorf("%v ranks=%d: distances differ from Dijkstra on zero-weight graph",
					opts.Policy, ranks)
			}
		}
	}
}

// TestSteppingPolicyOverTCP runs the non-Δ policies over real TCP
// sockets with both wire formats: transport and encoding must not
// perturb the byte-identical trees.
func TestSteppingPolicyOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP matrix in -short mode")
	}
	g0, err := rmat.Generate(rmat.Family1(10, 123))
	if err != nil {
		t.Fatal(err)
	}
	g := positivize(t, g0)
	src := testRoot(g)
	oracle := map[SteppingPolicy]*SeqResult{}
	if oracle[PolicyRadius], err = SeqRadiusStepping(g, src, 0); err != nil {
		t.Fatal(err)
	}
	if oracle[PolicyRho], err = SeqRhoStepping(g, src, 0); err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 4} {
		for pol, o := range oracle {
			var opts Options
			if pol == PolicyRadius {
				opts = RadiusSteppingOptions(0)
			} else {
				opts = RhoSteppingOptions(0)
			}
			opts.Threads = 2
			res := runOverTCP(t, g, ranks, src, opts)
			if !reflect.DeepEqual(res.Dist, o.Dist) {
				t.Errorf("%v ranks=%d: TCP distances differ", pol, ranks)
			}
			if !reflect.DeepEqual(res.Parent, o.Parent) {
				t.Errorf("%v ranks=%d: TCP parents differ", pol, ranks)
			}
		}
	}
}

// TestSteppingPolicyAsync crosses the non-Δ policies with the
// asynchronous execution mode: the async driver files buckets through
// the policy's key quantum and defers through its deferWeight, and must
// still converge to the oracle trees.
func TestSteppingPolicyAsync(t *testing.T) {
	g0, err := rmat.Generate(rmat.Family1(10, 777))
	if err != nil {
		t.Fatal(err)
	}
	g := positivize(t, g0)
	src := testRoot(g)
	for _, mk := range []func() Options{
		func() Options { return RadiusSteppingOptions(0) },
		func() Options { return RhoSteppingOptions(0) },
	} {
		opts := mk()
		want, err := Dijkstra(g, src)
		if err != nil {
			t.Fatal(err)
		}
		opts.ExecMode = ExecAsync
		opts.Threads = 2
		for _, ranks := range []int{1, 4} {
			res := mustRun(t, g, ranks, src, opts)
			if !reflect.DeepEqual(res.Dist, want.Dist) {
				t.Errorf("async %v ranks=%d: distances differ from Dijkstra", opts.Policy, ranks)
			}
		}
	}
}

// TestPolicyMachineReuse issues two queries from different sources on
// one Machine per policy: the reset path must clear the policies'
// per-query state (settled flags, pending flags, store) so the second
// answer is as exact as the first — and a Δ Machine re-used after a
// radius/rho Machine's allocation pattern stays untouched.
func TestPolicyMachineReuse(t *testing.T) {
	g0, err := rmat.Generate(rmat.Family1(10, 123))
	if err != nil {
		t.Fatal(err)
	}
	g := positivize(t, g0)
	srcA := testRoot(g)
	srcB := graph.Vertex(1)
	for _, opts := range []Options{RadiusSteppingOptions(0), RhoSteppingOptions(0)} {
		opts.Threads = 2
		m, err := NewMachine(g, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []graph.Vertex{srcA, srcB, srcA} {
			want, err := Dijkstra(g, src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Query(src)
			if err != nil {
				t.Fatalf("%v: Query(%d): %v", opts.Policy, src, err)
			}
			if !reflect.DeepEqual(res.Dist, want.Dist) {
				t.Errorf("%v: reused machine wrong distances from %d", opts.Policy, src)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTunePolicySmoke sweeps a small candidate set and checks the result
// shape; the winner must be one of the candidates and every trial
// measured.
func TestTunePolicySmoke(t *testing.T) {
	g, err := rmat.Generate(rmat.Family1(9, 42))
	if err != nil {
		t.Fatal(err)
	}
	roots, err := PickRoots(g, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	cands := []PolicyCandidate{
		{Policy: PolicyDelta, Delta: 25},
		{Policy: PolicyRadius, RadiusK: 8},
		{Policy: PolicyRho, Rho: 512},
	}
	res, err := TunePolicy(g, 2, roots, OptOptions(25), cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != len(cands) {
		t.Fatalf("got %d trials, want %d", len(res.Trials), len(cands))
	}
	found := false
	for _, tr := range res.Trials {
		if tr.Mean <= 0 {
			t.Errorf("trial %v has non-positive mean %v", tr.Candidate, tr.Mean)
		}
		if tr.Candidate == res.Best {
			found = true
		}
	}
	if !found {
		t.Errorf("best %v not among trials", res.Best)
	}
}

// TestShortlistPolicyCandidates checks the histogram-driven shortlist
// covers all three policies with in-range parameters.
func TestShortlistPolicyCandidates(t *testing.T) {
	g, err := rmat.Generate(rmat.Family1(10, 42))
	if err != nil {
		t.Fatal(err)
	}
	cands := ShortlistPolicyCandidates(g)
	seen := map[SteppingPolicy]int{}
	for _, c := range cands {
		seen[c.Policy]++
		if err := c.validate(); err != nil {
			t.Errorf("shortlisted invalid candidate %v: %v", c, err)
		}
		if c.Policy == PolicyDelta && (c.Delta < 1 || c.Delta > g.MaxWeight()+1) {
			t.Errorf("Δ candidate %d outside weight range", c.Delta)
		}
	}
	for _, pol := range []SteppingPolicy{PolicyDelta, PolicyRadius, PolicyRho} {
		if seen[pol] == 0 {
			t.Errorf("shortlist has no %v candidate", pol)
		}
	}
}

// TestPolicyString covers the resolved-parameter rendering used by
// traces, the ssspd stats line and the tuner.
func TestPolicyString(t *testing.T) {
	cases := []struct {
		o    Options
		want string
	}{
		{DelOptions(25), "delta(25)"},
		{BellmanFordOptions(), "delta(inf)"},
		{RadiusSteppingOptions(0), "radius(32)"},
		{RadiusSteppingOptions(8), "radius(8)"},
		{RhoSteppingOptions(0), "rho(4096)"},
		{RhoSteppingOptions(512), "rho(512)"},
	}
	for _, tc := range cases {
		if got := tc.o.PolicyString(); got != tc.want {
			t.Errorf("PolicyString() = %q, want %q", got, tc.want)
		}
	}
}
