package speedup

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"usimrank/internal/bitvec"
	"usimrank/internal/mc"
	"usimrank/internal/rng"
	"usimrank/internal/ugraph"
	"usimrank/internal/walkpr"
)

func TestBuildFiltersOneChoicePerProcess(t *testing.T) {
	g := ugraph.PaperFig1()
	const N = 64
	f := BuildFilters(g, N, rng.New(1))
	// For every vertex and process, at most one outgoing arc may carry
	// the process's bit.
	for w := 0; w < g.NumVertices(); w++ {
		lo, hi := g.ArcRange(w)
		for i := 0; i < N; i++ {
			set := 0
			for id := lo; id < hi; id++ {
				if fv := f.Arc(id); fv != nil && fv.Get(i) {
					set++
				}
			}
			if set > 1 {
				t.Fatalf("vertex %d process %d uses %d arcs", w, i, set)
			}
		}
	}
}

func TestBuildFiltersChoiceFrequencies(t *testing.T) {
	// Vertex 0 has two certain arcs; each must be chosen ~half the time.
	b := ugraph.NewBuilder(3)
	b.AddArc(0, 1, 1)
	b.AddArc(0, 2, 1)
	g := b.MustBuild()
	const N = 40000
	f := BuildFilters(g, N, rng.New(5))
	c0 := f.Arc(0).PopCount()
	c1 := f.Arc(1).PopCount()
	if c0+c1 != N {
		t.Fatalf("certain arcs chosen %d+%d times, want %d", c0, c1, N)
	}
	if math.Abs(float64(c0)/N-0.5) > 0.01 {
		t.Fatalf("arc 0 chosen with frequency %v", float64(c0)/N)
	}
}

func TestBuildFiltersRespectsProbabilities(t *testing.T) {
	// Single arc with p = 0.3: chosen exactly when instantiated.
	b := ugraph.NewBuilder(2)
	b.AddArc(0, 1, 0.3)
	g := b.MustBuild()
	const N = 40000
	f := BuildFilters(g, N, rng.New(7))
	got := float64(f.Arc(0).PopCount()) / N
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("arc used with frequency %v, want 0.3", got)
	}
}

func TestPropagateDeterministicPath(t *testing.T) {
	// Functional certain graph 0→1→2→0: every process follows the path,
	// so each level has all N bits on exactly one vertex.
	b := ugraph.NewBuilder(3)
	b.AddArc(0, 1, 1)
	b.AddArc(1, 2, 1)
	b.AddArc(2, 0, 1)
	g := b.MustBuild()
	const N = 128
	f := BuildFilters(g, N, rng.New(3))
	tab := Propagate(f, 0, 6)
	wantAt := []int32{0, 1, 2, 0, 1, 2, 0}
	for k := 0; k <= 6; k++ {
		lvl := tab.Vertices(k)
		if len(lvl) != 1 {
			t.Fatalf("level %d has %d vertices", k, len(lvl))
		}
		if lvl[0] != wantAt[k] || tab.Count(k, wantAt[k]) != N {
			t.Fatalf("level %d: expected all bits at %d", k, wantAt[k])
		}
	}
}

func TestPropagateDeadProcessesDisappear(t *testing.T) {
	// 0 → 1 with p=0.5, 1 is a sink: level 1 holds only the surviving
	// processes, level 2 is empty.
	b := ugraph.NewBuilder(2)
	b.AddArc(0, 1, 0.5)
	g := b.MustBuild()
	const N = 20000
	f := BuildFilters(g, N, rng.New(11))
	tab := Propagate(f, 0, 2)
	alive := tab.Count(1, 1)
	if math.Abs(float64(alive)/N-0.5) > 0.02 {
		t.Fatalf("survivors %v, want ≈0.5", float64(alive)/N)
	}
	if len(tab.Vertices(2)) != 0 {
		t.Fatalf("level 2 should be empty, has %d vertices", len(tab.Vertices(2)))
	}
}

// TestEstimateUnbiasedHighGirth compares Eq. 16 estimates (independent
// pools) with exact meeting probabilities on a graph whose girth exceeds
// the walk length, where fixed-choice and re-rolled-choice sampling
// coincide.
func TestEstimateUnbiasedHighGirth(t *testing.T) {
	// 8-cycle with probabilistic chords; girth of the skeleton is 8 > n=3.
	b := ugraph.NewBuilder(8)
	for i := 0; i < 8; i++ {
		b.AddArc(i, (i+1)%8, 0.5+0.05*float64(i))
	}
	b.AddArc(0, 2, 0.4)
	b.AddArc(3, 5, 0.7)
	g := b.MustBuild()

	const N, n = 60000, 3
	u, v := 0, 3
	r := rng.New(13)
	fu := BuildFilters(g, N, r.Split())
	fv := BuildFilters(g, N, r.Split())
	got := Estimate(fu, fv, u, v, n)

	rowsU, err := walkpr.TransitionRows(g, u, n, walkpr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rowsV, err := walkpr.TransitionRows(g, v, n, walkpr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= n; k++ {
		want := rowsU[k].Dot(rowsV[k])
		if math.Abs(got[k]-want) > 0.01 {
			t.Fatalf("m̂(%d) = %v, exact %v", k, got[k], want)
		}
	}
}

// TestEstimateMatchesSamplingStatistically runs both estimators on the
// Fig. 1 graph and checks they agree within Monte Carlo tolerance for a
// pair of vertices whose short walks do not revisit (u=v4, v=v5, n=2).
func TestEstimateMatchesSamplingStatistically(t *testing.T) {
	g := ugraph.PaperFig1()
	const N, n = 60000, 2
	u, v := 3, 4
	r := rng.New(41)
	fu := BuildFilters(g, N, r.Split())
	fv := BuildFilters(g, N, r.Split())
	sp := Estimate(fu, fv, u, v, n)

	r2 := rng.New(43)
	wu := mc.Sample(g, u, n, N, r2)
	wv := mc.Sample(g, v, n, N, r2)
	ms := mc.MeetingEstimates(wu, wv)

	for k := 0; k <= n; k++ {
		if math.Abs(sp[k]-ms[k]) > 0.012 {
			t.Fatalf("k=%d: speedup %v vs sampling %v", k, sp[k], ms[k])
		}
	}
}

func TestSharedPoolSelfPairIsDegenerate(t *testing.T) {
	// With a shared pool and u == v the two walk sets are identical, so
	// m̂(k) = survival fraction at step k (every surviving pair "meets").
	// This documents the coupling the shared pool introduces.
	g := ugraph.PaperFig1()
	const N, n = 2000, 3
	f := BuildFilters(g, N, rng.New(19))
	m := Estimate(f, f, 2, 2, n)
	for k := 0; k <= n; k++ {
		tab := Propagate(f, 2, n)
		survive := 0
		for _, w := range tab.Vertices(k) {
			survive += tab.Count(k, w)
		}
		want := float64(survive) / N
		if math.Abs(m[k]-want) > 1e-12 {
			t.Fatalf("k=%d: shared-pool self-pair m̂ = %v, survival %v", k, m[k], want)
		}
	}
}

func TestEstimatePanicsOnDifferentGraphs(t *testing.T) {
	g1 := ugraph.PaperFig1()
	g2 := ugraph.PaperFig1()
	f1 := BuildFilters(g1, 8, rng.New(1))
	f2 := BuildFilters(g2, 8, rng.New(2))
	defer func() {
		if recover() == nil {
			t.Fatal("cross-graph estimate accepted")
		}
	}()
	Estimate(f1, f2, 0, 1, 2)
}

func TestMeetingEstimatesMismatchedPanics(t *testing.T) {
	g := ugraph.PaperFig1()
	fa := BuildFilters(g, 8, rng.New(1))
	fb := BuildFilters(g, 16, rng.New(2))
	ta := Propagate(fa, 0, 2)
	tb := Propagate(fb, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched tables accepted")
		}
	}()
	MeetingEstimates(ta, tb)
}

func TestBuildFiltersPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("N=0 accepted")
		}
	}()
	BuildFilters(ugraph.PaperFig1(), 0, rng.New(1))
}

// BenchmarkPropagateFig1 times one propagation into reused tables, the
// form every engine path uses. CI pins it at 0 allocs/op.
func BenchmarkPropagateFig1(b *testing.B) {
	g := ugraph.PaperFig1()
	f := BuildFilters(g, 1000, rng.New(1))
	var tab Tables
	PropagateInto(f, 0, 5, &tab) // warm the buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PropagateInto(f, 0, 5, &tab)
	}
}

func BenchmarkBuildFiltersFig1(b *testing.B) {
	g := ugraph.PaperFig1()
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildFilters(g, 1000, r)
	}
}

// TestPatchFiltersMatchesFreshBuild pins the derive-on-update identity:
// patching a pool across a mutation is bit-identical to building a
// fresh pool over the mutated graph from the same root RNG.
func TestPatchFiltersMatchesFreshBuild(t *testing.T) {
	r := rng.New(909)
	const N = 96
	for trial := 0; trial < 60; trial++ {
		n := 3 + r.Intn(10)
		b := ugraph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if r.Bool(0.3) {
					b.AddArc(u, v, 0.05+0.95*r.Float64())
				}
			}
		}
		g := b.MustBuild()
		old := BuildFilters(g, N, rng.New(42))

		// Random mutation batch; touched = tails of the mutated arcs
		// (the vertices whose out-row changes).
		d := ugraph.NewDelta(g)
		touchedSet := map[int32]bool{}
		for i := 0; i < 1+r.Intn(4); i++ {
			u, v := r.Intn(n), r.Intn(n)
			var up ugraph.ArcUpdate
			if d.Prob(u, v) > 0 {
				if r.Bool(0.5) {
					up = ugraph.ArcUpdate{Op: ugraph.OpDelete, U: u, V: v}
				} else {
					up = ugraph.ArcUpdate{Op: ugraph.OpReweight, U: u, V: v, P: 0.05 + 0.95*r.Float64()}
				}
			} else {
				up = ugraph.ArcUpdate{Op: ugraph.OpInsert, U: u, V: v, P: 0.05 + 0.95*r.Float64()}
			}
			if err := d.Stage(up); err != nil {
				t.Fatal(err)
			}
			touchedSet[int32(u)] = true
		}
		newG := d.Compact()
		var touched []int32
		for w := range touchedSet {
			touched = append(touched, w)
		}

		patched := PatchFilters(old, newG, touched, nil)
		fresh := BuildFilters(newG, N, rng.New(42))
		if patched.N != fresh.N || len(patched.arc) != len(fresh.arc) {
			t.Fatalf("shape mismatch: N %d/%d arcs %d/%d", patched.N, fresh.N, len(patched.arc), len(fresh.arc))
		}
		for id := range fresh.arc {
			pv, fv := patched.arc[id], fresh.arc[id]
			switch {
			case pv == nil && fv == nil:
			case pv == nil || fv == nil:
				t.Fatalf("trial %d arc %d: nil mismatch (patched %v, fresh %v)", trial, id, pv != nil, fv != nil)
			default:
				for i := 0; i < N; i++ {
					if pv.Get(i) != fv.Get(i) {
						t.Fatalf("trial %d arc %d bit %d differs", trial, id, i)
					}
				}
			}
		}
	}
}

func TestPatchFiltersPanicsOnUnmarkedRowChange(t *testing.T) {
	g := ugraph.PaperFig1()
	old := BuildFilters(g, 8, rng.New(1))
	newG, err := g.Apply([]ugraph.ArcUpdate{{Op: ugraph.OpInsert, U: 0, V: 0, P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unmarked row-length change")
		}
	}()
	PatchFilters(old, newG, nil, nil) // vertex 0 grew a row arc but is not marked
}

// refTables is the map-of-vectors layout the flat Tables replaced:
// levels[k][w] = M_w[k]. It survives here only as the reference oracle
// the flat layout is pinned against, bit for bit.
type refTables struct {
	n      int
	levels []map[int32]*bitvec.Vector
}

// refPropagate is the original map-based Fig. 5 propagation.
func refPropagate(f *Filters, src, n int) refTables {
	g := f.g
	t := refTables{n: f.N, levels: make([]map[int32]*bitvec.Vector, n+1)}
	start := bitvec.New(f.N)
	start.SetAll()
	t.levels[0] = map[int32]*bitvec.Vector{int32(src): start}
	for k := 0; k < n; k++ {
		next := make(map[int32]*bitvec.Vector)
		for w, mw := range t.levels[k] {
			lo, hi := g.ArcRange(int(w))
			for id := lo; id < hi; id++ {
				fe := f.arc[id]
				if fe == nil {
					continue
				}
				x := g.Out(int(w))[id-lo]
				mx := next[x]
				if mx == nil {
					mx = bitvec.New(f.N)
					next[x] = mx
				}
				mx.OrAnd(mw, fe)
			}
		}
		for x, mx := range next {
			if !mx.Any() {
				delete(next, x)
			}
		}
		t.levels[k+1] = next
	}
	return t
}

// refMeetingEstimates is the original map-based Eq. 16 combination.
func refMeetingEstimates(a, b refTables) []float64 {
	m := make([]float64, len(a.levels))
	for k := range m {
		la, lb := a.levels[k], b.levels[k]
		if len(lb) < len(la) {
			la, lb = lb, la
		}
		total := 0
		for w, va := range la {
			if vb, ok := lb[w]; ok {
				total += va.AndPopCount(vb)
			}
		}
		m[k] = float64(total) / float64(a.n)
	}
	return m
}

// checkTables asserts got holds exactly the reference tables: the same
// vertex set per level, in ascending order, with identical words.
func checkTables(t *testing.T, tag string, got *Tables, want refTables) {
	t.Helper()
	if got.Steps != len(want.levels)-1 || got.N != want.n {
		t.Fatalf("%s: shape Steps=%d N=%d, want %d/%d", tag, got.Steps, got.N, len(want.levels)-1, want.n)
	}
	for k, lvl := range want.levels {
		keys := make([]int32, 0, len(lvl))
		for w := range lvl {
			keys = append(keys, w)
		}
		slices.Sort(keys)
		if !slices.Equal(got.Vertices(k), keys) {
			t.Fatalf("%s: level %d vertices %v, want %v", tag, k, got.Vertices(k), keys)
		}
		for _, w := range keys {
			if !slices.Equal(got.Row(k, w), lvl[w].Words()) {
				t.Fatalf("%s: level %d vertex %d words differ", tag, k, w)
			}
			if got.Count(k, w) != lvl[w].PopCount() {
				t.Fatalf("%s: level %d vertex %d count %d, want %d", tag, k, w, got.Count(k, w), lvl[w].PopCount())
			}
		}
		if got.Row(k, -1) != nil || got.Count(k, -1) != 0 {
			t.Fatalf("%s: level %d reports a row for an absent vertex", tag, k)
		}
	}
}

// randomLoopyGraph draws a graph with short cycles, self-loops and a
// high-degree hub (dense in both directions, with a self-loop), so
// walks revisit vertices within a few steps and the fixed-choice
// revisit path of the filter vectors runs.
func randomLoopyGraph(r *rng.RNG) *ugraph.Graph {
	nv := 2 + r.Intn(30)
	hub := r.Intn(nv)
	b := ugraph.NewBuilder(nv)
	for u := 0; u < nv; u++ {
		for v := 0; v < nv; v++ {
			density := 0.12
			if u == hub || v == hub {
				density = 0.8
			}
			if (u == hub && v == hub) || r.Bool(density) {
				b.AddArc(u, v, 0.05+0.95*r.Float64())
			}
		}
	}
	return b.MustBuild()
}

// mutate applies a random batch of inserts, deletes and reweights and
// returns the mutated graph with the vertices whose out-row changed.
func mutate(t *testing.T, g *ugraph.Graph, r *rng.RNG) (*ugraph.Graph, []int32) {
	t.Helper()
	n := g.NumVertices()
	d := ugraph.NewDelta(g)
	touched := map[int32]bool{}
	for i := 0; i < 1+r.Intn(4); i++ {
		u, v := r.Intn(n), r.Intn(n)
		up := ugraph.ArcUpdate{Op: ugraph.OpInsert, U: u, V: v, P: 0.05 + 0.95*r.Float64()}
		if d.Prob(u, v) > 0 {
			up.Op = ugraph.OpReweight
			if r.Bool(0.5) {
				up = ugraph.ArcUpdate{Op: ugraph.OpDelete, U: u, V: v}
			}
		}
		if err := d.Stage(up); err != nil {
			t.Fatal(err)
		}
		touched[int32(u)] = true
	}
	var hs []int32
	for w := range touched {
		hs = append(hs, w)
	}
	return d.Compact(), hs
}

// TestFlatTablesMatchMapReference pins the flat counting tables and the
// merge-join estimates against the map-based reference, bit for bit:
// random loopy graphs, N straddling word boundaries, steps 0-7, shared
// and independent pools, and pools derived through PatchFilters. One
// Tables is also reused across every shape, so stale buffers from a
// deeper, wider or larger-graph propagation must never leak.
func TestFlatTablesMatchMapReference(t *testing.T) {
	r := rng.New(2024)
	var reused, reusedV Tables
	for trial := 0; trial < 10; trial++ {
		g := randomLoopyGraph(r)
		nv := g.NumVertices()
		for _, N := range []int{1, 63, 64, 65, 1000} {
			seed := r.Uint64()
			shared := BuildFilters(g, N, rng.New(seed))
			indep := BuildFilters(g, N, rng.New(seed+1))
			newG, touched := mutate(t, g, r)
			type pair struct {
				name   string
				fu, fv *Filters
			}
			pools := []pair{
				{"shared", shared, shared},
				{"independent", shared, indep},
				{"patched-shared", PatchFilters(shared, newG, touched, nil), nil},
				{"patched-independent", PatchFilters(shared, newG, touched, nil), PatchFilters(indep, newG, touched, nil)},
			}
			pools[2].fv = pools[2].fu
			for _, pl := range pools {
				for steps := 0; steps <= 7; steps++ {
					u, v := r.Intn(nv), r.Intn(nv)
					tag := fmt.Sprintf("trial %d N=%d %s steps=%d (%d,%d)", trial, N, pl.name, steps, u, v)
					ru, rv := refPropagate(pl.fu, u, steps), refPropagate(pl.fv, v, steps)
					tu, tv := Propagate(pl.fu, u, steps), Propagate(pl.fv, v, steps)
					checkTables(t, tag+" fresh u", tu, ru)
					checkTables(t, tag+" fresh v", tv, rv)
					PropagateInto(pl.fu, u, steps, &reused)
					PropagateInto(pl.fv, v, steps, &reusedV)
					checkTables(t, tag+" reused u", &reused, ru)
					checkTables(t, tag+" reused v", &reusedV, rv)

					want := refMeetingEstimates(ru, rv)
					got := MeetingEstimates(tu, tv)
					into := make([]float64, steps+1)
					MeetingEstimatesInto(&reused, &reusedV, into)
					for k := range want {
						if math.Float64bits(got[k]) != math.Float64bits(want[k]) ||
							math.Float64bits(into[k]) != math.Float64bits(want[k]) {
							t.Fatalf("%s: m̂(%d) = %v / %v (reused), reference %v", tag, k, got[k], into[k], want[k])
						}
					}
				}
			}
		}
	}
}

// TestPropagateIntoAllocationFree pins the steady state the engine's
// pooled tables rely on: propagating into a warmed Tables and joining
// two of them allocate nothing.
func TestPropagateIntoAllocationFree(t *testing.T) {
	g := randomLoopyGraph(rng.New(5))
	f := BuildFilters(g, 1000, rng.New(6))
	var a, b Tables
	m := make([]float64, 6)
	PropagateInto(f, 0, 5, &a)
	PropagateInto(f, 1, 5, &b)
	allocs := testing.AllocsPerRun(100, func() {
		PropagateInto(f, 0, 5, &a)
		PropagateInto(f, 1, 5, &b)
		MeetingEstimatesInto(&a, &b, m)
	})
	if allocs != 0 {
		t.Fatalf("PropagateInto + MeetingEstimatesInto on reused tables: %v allocs/run, want 0", allocs)
	}
}

func TestMeetingEstimatesIntoBadLengthPanics(t *testing.T) {
	f := BuildFilters(ugraph.PaperFig1(), 8, rng.New(1))
	a, b := Propagate(f, 0, 2), Propagate(f, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("short estimate buffer accepted")
		}
	}()
	MeetingEstimatesInto(a, b, make([]float64, 2))
}
