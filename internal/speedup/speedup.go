// Package speedup implements the paper's speeding-up technique
// (Sec. VI-D, Fig. 5): the N independent sampling processes of the
// Sampling algorithm are executed simultaneously by encoding, for every
// arc e, an N-bit filter vector F_e whose i-th bit says "sampling process
// i, when at the arc's source, moves along e", and propagating N-bit
// counting tables M_w[k] level by level with bitwise AND/OR. The meeting
// probability estimate is then m̂(k) = ‖M_w[k] ∧ M'_w[k]‖₁ / N summed
// over vertices (Eq. 16).
//
// Fidelity note. This is the repository's record of where SR-SP departs
// from the Sampling algorithm; the design ablations in internal/exp
// (AblationSharedFilters, AblationChoicePolicy) measure both points.
//
//   - Fixed choices. Filter vectors fix one out-choice per (vertex,
//     process), so a walk that revisits a vertex repeats its earlier
//     choice, whereas the Sampling algorithm re-rolls the uniform choice
//     on every visit. The two coincide whenever walks cannot revisit a
//     vertex within n steps (girth > n) and are statistically
//     indistinguishable on the sparse graphs of the evaluation;
//     AblationChoicePolicy quantifies the difference on a loopy graph.
//   - Shared pool. The paper shares one filter pool between the u-side
//     and the v-side; Estimate takes two pools so callers choose shared
//     (paper-faithful) or independent (matches the Sampling algorithm's
//     independence) pairing. AblationSharedFilters measures the bias.
package speedup

import (
	"fmt"
	"slices"

	"usimrank/internal/bitvec"
	"usimrank/internal/parallel"
	"usimrank/internal/rng"
	"usimrank/internal/ugraph"
)

// Filters holds the per-arc N-bit filter vectors of one sampling pool.
type Filters struct {
	N   int
	g   *ugraph.Graph
	arc []*bitvec.Vector // indexed by arc ID; nil when no bit is set
	// seeds[w] is the RNG seed vertex w's filters were built from. It is
	// retained so PatchFilters can rebuild a mutated vertex's filters
	// bit-identically to a from-scratch build of the mutated graph.
	seeds []uint64
}

// BuildFilters constructs filter vectors for all arcs of g offline: for
// every vertex w and process i, each arc leaving w is instantiated with
// its probability and one instantiated arc is selected uniformly at
// random (reservoir sampling keeps the selection single-pass). It is
// BuildFiltersPool with an inline (single-worker) pool.
func BuildFilters(g *ugraph.Graph, N int, r *rng.RNG) *Filters {
	return BuildFiltersPool(g, N, r, nil)
}

// BuildFiltersPool builds the same filters as BuildFilters, fanning the
// per-vertex work out over pool (nil runs inline). Every vertex draws a
// child seed from r in vertex order before the fan-out and fills only
// its own arc range, so the output depends solely on r's state — it is
// bit-identical for every pool size, including the inline one.
func BuildFiltersPool(g *ugraph.Graph, N int, r *rng.RNG, pool *parallel.Pool) *Filters {
	if N <= 0 {
		panic(fmt.Sprintf("speedup: bad N %d", N))
	}
	nv := g.NumVertices()
	seeds := make([]uint64, nv)
	for w := range seeds {
		seeds[w] = r.Uint64()
	}
	f := &Filters{N: N, g: g, arc: make([]*bitvec.Vector, g.NumArcs()), seeds: seeds}
	pool.For(nv, func(w int) {
		f.buildVertex(w)
	})
	return f
}

// buildVertex (re)builds the filter vectors of the arcs leaving w from
// w's retained seed. It writes only w's own arc range, so concurrent
// calls for distinct vertices are safe, and the result depends only on
// (seed, w's arc row) — never on scheduling or on other vertices.
func (f *Filters) buildVertex(w int) {
	g := f.g
	lo, hi := g.ArcRange(w)
	if lo == hi {
		return
	}
	rw := rng.New(f.seeds[w])
	probs := g.OutProbs(w)
	for i := 0; i < f.N; i++ {
		pick := int32(-1)
		count := 0
		for id := lo; id < hi; id++ {
			if rw.Bool(probs[id-lo]) {
				count++
				if count == 1 || rw.Intn(count) == 0 {
					pick = id
				}
			}
		}
		if pick >= 0 {
			if f.arc[pick] == nil {
				f.arc[pick] = bitvec.New(f.N)
			}
			f.arc[pick].Set(i)
		}
	}
}

// PatchFilters derives the filter pool of a mutated graph from the pool
// of its predecessor. newG must have the same vertex count as old's
// graph; touched lists the vertices whose out-arc row differs between
// the two (extra vertices are allowed — rebuilding an unchanged row is
// wasted work, never wrong). Untouched rows share their (immutable)
// filter vectors with the old pool under the new arc IDs; touched rows
// are rebuilt from their retained per-vertex seeds, fanned out over
// pool (nil runs inline).
//
// The result is bit-identical to BuildFiltersPool on newG with the same
// root RNG: the per-vertex seed sequence depends only on the vertex
// count, and each vertex's filters depend only on (seed, arc row).
func PatchFilters(old *Filters, newG *ugraph.Graph, touched []int32, pool *parallel.Pool) *Filters {
	if newG.NumVertices() != old.g.NumVertices() {
		panic(fmt.Sprintf("speedup: patch across vertex counts %d -> %d", old.g.NumVertices(), newG.NumVertices()))
	}
	f := &Filters{N: old.N, g: newG, arc: make([]*bitvec.Vector, newG.NumArcs()), seeds: old.seeds}
	isTouched := make(map[int32]bool, len(touched))
	for _, w := range touched {
		isTouched[w] = true
	}
	for w := 0; w < newG.NumVertices(); w++ {
		if isTouched[int32(w)] {
			continue
		}
		oldLo, oldHi := old.g.ArcRange(w)
		newLo, newHi := newG.ArcRange(w)
		if newHi-newLo != oldHi-oldLo {
			panic(fmt.Sprintf("speedup: vertex %d row changed (%d -> %d arcs) but not marked touched",
				w, oldHi-oldLo, newHi-newLo))
		}
		copy(f.arc[newLo:newHi], old.arc[oldLo:oldHi])
	}
	pool.For(len(touched), func(i int) {
		f.buildVertex(int(touched[i]))
	})
	return f
}

// Arc returns the filter vector of the given arc, or nil if no process
// uses it.
func (f *Filters) Arc(id int32) *bitvec.Vector { return f.arc[id] }

// Tables holds the counting tables of one source vertex: M_w[k], the
// N-bit vector whose i-th bit says "process i's walk is at w after k
// steps", for k = 0..Steps and every w in U(k), the vertices some
// process occupies at step k. Each level is stored flat: its vertices
// in ascending order and one word arena holding their vectors back to
// back, ⌈N/64⌉ words apiece. The zero value is ready for PropagateInto;
// reusing a Tables reuses every buffer, so a warmed one propagates
// without allocating.
type Tables struct {
	Src   int32
	Steps int
	N     int

	stride int        // words per vector, ⌈N/64⌉
	verts  [][]int32  // verts[k] = U(k), ascending
	words  [][]uint64 // words[k][i*stride:(i+1)*stride] = M_{verts[k][i]}[k]
}

// Vertices returns U(k) in ascending order. The slice aliases t.
func (t *Tables) Vertices(k int) []int32 { return t.verts[k] }

// Row returns the words of M_w[k] (see bitvec.Vector.Words), or nil
// when no process is at w after k steps. The slice aliases t.
func (t *Tables) Row(k int, w int32) []uint64 {
	i, ok := slices.BinarySearch(t.verts[k], w)
	if !ok {
		return nil
	}
	return t.words[k][i*t.stride : (i+1)*t.stride]
}

// Count returns ‖M_w[k]‖₁, the number of processes at w after k steps.
func (t *Tables) Count(k int, w int32) int { return bitvec.PopCountWords(t.Row(k, w)) }

// scratch is the per-propagation working state: the level being built
// in discovery order, and a |V|-sized index from a vertex to its row in
// that level, valid where stamp[x] == gen. Bumping gen clears the index
// in O(1), so reusing a scratch costs nothing per level.
type scratch struct {
	verts []int32
	words []uint64
	slot  []int32
	stamp []uint32
	gen   uint32
}

// scratchPool recycles scratches across propagations and goroutines; a
// scratch is held only for the duration of one PropagateInto call.
// Unlike a sync.Pool it is never drained, so a warmed process stays
// allocation-free.
var scratchPool = parallel.NewBufferPool(0, func() *scratch { return new(scratch) })

// Propagate runs the BFS-sharing propagation of Fig. 5 from src for n
// steps using the filter pool f, returning freshly allocated tables.
func Propagate(f *Filters, src int, n int) *Tables {
	t := new(Tables)
	PropagateInto(f, src, n, t)
	return t
}

// PropagateInto is Propagate writing into t, whose previous contents
// are overwritten and whose buffers are reused. Levels are built
// vertex by vertex: OR is commutative, so the vectors are identical to
// any other visiting order, and all-zero vectors are dropped so U(k+1)
// holds only reached vertices.
func PropagateInto(f *Filters, src int, n int, t *Tables) {
	g := f.g
	nv := g.NumVertices()
	if src < 0 || src >= nv {
		panic(fmt.Sprintf("speedup: source %d out of range [0,%d)", src, nv))
	}
	if n < 0 {
		panic(fmt.Sprintf("speedup: negative step count %d", n))
	}
	s := (f.N + 63) / 64
	t.Src, t.Steps, t.N, t.stride = int32(src), n, f.N, s
	// Reslicing within capacity keeps the buffers of earlier, deeper
	// propagations for reuse.
	t.verts = slices.Grow(t.verts[:0], n+1)[:n+1]
	t.words = slices.Grow(t.words[:0], n+1)[:n+1]

	t.verts[0] = append(t.verts[0][:0], int32(src))
	start := slices.Grow(t.words[0][:0], s)[:s]
	for i := range start {
		start[i] = ^uint64(0)
	}
	if rem := uint(f.N) & 63; rem != 0 {
		start[s-1] = 1<<rem - 1
	}
	t.words[0] = start

	sc := scratchPool.Get()
	defer scratchPool.Put(sc)
	if len(sc.stamp) < nv {
		sc.slot = make([]int32, nv)
		sc.stamp = make([]uint32, nv)
		sc.gen = 0
	}
	for k := 0; k < n; k++ {
		if sc.gen++; sc.gen == 0 { // wrapped: stale stamps could match
			clear(sc.stamp)
			sc.gen = 1
		}
		bv, bw := sc.verts[:0], sc.words[:0]
		cur := t.words[k]
		for i, w := range t.verts[k] {
			mw := cur[i*s : (i+1)*s]
			lo, hi := g.ArcRange(int(w))
			out := g.Out(int(w))
			for id := lo; id < hi; id++ {
				fe := f.arc[id]
				if fe == nil {
					continue
				}
				x := out[id-lo]
				if sc.stamp[x] != sc.gen {
					sc.stamp[x] = sc.gen
					sc.slot[x] = int32(len(bv))
					bv = append(bv, x)
					end := len(bw) + s
					bw = slices.Grow(bw, s)[:end]
					clear(bw[end-s:])
				}
				at := int(sc.slot[x]) * s
				bitvec.OrAndWords(bw[at:at+s], mw, fe.Words())
			}
		}
		// Emit U(k+1) sorted by vertex, without its all-zero vectors.
		slices.Sort(bv)
		kept := bv[:0]
		for _, x := range bv {
			at := int(sc.slot[x]) * s
			if bitvec.AnyWords(bw[at : at+s]) {
				kept = append(kept, x)
			}
		}
		nextV := append(t.verts[k+1][:0], kept...)
		nextW := slices.Grow(t.words[k+1][:0], len(kept)*s)
		for _, x := range kept {
			at := int(sc.slot[x]) * s
			nextW = append(nextW, bw[at:at+s]...)
		}
		t.verts[k+1], t.words[k+1] = nextV, nextW
		sc.verts, sc.words = bv, bw
	}
}

// MeetingEstimates computes m̂(k) for k = 0..Steps per Eq. 16 from the
// counting tables of the two sources. The tables must have equal N and
// Steps.
func MeetingEstimates(a, b *Tables) []float64 {
	m := make([]float64, a.Steps+1)
	MeetingEstimatesInto(a, b, m)
	return m
}

// MeetingEstimatesInto is MeetingEstimates writing into m, which must
// have length Steps+1. Each level is a merge-join of the two sorted
// vertex lists with one and-popcount per shared vertex; the popcounts
// are integer sums, so the estimates do not depend on the join order.
// It only reads the tables, so one Tables may be joined against many
// others concurrently.
func MeetingEstimatesInto(a, b *Tables, m []float64) {
	if a.N != b.N || a.Steps != b.Steps {
		panic("speedup: mismatched tables")
	}
	if len(m) != a.Steps+1 {
		panic(fmt.Sprintf("speedup: estimate buffer length %d, want %d", len(m), a.Steps+1))
	}
	s := a.stride
	for k := range m {
		va, vb := a.verts[k], b.verts[k]
		wa, wb := a.words[k], b.words[k]
		total := 0
		for i, j := 0, 0; i < len(va) && j < len(vb); {
			switch {
			case va[i] < vb[j]:
				i++
			case va[i] > vb[j]:
				j++
			default:
				total += bitvec.AndPopCountWords(wa[i*s:(i+1)*s], wb[j*s:(j+1)*s])
				i++
				j++
			}
		}
		m[k] = float64(total) / float64(a.N)
	}
}

// Estimate runs the full pipeline for a pair of sources: propagate from u
// using fu and from v using fv, then combine. Pass the same pool twice
// for the paper's shared-pool behaviour, or two independently built pools
// for unbiased pairing.
func Estimate(fu, fv *Filters, u, v, n int) []float64 {
	if fu.g != fv.g {
		panic("speedup: filter pools built over different graphs")
	}
	return MeetingEstimates(Propagate(fu, u, n), Propagate(fv, v, n))
}
