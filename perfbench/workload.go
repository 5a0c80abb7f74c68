package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"usimrank/internal/gen"
	"usimrank/internal/rng"
	"usimrank/internal/server"
	"usimrank/internal/ugraph"
)

// Engine options shared by every process the benchmark starts and by
// its in-process references. N=1000 walks, c=0.6, n=5 and l=1 are the
// daemon defaults; Parallelism 2 and two client connections match the
// 2-core box the workloads were sized on.
const (
	scale        = 11 // 2^11 = 2048 vertices
	workers      = 2
	conns        = 2
	candidates   = 64
	hotSet       = 32
	batchPairs   = 8
	probeUpdates = 200 // sequential updates after the read window of a read-only workload
)

// workload is one traffic mix: a graph family, a deployment, and the
// request stream that loads it. See doc.go for why each exists.
type workload struct {
	name      string
	arcsPerV  int     // R-MAT arcs per vertex
	rmatA     float64 // R-MAT top-left quadrant probability; b = c = (1-a)/3.5
	index     bool    // serve a reverse-walk index built by usim-index
	rowCache  int     // usimd -rowcache (0: engine default 4096)
	rate      float64 // open-loop reads per second; 0 = closed loop
	writeRate float64 // update batches per second inside the read window
	nodes     int     // 1 node, or 2 nodes behind a coordinator
	hot       bool    // reads are Zipf pairs over a warmed hot set
}

var workloads = []workload{
	{name: "source-sweep", arcsPerV: 6, rmatA: 0.57, index: true, rowCache: 512, nodes: 1},
	{name: "hot-score", arcsPerV: 3, rmatA: 0.45, rate: 1000, nodes: 1, hot: true},
	{name: "read-write", arcsPerV: 6, rmatA: 0.57, index: true, rate: 130, writeRate: 14, nodes: 1},
	{name: "scatter", arcsPerV: 3, rmatA: 0.45, rate: 400, nodes: 2, hot: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// op is one request of a stream: the wire path and body, plus the
// decoded operands the traced run replays against in-process layers.
type op struct {
	path  string // /v1/score, /v1/source, /v1/batch or /v1/admin/update
	body  []byte
	alg   string
	u, v  int
	cands []int
	pairs [][2]int
	eps   float64
	ups   []ugraph.ArcUpdate
	due   float64 // open loop: seconds after the window opens
}

func (o op) isWrite() bool { return o.path == "/v1/admin/update" }

// Seed streams: each consumer draws from its own child generator, so
// adding draws to one stream never shifts another.
const (
	streamGraph uint64 = iota + 1
	streamProbs
	streamReads
	streamArrivals
	streamWrites
	streamHot
)

func child(seed, stream uint64) *rng.RNG { return rng.New(seed*0x9e3779b97f4a7c15 + stream) }

// makeGraph generates the workload's graph: R-MAT with uniform arc
// probabilities in [0.2, 0.9]. The hot family uses a milder skew than
// the usual a=0.57: at a=0.57 and 3 arcs per vertex a cold exact row
// costs 0.45 s on average and up to 6 s, at a=0.45 about 6 ms.
func makeGraph(w workload, seed uint64) *ugraph.Graph {
	n := 1 << scale
	b := (1 - w.rmatA) / 3.5
	sk := gen.RMAT(scale, n*w.arcsPerV, w.rmatA, b, b, child(seed, streamGraph))
	return gen.WithUniformProbs(sk, 0.2, 0.9, child(seed, streamProbs))
}

// engineSeed is the engine -seed every process of one run shares.
func engineSeed(seed uint64) uint64 { return seed + 1 }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are marshalled
	}
	return b
}

func scoreOp(alg string, u, v int, eps float64) op {
	req := server.ScoreRequest{Alg: alg, U: u, V: v, Eps: eps}
	if eps > 0 {
		req.Delta = 0.05
	}
	return op{path: "/v1/score", body: mustJSON(req), alg: alg, u: u, v: v, eps: eps}
}

func sourceOp(alg string, u int, cands []int, eps float64) op {
	req := server.SourceRequest{Alg: alg, U: u, Candidates: cands, Eps: eps}
	if eps > 0 {
		req.Delta = 0.05
	}
	return op{path: "/v1/source", body: mustJSON(req), alg: alg, u: u, cands: cands, eps: eps}
}

func batchOp(alg string, pairs [][2]int) op {
	return op{path: "/v1/batch", body: mustJSON(server.BatchRequest{Alg: alg, Pairs: pairs}), alg: alg, pairs: pairs}
}

func distinct(r *rng.RNG, n, k int) []int {
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		x := r.Intn(n)
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// hotVertices is the workload's hot set, drawn from the seed.
func hotVertices(seed uint64) []int { return distinct(child(seed, streamHot), 1<<scale, hotSet) }

// zipf draws ranks 0..n-1 with Pr(rank i) ∝ 1/(i+1).
type zipf struct{ cdf []float64 }

func newZipf(n int) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf}
}

func (z zipf) draw(r *rng.RNG) int {
	x := r.Float64()
	return min(sort.SearchFloat64s(z.cdf, x), len(z.cdf)-1)
}

// sweepMix is source-sweep's fixed algorithm rotation; "sampling_v2+eps"
// is an adaptive sampling_v2 query.
var sweepMix = []string{"sampling_v2", "srsp", "twophase", "sampling", "indexed", "sampling_v2+eps"}

// makeReads returns the first n reads of the workload's stream.
func makeReads(w workload, seed uint64, n int) []op {
	r := child(seed, streamReads)
	nv := 1 << scale
	out := make([]op, 0, n)
	switch {
	case w.hot:
		hot := hotVertices(seed)
		z := newZipf(len(hot))
		pair := func() [2]int {
			u := hot[z.draw(r)]
			v := hot[z.draw(r)]
			for v == u {
				v = hot[z.draw(r)]
			}
			return [2]int{u, v}
		}
		for i := 0; i < n; i++ {
			switch {
			case i%4 == 3:
				pairs := make([][2]int, batchPairs)
				for j := range pairs {
					pairs[j] = pair()
				}
				out = append(out, batchOp("baseline", pairs))
			case w.nodes > 1 && i%4 == 1:
				p := pair()
				cands := []int{p[1]}
				for len(cands) < 4 {
					if c := hot[z.draw(r)]; c != p[0] && c != cands[len(cands)-1] {
						cands = append(cands, c)
					}
				}
				out = append(out, sourceOp("baseline", p[0], cands, 0))
			default:
				p := pair()
				out = append(out, scoreOp("baseline", p[0], p[1], 0))
			}
		}
	case w.writeRate > 0:
		for i := 0; i < n; i++ {
			u := r.Intn(nv)
			switch i % 3 {
			case 0:
				out = append(out, scoreOp("sampling_v2", u, r.Intn(nv), 0))
			case 1:
				out = append(out, scoreOp("srsp", u, r.Intn(nv), 0))
			default:
				out = append(out, sourceOp("indexed", u, distinct(r, nv, candidates), 0))
			}
		}
	default:
		for i := 0; i < n; i++ {
			u := r.Intn(nv)
			cands := distinct(r, nv, candidates)
			switch alg := sweepMix[i%len(sweepMix)]; alg {
			case "sampling_v2+eps":
				out = append(out, sourceOp("sampling_v2", u, cands, 0.05))
			default:
				out = append(out, sourceOp(alg, u, cands, 0))
			}
		}
	}
	return out
}

// arrivals returns n Poisson arrival offsets (seconds) at rate/s.
func arrivals(seed, stream uint64, rate float64, n int) []float64 {
	r := child(seed, streamArrivals+stream*16)
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += -math.Log(1-r.Float64()) / rate
		out[i] = t
	}
	return out
}

// forwardReach is, per vertex v, how many vertices v reaches within
// maxDepth hops, capped at limit+1. An update to an arc with head h
// changes the reverse walks of exactly the vertices h reaches.
func forwardReach(g *ugraph.Graph, maxDepth, limit int) []int {
	out := make([]int, g.NumVertices())
	for v := range out {
		seen := map[int32]bool{int32(v): true}
		front := []int32{int32(v)}
		for d := 0; d < maxDepth && len(front) > 0 && len(seen) <= limit; d++ {
			var next []int32
			for _, x := range front {
				for _, y := range g.Out(int(x)) {
					if !seen[y] {
						seen[y] = true
						next = append(next, y)
					}
				}
			}
			front = next
		}
		out[v] = min(len(seen), limit+1)
	}
	return out
}

// writeSet is what the write stream may touch. Every update changes an
// arc whose head reaches at most one other vertex within the walk
// horizon, so the invalidation BFS, the index patch and the filter
// patch each stay a few rows. On these R-MAT graphs the head of a
// uniformly random arc reaches about three quarters of the vertices,
// and patching the index for it recomputes ~1500 of 2048 rows (1.6-2.7 s
// on 2 cores): with the index served, a run could not collect the 100
// updates update_p90_ms needs.
type writeSet struct {
	arcs [][2]int // existing arcs with a local head
	sink []int    // vertices with no out-arcs: heads of inserted arcs
	su   int      // the subscribed pair: two local heads
	sv   int
}

func newWriteSet(g *ugraph.Graph, seed uint64) (*writeSet, error) {
	reach := forwardReach(g, 4, 2) // Steps-1 hops at the default n=5
	ws := &writeSet{}
	for x := range g.NumVertices() {
		if reach[x] == 1 {
			ws.sink = append(ws.sink, x)
		}
		for _, h := range g.Out(x) {
			if reach[h] <= 2 {
				ws.arcs = append(ws.arcs, [2]int{x, int(h)})
			}
		}
	}
	if len(ws.arcs) < 4 || len(ws.sink) < 4 {
		return nil, fmt.Errorf("graph has %d local arcs and %d sinks; the write stream needs 4 of each", len(ws.arcs), len(ws.sink))
	}
	ws.arcs = shuffled(child(seed, streamWrites+100), ws.arcs)
	// The subscribed pair is the two local heads that the fewest vertices
	// reach: a push recomputes their reverse walks, which then die within
	// a step or two, so a push costs about the same on every seed's graph.
	inReach := forwardReach(g.Reverse(), 4, 64)
	heads := map[int]bool{}
	for _, a := range ws.arcs {
		heads[a[1]] = true
	}
	order := make([]int, 0, len(heads))
	for _, a := range ws.arcs { // shuffled order breaks ties
		if heads[a[1]] {
			order = append(order, a[1])
			heads[a[1]] = false
		}
	}
	if len(order) < 2 {
		return nil, fmt.Errorf("graph has %d local heads; the subscription needs two", len(order))
	}
	sort.SliceStable(order, func(i, j int) bool { return inReach[order[i]] < inReach[order[j]] })
	ws.su, ws.sv = order[0], order[1]
	return ws, nil
}

func shuffled[T any](r *rng.RNG, xs []T) []T {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
	return xs
}

// makeWrites returns n update batches, applied in order. Each batch
// reweights an in-arc of the subscribed vertex (so every batch wakes
// the subscription) and three other local arcs, inserts one fresh arc
// or deletes the previous batch's, and every fourth batch also stages
// an insert and a delete of one arc that net out.
func makeWrites(g *ugraph.Graph, ws *writeSet, seed uint64, n int) []op {
	r := child(seed, streamWrites)
	var suArcs [][2]int
	for _, a := range ws.arcs {
		if a[1] == ws.su {
			suArcs = append(suArcs, a)
		}
	}
	nv := g.NumVertices()
	fresh := func(avoid [2]int) [2]int {
		for {
			a := [2]int{r.Intn(nv), ws.sink[r.Intn(len(ws.sink))]}
			if a[0] != a[1] && a[1] != avoid[1] && !g.HasArc(a[0], a[1]) {
				return a
			}
		}
	}
	prob := func() float64 { return math.Round((0.2+0.7*r.Float64())*1e4) / 1e4 }
	none := [2]int{-1, -1}
	pending := none
	out := make([]op, 0, n)
	last := map[[2]int]float64{} // current probability of the subscribed vertex's in-arcs
	for i := 0; i < n; i++ {
		// A reweight to the arc's current probability nets out and wakes
		// nobody, so draw until it changes.
		a := suArcs[i%len(suArcs)]
		cur, ok := last[a]
		if !ok {
			cur = g.Prob(a[0], a[1])
		}
		p := prob()
		for p == cur {
			p = prob()
		}
		last[a] = p
		ups := []ugraph.ArcUpdate{{Op: ugraph.OpReweight, U: a[0], V: a[1], P: p}}
		for len(ups) < 4 {
			a := ws.arcs[r.Intn(len(ws.arcs))]
			if a[1] == ws.su {
				continue // only the first reweight moves the subscribed vertex
			}
			ups = append(ups, ugraph.ArcUpdate{Op: ugraph.OpReweight, U: a[0], V: a[1], P: prob()})
		}
		if pending != none {
			ups = append(ups, ugraph.ArcUpdate{Op: ugraph.OpDelete, U: pending[0], V: pending[1]})
			pending = none
		} else {
			pending = fresh(none)
			ups = append(ups, ugraph.ArcUpdate{Op: ugraph.OpInsert, U: pending[0], V: pending[1], P: prob()})
		}
		if i%4 == 3 {
			a := fresh(pending)
			ups = append(ups,
				ugraph.ArcUpdate{Op: ugraph.OpInsert, U: a[0], V: a[1], P: prob()},
				ugraph.ArcUpdate{Op: ugraph.OpDelete, U: a[0], V: a[1]})
		}
		out = append(out, writeOp(ups))
	}
	return out
}

func writeOp(ups []ugraph.ArcUpdate) op {
	req := server.UpdateRequest{Updates: make([]server.ArcUpdateRequest, len(ups))}
	for i, u := range ups {
		req.Updates[i] = server.ArcUpdateRequest{Op: u.Op.String(), U: u.U, V: u.V, P: u.P}
	}
	return op{path: "/v1/admin/update", body: mustJSON(req), ups: ups}
}

// openOps stamps ops with Poisson due times at rate/s.
func openOps(ops []op, seed, stream uint64, rate float64) []op {
	for i, t := range arrivals(seed, stream, rate, len(ops)) {
		ops[i].due = t
	}
	return ops
}
