package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"usimrank/internal/cluster"
	"usimrank/internal/core"
	"usimrank/internal/index"
	"usimrank/internal/mc"
	"usimrank/internal/rng"
	"usimrank/internal/server"
	"usimrank/internal/speedup"
	"usimrank/internal/ugraph"
	"usimrank/internal/walkpr"
)

// perLayer lists the traced run's metrics with their units. A layer a
// workload's requests never reach reports 0: that zero is the bypass
// the workload was chosen to show.
var perLayer = []struct{ name, unit string }{
	{"mc.v1_sample_us", "us"}, {"mc.v2_sample_us", "us"}, {"mc.v1_allocs", "count"},
	{"speedup.propagate_us", "us"}, {"speedup.propagate_allocs", "count"}, {"speedup.propagate_bytes", "B"},
	{"speedup.patch_ms", "ms"},
	{"walkpr.rows_cold_ms", "ms"},
	{"index.probe_us", "us"}, {"index.build_s", "s"}, {"index.patch_ms", "ms"}, {"index.rows_patched", "count"},
	{"core.score_us", "us"}, {"core.source_us", "us"}, {"core.batch_us", "us"}, {"core.self_us", "us"},
	{"core.walks_per_query", "count"}, {"core.apply_ms", "ms"}, {"core.touched_sources", "count"}, {"core.rows_evicted", "count"},
	{"cache.row_hit_ratio", "ratio"}, {"cache.row_lookups", "count"}, {"cache.row_evictions", "count"},
	{"parallel.srsp_scaling", "ratio"},
	{"server.handler_us", "us"}, {"server.self_us", "us"}, {"server.allocs_per_req", "count"}, {"server.bytes_per_req", "B"},
	{"server.coalesce_hit_ratio", "ratio"}, {"server.admission_rejected", "count"},
	{"http.loopback_us", "us"}, {"http.loopback_self_us", "us"},
	{"cluster.coord_us", "us"}, {"cluster.self_us", "us"}, {"cluster.attempts_per_query", "count"},
	{"cluster.hedges", "count"}, {"cluster.failovers", "count"},
	{"sub.wakeups", "count"}, {"sub.pushes", "count"}, {"sub.coalesced", "count"},
	{"go.alloc_bytes_per_req", "B"}, {"go.gc_cycles_per_1k_req", "count"},
	{"gen.late_p99_ms", "ms"}, {"trace.read_p50_ms", "ms"},
}

// span is one timed call at a layer boundary; spans of one request
// share req, and parent names the layer that would have made the call.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

// time runs f as one span and returns its duration in µs.
func (t *tracer) time(name, parent string, req int, f func() error) (float64, error) {
	start := time.Since(t.t0)
	err := f()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: int64(start), End: int64(end)})
	return float64(end-start) / 1e3, err
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// allocs measures heap allocations and bytes across f.
func allocs(f func()) (n, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func meanDiff(a, b []float64) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return mean(d)
}

func engineOptions(w workload, seed uint64, parallelism int) core.Options {
	return core.Options{C: 0.6, Steps: 5, N: 1000, L: 1, Seed: engineSeed(seed), Parallelism: parallelism, RowCacheSize: w.rowCache}
}

// callEngine answers one read through core.Engine's public entry
// points, as the node handler would.
func callEngine(e *core.Engine, x core.SourceIndex, o op) error {
	ctx := context.Background()
	if o.path == "/v1/source" && o.alg == "indexed" {
		_, err := e.SingleSourceIndexedAgainstCtx(ctx, x, o.u, o.cands)
		return err
	}
	alg, err := core.ParseAlgorithm(o.alg)
	if err != nil {
		return err
	}
	switch o.path {
	case "/v1/score":
		_, err = e.ComputeCtx(ctx, alg, o.u, o.v)
	case "/v1/source":
		if o.eps > 0 {
			_, err = e.AdaptiveSingleSourceAgainstCtx(ctx, alg, o.u, o.cands, core.AdaptiveOptions{Eps: o.eps, Delta: 0.05})
		} else {
			_, err = e.SingleSourceAgainstCtx(ctx, alg, o.u, o.cands)
		}
	case "/v1/batch":
		_ = core.Batch(e, alg, o.pairs, workers)
	}
	return err
}

// kernels are the walk kernels the engine's strategies sit on, built
// over the reversed graph the walks run on.
type kernels struct {
	rev     *ugraph.Graph
	plan    *mc.Plan
	filters *speedup.Filters
	arena   mc.Arena
	pos     []int32
	r       *rng.RNG
	n, N    int

	v1, v2, prop, rows []float64 // µs per call
	v1Allocs           []float64 // per call
	propAllocs         []float64
	propBytes          []float64
}

func newKernels(g *ugraph.Graph, seed uint64) *kernels {
	rev := g.Reverse()
	k := &kernels{rev: rev, plan: mc.BuildPlan(rev), r: rng.New(engineSeed(seed)), n: 5, N: 1000}
	k.filters = speedup.BuildFiltersPool(rev, k.N, rng.New(engineSeed(seed)^0xF117E55), nil)
	k.pos = make([]int32, (k.n+1)*k.N)
	return k
}

// replay runs the kernel calls one read makes, u side and v sides, on
// one goroutine, and returns their total time in µs: the work the engine
// does at Parallelism 1. Baseline reads on a warm row cache and indexed
// reads (whose v-side rows are precomputed) make no kernel calls beyond
// the engine's own bookkeeping.
func (k *kernels) replay(t *tracer, req int, o op) float64 {
	var verts []int
	switch {
	case o.alg == "baseline" || o.alg == "indexed":
	case o.path == "/v1/score":
		verts = []int{o.u, o.v}
	case o.path == "/v1/source":
		verts = append([]int{o.u}, o.cands...)
	}
	total := 0.0
	for _, x := range verts {
		switch o.alg {
		case "sampling", "twophase":
			var us float64
			n, _ := allocs(func() {
				us, _ = t.time("mc.Sample", "core", req, func() error { mc.Sample(k.rev, x, k.n, k.N, k.r); return nil })
			})
			k.v1 = append(k.v1, us)
			k.v1Allocs = append(k.v1Allocs, float64(n))
			total += us
			if o.alg == "twophase" {
				us, _ = t.time("walkpr.TransitionRows", "core", req, func() error {
					_, err := walkpr.TransitionRows(k.rev, x, 1, walkpr.Options{})
					return err
				})
				k.rows = append(k.rows, us)
				total += us
			}
		case "sampling_v2":
			us, _ := t.time("mc.Plan.Sample", "core", req, func() error { k.plan.Sample(x, k.n, k.N, k.r, &k.arena, k.pos); return nil })
			k.v2 = append(k.v2, us)
			total += us
		case "srsp":
			var us float64
			n, b := allocs(func() {
				us, _ = t.time("speedup.Propagate", "core", req, func() error { speedup.Propagate(k.filters, x, k.n); return nil })
			})
			k.prop = append(k.prop, us)
			k.propAllocs = append(k.propAllocs, float64(n))
			k.propBytes = append(k.propBytes, float64(b))
			total += us
		}
	}
	return total
}

// runTraced loads the deployment for the window to read its counters,
// then replays one seeded request list at each layer boundary — kernels,
// core.Engine, the node handler without a socket, usimd over loopback,
// and a cluster.Coordinator over two loopback nodes.
func runTraced(w workload, g *ugraph.Graph, e *env, window time.Duration) (*result, error) {
	res := &result{}
	tr := &tracer{t0: time.Now()}
	set := func(name string, v float64, n int) {
		for _, m := range perLayer {
			if m.name == name {
				res.set(name, v, m.unit, n)
				return
			}
		}
		panic("undeclared per-layer metric " + name)
	}
	for _, m := range perLayer {
		res.set(m.name, 0, m.unit, 0)
	}

	d, err := e.deploy(context.Background(), w, 0)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if w.hot {
		if err := warmHot(d.front.url, e.seed); err != nil {
			return nil, err
		}
	}
	// Loaded phase first, while the benchmark process holds no engines
	// of its own: the workload's traffic for the window, with the
	// deployment's counters read around it.
	before, err := getStats(d.front.url)
	if err != nil {
		return nil, err
	}
	gc0, err := promValue(d.procs[0].url, "go_gc_cycles_total")
	if err != nil {
		return nil, err
	}
	offset := time.Since(tr.t0)
	load, err := drive(w, g, e.seed, d.front.url, window)
	if err != nil {
		return nil, err
	}
	for _, s := range load.reads {
		tr.spans = append(tr.spans, span{Name: "loaded.read", Req: s.op, Start: int64(offset + s.due), End: int64(offset + s.end)})
	}
	after, err := getStats(d.front.url)
	if err != nil {
		return nil, err
	}
	gc1, err := promValue(d.procs[0].url, "go_gc_cycles_total")
	if err != nil {
		return nil, err
	}
	ref, err := newReference(w, g, e) // the node-handler layer
	if err != nil {
		return nil, err
	}
	defer ref.close()
	// Checking the loaded phase replays its writes, so the handler
	// layer below sits at the daemon's generation.
	o, err := load.check(w, ref)
	if err != nil {
		return nil, err
	}
	res.Failed += o.failed
	res.Correct = o.wrong == 0
	ref.srv.WarmFilters()
	if p, err := percentile(o.lat, 0.5); err == nil {
		set("trace.read_p50_ms", p, len(o.lat))
	}
	late, _, _, err := load.generatorNote()
	if err != nil {
		return nil, err
	}
	set("gen.late_p99_ms", late, len(load.late))
	if hits, miss := after.hits-before.hits, after.misses-before.misses; hits+miss > 0 {
		set("server.coalesce_hit_ratio", float64(hits)/float64(hits+miss), int(hits+miss))
	}
	set("server.admission_rejected", float64(after.rejected-before.rejected), o.okReads)
	set("sub.wakeups", float64(after.wakeups-before.wakeups), len(load.acks))
	set("sub.pushes", float64(after.pushes-before.pushes), len(load.acks))
	set("sub.coalesced", float64(after.coalesced-before.coalesced), len(load.acks))
	if o.okReads > 0 {
		set("go.gc_cycles_per_1k_req", (gc1-gc0)*1000/float64(o.okReads), o.okReads)
	}
	eng, err := core.NewEngine(g, engineOptions(w, e.seed, workers))
	if err != nil {
		return nil, err
	}
	eng.WarmFilters()
	var x *index.Index
	if w.index {
		start := time.Now()
		if x, err = index.Build(eng); err != nil {
			return nil, err
		}
		set("index.build_s", time.Since(start).Seconds(), 1)
	}
	if w.hot {
		hot := hotVertices(e.seed)
		if err := eng.WarmRowsFor(core.AlgBaseline, hot); err != nil {
			return nil, err
		}
		for _, u := range hot {
			if _, err := ref.expect(http.MethodPost, "/v1/source", sourceOp("baseline", u, hot, 0).body); err != nil {
				return nil, err
			}
		}
	}
	reads := makeReads(w, e.seed, 4000)
	budget := window / 3

	// Engine layer: as many reads as fit the budget fix K for all layers.
	h0, m0, ev0 := eng.RowCacheCounters()
	walks0 := eng.KernelStats().Walks
	var engUs []float64
	byShape := map[string][]float64{}
	var idxUs []float64
	start := time.Now()
	engAllocs, engBytes := allocs(func() {
		for i, o := range reads {
			if time.Since(start) > budget {
				break
			}
			us, err := tr.time("core.Engine", "server", i, func() error { return callEngine(eng, x, o) })
			if err != nil {
				res.Correct = false
				res.Failed++
			}
			engUs = append(engUs, us)
			byShape[o.path] = append(byShape[o.path], us)
			if o.alg == "indexed" {
				idxUs = append(idxUs, us)
			}
		}
	})
	K := len(engUs)
	reads = reads[:K]
	h1, m1, ev1 := eng.RowCacheCounters()
	set("core.score_us", mean(byShape["/v1/score"]), len(byShape["/v1/score"]))
	set("core.source_us", mean(byShape["/v1/source"]), len(byShape["/v1/source"]))
	set("core.batch_us", mean(byShape["/v1/batch"]), len(byShape["/v1/batch"]))
	set("core.walks_per_query", float64(eng.KernelStats().Walks-walks0)/float64(K), K)
	set("index.probe_us", mean(idxUs), len(idxUs))
	if lookups := (h1 - h0) + (m1 - m0); lookups > 0 {
		set("cache.row_hit_ratio", float64(h1-h0)/float64(lookups), int(lookups))
		set("cache.row_lookups", float64(lookups), K)
	}
	set("cache.row_evictions", float64(ev1-ev0), K)

	// Kernel layer: the same reads' walk kernels, called directly on one
	// goroutine, against the engine at Parallelism 1 doing the same work
	// on one goroutine; their difference is core's own time.
	eng1, err := core.NewEngine(g, engineOptions(w, e.seed, 1))
	if err != nil {
		return nil, err
	}
	eng1.WarmFilters()
	if w.hot {
		if err := eng1.WarmRowsFor(core.AlgBaseline, hotVertices(e.seed)); err != nil {
			return nil, err
		}
	}
	eng1Us := make([]float64, K)
	for i, o := range reads {
		if eng1Us[i], err = tr.time("core.Engine/p1", "server", i, func() error { return callEngine(eng1, x, o) }); err != nil {
			return nil, err
		}
	}
	kern := newKernels(g, e.seed)
	kernUs := make([]float64, K)
	for i, o := range reads {
		kernUs[i] = kern.replay(tr, i, o)
	}
	set("mc.v1_sample_us", mean(kern.v1), len(kern.v1))
	set("mc.v1_allocs", mean(kern.v1Allocs), len(kern.v1Allocs))
	set("mc.v2_sample_us", mean(kern.v2), len(kern.v2))
	set("speedup.propagate_us", mean(kern.prop), len(kern.prop))
	set("speedup.propagate_allocs", mean(kern.propAllocs), len(kern.propAllocs))
	set("speedup.propagate_bytes", mean(kern.propBytes), len(kern.propBytes))
	set("walkpr.rows_cold_ms", mean(kern.rows)/1e3, len(kern.rows))
	set("core.self_us", meanDiff(eng1Us, kernUs), K)

	// SR-SP at Parallelism 1 against 2 on the same reads.
	var t1, t2 float64
	var nsrsp int
	for i, o := range reads {
		if o.alg == "srsp" {
			t1, t2, nsrsp = t1+eng1Us[i], t2+engUs[i], nsrsp+1
		}
	}
	if nsrsp > 0 {
		set("parallel.srsp_scaling", t1/t2, nsrsp)
	}

	// Node handler layer: server.Server.ServeHTTP into a recorder.
	handUs := make([]float64, K)
	handBodies := make([][]byte, K)
	hAllocs, hBytes := allocs(func() {
		for i, o := range reads {
			var code int
			handUs[i], _ = tr.time("server.ServeHTTP", "http", i, func() error {
				rec := serve(ref.srv, http.MethodPost, o.path, o.body)
				handBodies[i], code = rec.Body.Bytes(), rec.Code
				return nil
			})
			if code != http.StatusOK {
				res.Failed++
			}
		}
	})
	set("server.handler_us", mean(handUs), K)
	set("server.self_us", meanDiff(handUs, engUs), K)
	set("server.allocs_per_req", (float64(hAllocs)-float64(engAllocs))/float64(K), K)
	set("server.bytes_per_req", (float64(hBytes)-float64(engBytes))/float64(K), K)
	set("go.alloc_bytes_per_req", float64(hBytes)/float64(K), K)

	// Loopback layer: usimd over 127.0.0.1, one request at a time.
	node := d.procs[0].url
	loopUs, wrong, err := replayHTTP(tr, "usimd", node, reads, handBodies)
	if err != nil {
		return nil, err
	}
	res.Failed += wrong
	set("http.loopback_us", mean(loopUs), K)
	set("http.loopback_self_us", meanDiff(loopUs, handUs), K)
	// The kernel share is measured at Parallelism 1, where the replay
	// and the engine do the same work on one goroutine.
	res.notes = append(res.notes, splitNote(mean(kernUs)/mean(eng1Us)*mean(engUs), mean(engUs), mean(handUs), mean(loopUs)))

	// Coordinator layer: an in-process cluster.Coordinator over the
	// deployment's two nodes.
	if w.nodes > 1 {
		var shards [][]string
		for _, p := range d.procs[:w.nodes] {
			shards = append(shards, []string{p.url})
		}
		co, err := cluster.New(cluster.Config{Shards: shards, Logger: log.New(io.Discard, "", 0)})
		if err != nil {
			return nil, err
		}
		defer co.Close()
		q0, err := nodeQueries(d.procs[:w.nodes])
		if err != nil {
			return nil, err
		}
		coUs := make([]float64, K)
		for i, o := range reads {
			coUs[i], _ = tr.time("cluster.Coordinator", "", i, func() error {
				rec := serve(co, http.MethodPost, o.path, o.body)
				if rec.Code != http.StatusOK || !bytes.Equal(normalize(rec.Body.Bytes()), handBodies[i]) {
					res.Failed++
					res.Correct = false
				}
				return nil
			})
		}
		q1, err := nodeQueries(d.procs[:w.nodes])
		if err != nil {
			return nil, err
		}
		prom := serve(co, http.MethodGet, "/metrics", nil).Body.String()
		set("cluster.coord_us", mean(coUs), K)
		set("cluster.self_us", meanDiff(coUs, loopUs), K)
		set("cluster.attempts_per_query", float64(q1-q0)/float64(K), K)
		set("cluster.hedges", promSum(prom, "usimrank_client_hedges_total"), K)
		set("cluster.failovers", promSum(prom, "usimrank_client_failovers_total"), K)
	}

	// Update path, where the workload writes: the same batches through
	// core.Engine.ApplyUpdates, index.Patch and speedup.PatchFilters.
	if w.writeRate > 0 {
		if err := traceWrites(tr, w, g, e.seed, eng, x, kern.filters, set); err != nil {
			return nil, err
		}
	}

	path := filepath.Join(filepath.Dir(e.dir), "traces", fmt.Sprintf("%s-%d.jsonl", w.name, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	res.Attempted = (3+w.nodes)*K + o.attempted // two engine, handler, loopback and coordinator replays
	res.Correct = res.Correct && res.Failed == 0
	return res, nil
}

// splitNote states where one read's loopback time goes, layer by layer.
func splitNote(kern, eng, hand, loop float64) string {
	pct := func(x float64) float64 { return 100 * x / loop }
	return fmt.Sprintf("split of %.1f us loopback: kernel %.1f%%, core %.1f%%, server %.1f%%, http %.1f%%",
		loop, pct(kern), pct(eng-kern), pct(hand-eng), pct(loop-hand))
}

// replayHTTP sends reads one at a time over one connection and checks
// each body against the handler layer's.
func replayHTTP(t *tracer, name, base string, reads []op, want [][]byte) ([]float64, int, error) {
	c := newClient(1)
	defer c.CloseIdleConnections()
	us := make([]float64, len(reads))
	wrong := 0
	for i, o := range reads {
		var err error
		us[i], err = t.time(name, "", i, func() error {
			st, _, body, err := send(c, base, o)
			if err == nil && (st != http.StatusOK || !bytes.Equal(normalize(body), want[i])) {
				wrong++
			}
			return err
		})
		if err != nil {
			return nil, 0, err
		}
	}
	return us, wrong, nil
}

// traceWrites replays the workload's first write batches in process.
func traceWrites(t *tracer, w workload, g *ugraph.Graph, seed uint64, eng *core.Engine, x *index.Index, f *speedup.Filters, set func(string, float64, int)) error {
	ws, err := newWriteSet(g, seed)
	if err != nil {
		return err
	}
	batches := makeWrites(g, ws, seed, 20)
	var apply, patch, fpatch, rows, touched, evicted []float64
	cur, curX, curG := eng, x, g
	for i, b := range batches {
		var next *core.Engine
		var st *core.UpdateStats
		us, err := t.time("core.ApplyUpdates", "server", i, func() error {
			var err error
			next, st, err = cur.ApplyUpdates(b.ups)
			return err
		})
		if err != nil {
			return err
		}
		apply = append(apply, us/1e3)
		touched = append(touched, float64(len(st.TouchedSources)))
		evicted = append(evicted, float64(st.RowsEvicted))
		if curX != nil {
			var nx *index.Index
			var n int
			us, err = t.time("index.Patch", "server", i, func() error {
				var err error
				nx, n, err = index.Patch(curX, next, curG, b.ups)
				return err
			})
			if err != nil {
				return err
			}
			patch = append(patch, us/1e3)
			rows = append(rows, float64(n))
			curX = nx
		}
		heads := map[int32]bool{}
		for _, u := range b.ups {
			heads[int32(u.V)] = true
		}
		var hs []int32
		for h := range heads {
			hs = append(hs, h)
		}
		newRev := next.Graph().Reverse()
		us, _ = t.time("speedup.PatchFilters", "core.ApplyUpdates", i, func() error {
			f = speedup.PatchFilters(f, newRev, hs, nil)
			return nil
		})
		fpatch = append(fpatch, us/1e3)
		cur, curG = next, next.Graph()
	}
	n := len(batches)
	set("core.apply_ms", mean(apply), n)
	set("core.touched_sources", mean(touched), n)
	set("core.rows_evicted", mean(evicted), n)
	set("index.patch_ms", mean(patch), len(patch))
	set("index.rows_patched", mean(rows), len(rows))
	set("speedup.patch_ms", mean(fpatch), n)
	return nil
}

// frontStats are the /v1/stats counters the traced run differences.
type frontStats struct {
	hits, misses, rejected     uint64
	wakeups, pushes, coalesced uint64
}

func getStats(base string) (frontStats, error) {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return frontStats{}, err
	}
	defer resp.Body.Close()
	var st struct {
		Serving       server.ServingStats       `json:"serving"`
		Coalescing    server.CoalescingStats    `json:"coalescing"`
		Subscriptions *server.SubscriptionStats `json:"subscriptions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return frontStats{}, err
	}
	fs := frontStats{hits: st.Coalescing.Hits, misses: st.Coalescing.Misses, rejected: st.Serving.AdmissionRejected}
	if s := st.Subscriptions; s != nil {
		fs.wakeups, fs.pushes, fs.coalesced = s.Wakeups, s.Pushes, s.Coalesced
	}
	return fs, nil
}

// nodeQueries sums the query counts the nodes have served.
func nodeQueries(nodes []*proc) (uint64, error) {
	var sum uint64
	for _, p := range nodes {
		resp, err := http.Get(p.url + "/v1/stats")
		if err != nil {
			return 0, err
		}
		var st server.StatsResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		for _, q := range st.Queries {
			sum += q.Count
		}
	}
	return sum, nil
}

func promValue(base, family string) (float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	return promSum(string(b), family), nil
}

// promSum adds every sample of one family in a Prometheus text page.
func promSum(page, family string) float64 {
	sum := 0.0
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, family) || (len(line) > len(family) && line[len(family)] != ' ' && line[len(family)] != '{') {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}
