package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"usimrank"
	"usimrank/internal/ugraph"
)

const (
	setupReps = 3
	maxLateMs = 50 // generator p99 lateness that invalidates an open-loop run
)

// endToEnd lists the untraced run's metrics with their units; the
// per-layer list is perLayer in trace.go. Both must equal BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"read_qps", "1/s"}, {"cpu_ms_per_op", "ms"}, {"update_cpu_ms", "ms"},
}

// checkNames fails a result whose metrics differ from the declared list.
func checkNames(res *result, declared []struct{ name, unit string }) error {
	if len(res.Metrics) != len(declared) {
		return fmt.Errorf("result has %d metrics, %d declared", len(res.Metrics), len(declared))
	}
	for _, d := range declared {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			return fmt.Errorf("metric %s (%s) declared but not reported as such", d.name, d.unit)
		}
	}
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed: graphs, request streams and arrival times")
		seconds = flag.Int("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding usimd and usim-index")
		work    = flag.String("work", ".bench_build/run", "scratch directory for graphs, indexes and logs")
	)
	flag.Parse()
	// The load generator shares two cores with the system under test;
	// fewer collections keep its own pauses out of the latencies.
	debug.SetGCPercent(400)
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (%v)\n", err)
		os.Exit(2)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind it, printed but not part of the JSON
}

// result is the run's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func (r *result) set(name string, v float64, unit string, n int) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, n: n}
}

func (r *result) print(f *os.File) {
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(f, "metric %-28s %14.6f %-6s n=%d\n", name, m.Value, m.Unit, m.n)
	}
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	b, _ := json.Marshal(r) // plain struct of numbers and strings
	fmt.Fprintln(f, string(b))
}

// run sets up one workload in a fresh scratch directory and measures it.
func run(w workload, seed uint64, window time.Duration, traced bool, bin, work string) (*result, error) {
	for _, b := range []string{"usimd", "usim-index"} {
		if _, err := os.Stat(filepath.Join(bin, b)); err != nil {
			return nil, fmt.Errorf("missing binary: %w", err)
		}
	}
	dir, err := os.MkdirTemp(mkdirAll(work), w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{bin: bin, dir: dir, seed: seed,
		graphPath: filepath.Join(dir, "graph.ug.bin"), indexPath: filepath.Join(dir, "graph.idx")}
	g := makeGraph(w, seed)
	if err := writeGraph(e.graphPath, g); err != nil {
		return nil, err
	}
	measure, declared := runUntraced, endToEnd
	if traced {
		measure, declared = runTraced, perLayer
	}
	res, err := measure(w, g, e, window)
	if err != nil {
		return nil, err
	}
	return res, checkNames(res, declared)
}

func mkdirAll(d string) string {
	_ = os.MkdirAll(d, 0o755) // MkdirTemp reports the failure
	return d
}

func writeGraph(path string, g *ugraph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := usimrank.WriteBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setUp deploys the workload setupReps times from nothing and keeps the
// last deployment; it returns the median set-up time.
func setUp(w workload, e *env) (*deployment, float64, error) {
	var times []float64
	var d *deployment
	for rep := range setupReps {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if d, err = e.deploy(context.Background(), w, rep); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return d, median(times), nil
}

// warmHot fills every node's row cache with the hot set's exact rows:
// one source query per hot vertex against the whole set.
func warmHot(base string, seed uint64) error {
	hot := hotVertices(seed)
	c := newClient(1)
	defer c.CloseIdleConnections()
	for _, u := range hot {
		if st, _, body, err := send(c, base, sourceOp("baseline", u, hot, 0)); err != nil || st != 200 {
			return fmt.Errorf("warm-up: status %d err %v: %s", st, err, body)
		}
	}
	return nil
}

// traffic is what one load phase sent and received.
type traffic struct {
	readOps, writes []op
	reads, acks     []sample
	late            []float64 // generator lateness per released read, ms
	events          []event
	su, sv          int // the subscribed pair
}

// drive loads the system at base for the window.
func drive(w workload, g *ugraph.Graph, seed uint64, base string, window time.Duration) (*traffic, error) {
	ws, err := newWriteSet(g, seed)
	if err != nil {
		return nil, err
	}
	tr := &traffic{su: ws.su, sv: ws.sv}
	t0 := time.Now()
	switch {
	case w.rate == 0:
		tr.readOps = makeReads(w, seed, int(window.Seconds()*200)+100)
		if tr.reads, err = closedLoop(base, tr.readOps, window); err != nil {
			return nil, err
		}
	case w.writeRate == 0:
		tr.readOps = openOps(makeReads(w, seed, int(w.rate*window.Seconds()*1.3)+100), seed, 0, w.rate)
		tr.reads, tr.late = openLoop(base, tr.readOps, window, conns, t0)
	default:
		tr.readOps = openOps(makeReads(w, seed, int(w.rate*window.Seconds()*1.3)+100), seed, 0, w.rate)
		tr.writes = openOps(makeWrites(g, ws, seed, int(w.writeRate*window.Seconds()*1.3)+10), seed, 1, w.writeRate)
		sub, err := subscribe(base, ws.su, ws.sv, t0)
		if err != nil {
			return nil, err
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			tr.acks, _ = openLoop(base, tr.writes, window, 1, t0)
		}()
		tr.reads, tr.late = openLoop(base, tr.readOps, window, conns, t0)
		<-done
		sub.waitGen(maxGen(tr.acks), 10*time.Second)
		tr.events = sub.close()
	}
	return tr, nil
}

// probe times the update path after the read window: sequential
// updates on an otherwise idle system, each sent once the previous
// one's push has arrived. It continues the workload's write stream
// after the sent updates already applied.
func probe(g *ugraph.Graph, seed uint64, base string, sent int) (*traffic, error) {
	ws, err := newWriteSet(g, seed)
	if err != nil {
		return nil, err
	}
	pr := &traffic{su: ws.su, sv: ws.sv, writes: makeWrites(g, ws, seed, sent+probeUpdates)[sent:]}
	sub, err := subscribe(base, ws.su, ws.sv, time.Now())
	if err != nil {
		return nil, err
	}
	pr.acks = writeProbe(base, pr.writes, sub, sub.t0)
	pr.events = sub.close()
	return pr, nil
}

// outcome is a load phase after checking.
type outcome struct {
	lat, upd, lags []float64 // ms
	okReads        int
	attempted      int
	failed         int
	wrong          int
}

// check compares every read and push against the reference and times
// what succeeded. Failed, refused, timed-out and wrong operations all
// count as failed.
func (tr *traffic) check(w workload, ref *reference) (*outcome, error) {
	o := &outcome{}
	var checks []check
	for _, s := range tr.reads {
		if !s.ok() {
			o.failed++
			continue
		}
		o.okReads++
		if s.gen == 0 && w.writeRate == 0 {
			// The coordinator sends no generation header; a read-only
			// window runs entirely at the boot generation.
			s.gen = 1
		}
		o.lat = append(o.lat, float64(s.latency())/1e6)
		checks = append(checks, check{gen: s.gen, method: "POST", path: tr.readOps[s.op].path, body: tr.readOps[s.op].body, got: s.body})
	}
	subReq := scoreOp("sampling_v2", tr.su, tr.sv, 0)
	for _, ev := range tr.events {
		if ev.kind == "update" || ev.kind == "snapshot" {
			checks = append(checks, check{gen: ev.gen, method: "POST", path: subReq.path, body: subReq.body, got: append(ev.data, '\n')})
		}
	}
	for _, s := range tr.acks {
		if !s.ok() {
			o.failed++
			continue
		}
		o.upd = append(o.upd, float64(s.end-s.start)/1e6)
	}
	lags, missing := pushLags(tr.acks, tr.events)
	o.lags = lags
	o.failed += missing
	wrong, err := verify(ref, checks, tr.writes, tr.acks)
	if err != nil {
		return nil, err
	}
	o.wrong = wrong
	o.failed += wrong
	o.attempted = len(tr.reads) + 2*len(tr.acks) // every acked update also owes a push
	return o, nil
}

// generatorNote reports the open-loop generator's lateness and whether
// it invalidates the run.
func (tr *traffic) generatorNote() (late float64, note string, valid bool, err error) {
	if len(tr.late) == 0 {
		return 0, "", true, nil
	}
	lp, err := percentile(tr.late, 0.99)
	if err != nil {
		return 0, "", false, err
	}
	note = fmt.Sprintf("gen.late_p99_ms %.6f (n=%d)", lp, len(tr.late))
	// Lags up to ~10 ms are the shared box descheduling the generator
	// for a few timer ticks. Past maxLate it released dozens of requests
	// at once, so it, not the seeded stream, shaped the load.
	if lp > maxLateMs {
		return lp, note + fmt.Sprintf("\nINVALID: the generator ran %.3f ms late at p99 (limit %d ms)", lp, maxLateMs), false, nil
	}
	return lp, note, true, nil
}

func runUntraced(w workload, g *ugraph.Graph, e *env, window time.Duration) (*result, error) {
	d, setupS, err := setUp(w, e)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if w.hot {
		if err := warmHot(d.front.url, e.seed); err != nil {
			return nil, err
		}
	}
	stopRSS := make(chan struct{})
	rssCh := d.sampleRSS(stopRSS)
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	tr, err := drive(w, g, e.seed, d.front.url, window)
	close(stopRSS)
	rss := <-rssCh
	if err != nil {
		return nil, err
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	pr, err := probe(g, e.seed, d.front.url, len(tr.acks))
	if err != nil {
		return nil, err
	}
	cpu2, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	d.stop()

	ref, err := newReference(w, g, e)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	o, err := tr.check(w, ref)
	if err != nil {
		return nil, err
	}
	po, err := pr.check(w, ref) // after the window's writes, in generation order
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: o.attempted + po.attempted, Failed: o.failed + po.failed, Correct: o.wrong+po.wrong == 0}
	res.set("setup_s", setupS, "s", setupReps)
	res.set("read_qps", float64(o.okReads)/window.Seconds(), "1/s", o.okReads)
	ops := o.okReads + len(o.upd) // reads, and on read-write the window's updates
	res.set("cpu_ms_per_op", (cpu1-cpu0)*1e3/float64(max(ops, 1)), "ms", ops)
	res.set("update_cpu_ms", (cpu2-cpu1)*1e3/float64(max(len(po.upd), 1)), "ms", len(po.upd))

	// Latencies and memory are printed, not bounded: on a box whose host
	// steals CPU they spread 0.12-0.76 between runs (see doc.go).
	timing := func(name string, xs []float64, q float64) {
		v, err := percentile(xs, q)
		if err != nil {
			res.notes = append(res.notes, fmt.Sprintf("timing %-18s unreported: %v", name, err))
			return
		}
		res.notes = append(res.notes, fmt.Sprintf("timing %-18s %12.6f ms n=%d", name, v, len(xs)))
	}
	timing("read_p50_ms", o.lat, 0.5)
	if tail, slices, err := sliceTail(o.lat, 0.9); err == nil {
		res.notes = append(res.notes, fmt.Sprintf("timing %-18s %12.6f ms n=%d (median p90 of %d slices)", "read_p90_ms", tail, len(o.lat), slices))
	}
	if w.writeRate > 0 {
		timing("load_update_p50_ms", o.upd, 0.5)
		timing("load_update_p90_ms", o.upd, 0.9)
		timing("load_push_lag_p50", o.lags, 0.5)
		timing("load_push_lag_p90", o.lags, 0.9)
	}
	timing("update_p50_ms", po.upd, 0.5)
	timing("update_p90_ms", po.upd, 0.9)
	timing("push_lag_p50_ms", po.lags, 0.5)
	timing("push_lag_p90_ms", po.lags, 0.9)
	mem := fmt.Sprintf("memory rss_mb %.1f (median of %d samples; by process:", median(rss[len(rss)-1]), len(rss[0]))
	for _, s := range rss[:len(rss)-1] {
		mem += fmt.Sprintf(" %.1f", median(s))
	}
	res.notes = append(res.notes, mem+")")
	res.notes = append(res.notes, fmt.Sprintf("error_ratio %.6f (%d of %d reads, updates and pushes failed, %d answers wrong)",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted, o.wrong+po.wrong))
	_, note, valid, err := tr.generatorNote()
	if err != nil {
		return nil, err
	}
	if note != "" {
		res.notes = append(res.notes, note)
	}
	res.Correct = res.Correct && valid
	return res, nil
}

func maxGen(ss []sample) uint64 {
	var g uint64
	for _, s := range ss {
		if s.ok() {
			g = max(g, s.gen)
		}
	}
	return g
}
