package main

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"usimrank"
	"usimrank/internal/ugraph"
)

func graphBytes(t *testing.T, g *ugraph.Graph) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := usimrank.WriteBinary(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func streamBytes(ops []op) []byte {
	var b bytes.Buffer
	for _, o := range ops {
		fmt.Fprintf(&b, "%s %.9f %s\n", o.path, o.due, o.body)
	}
	return b.Bytes()
}

// streams is everything a seed determines for one workload.
func streams(t *testing.T, w workload, seed uint64) (graph, reads, writes []byte) {
	t.Helper()
	g := makeGraph(w, seed)
	ws, err := newWriteSet(g, seed)
	if err != nil {
		t.Fatal(err)
	}
	ops := openOps(makeReads(w, seed, 300), seed, 0, 100)
	return graphBytes(t, g), streamBytes(ops), streamBytes(openOps(makeWrites(g, ws, seed, 40), seed, 1, 10))
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			g1, r1, w1 := streams(t, w, 7)
			g2, r2, w2 := streams(t, w, 7)
			if !bytes.Equal(g1, g2) || !bytes.Equal(r1, r2) || !bytes.Equal(w1, w2) {
				t.Fatal("the same seed produced different graphs or streams")
			}
			g3, r3, w3 := streams(t, w, 8)
			if bytes.Equal(g1, g3) || bytes.Equal(r1, r3) || bytes.Equal(w1, w3) {
				t.Fatal("a different seed reproduced a graph or stream")
			}
		})
	}
}

// TestWritesApply checks the write stream is valid in order — every
// batch applies to the graph the previous ones left — and that every
// batch changes an in-arc of the subscribed vertex, so each one owes a
// push.
func TestWritesApply(t *testing.T) {
	for _, w := range workloads {
		for seed := uint64(1); seed <= 4; seed++ {
			g := makeGraph(w, seed)
			ws, err := newWriteSet(g, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range makeWrites(g, ws, seed, 400) {
				next, err := g.Apply(b.ups)
				if err != nil {
					t.Fatalf("%s seed %d batch %d: %v", w.name, seed, i, err)
				}
				moved := false
				for _, u := range b.ups {
					moved = moved || u.V == ws.su && g.Prob(u.U, u.V) != next.Prob(u.U, u.V)
				}
				if !moved {
					t.Fatalf("%s seed %d batch %d leaves the subscribed vertex %d unchanged", w.name, seed, i, ws.su)
				}
				g = next
			}
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, err := percentile(xs, 0.99); err != nil || p != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", p, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if p, err := percentile(xs[:100], 0.9); err != nil || p != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", p, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples must be refused")
	}
	if p, err := percentile(xs[:21], 0.5); err != nil || p != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11", p, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("the median of 19 samples has 9 beyond it and must be refused")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Fatalf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
			}
		}
	}
}

// TestDeclaredNamesMatch holds the printed metric lists to BENCHMARK.json.
func TestDeclaredNamesMatch(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the run prints %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), printed %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the traced run prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), printed %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s here", i, w.Name, workloads[i].name)
		}
	}
	res := &result{}
	for _, m := range endToEnd {
		res.set(m.name, 1, m.unit, 1)
	}
	if err := checkNames(res, endToEnd); err != nil {
		t.Fatal(err)
	}
	res.set("extra", 1, "ms", 1)
	if err := checkNames(res, endToEnd); err == nil {
		t.Fatal("an undeclared metric passed the name check")
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10}
	pair := func(change []float64) [][2]float64 {
		var ps [][2]float64
		for i := range change {
			ps = append(ps, [2]float64{parent[i], change[i]})
		}
		return ps
	}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, p := range parent {
			out[i] = p * f
		}
		return out
	}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{scale(0.8), "improved"},
		{scale(1.3), "worse"},
		{scale(1.02), "within bound"},
	} {
		if _, v := verdict(parent, c.change, pair(c.change), true, 0.1); v != c.want {
			t.Errorf("verdict for x%.2f = %s, want %s", c.change[0]/parent[0], v, c.want)
		}
	}
	noisy := []float64{5, 15, 6, 14, 7, 13, 8, 12, 9, 11}
	if _, v := verdict(noisy, noisy, pair(noisy), true, 0.1); v != "unresolved" {
		t.Errorf("a spread wider than the bound gave %s, want unresolved", v)
	}
}
