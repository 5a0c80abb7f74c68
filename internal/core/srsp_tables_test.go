package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestPooledSRSPTablesNeverLeak hammers one engine's pooled SR-SP
// counting tables from many goroutines: pairwise SRSP, single-source
// SRSP and SRSPMatrix, interleaved with queries whose context is
// cancelled before or part-way through the propagation fan-out, so
// parallel.Pool.For skips some tasks. Every completed answer must equal
// the serial one bit for bit. A table handed to two tasks at once, or
// returned to the pool while still being read, would corrupt some
// answers; the race leg additionally sees the shared buffers.
func TestPooledSRSPTablesNeverLeak(t *testing.T) {
	g := testGraph()
	opt := Options{N: 300, Seed: 5}
	serialOpt := opt
	serialOpt.Parallelism = 1
	serial := newEngine(t, g, serialOpt)
	opt.Parallelism = 4
	e := newEngine(t, g, opt)

	pairs := [][2]int{{0, 1}, {2, 3}, {10, 77}, {64, 5}, {33, 33}}
	sources := []int{0, 9, 33}
	cands := []int{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 0, 9}
	verts := []int{0, 7, 19, 64}
	wantPair := make([]float64, len(pairs))
	for i, p := range pairs {
		var err error
		if wantPair[i], err = serial.SRSP(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	wantSource := make([][]float64, len(sources))
	for i, u := range sources {
		var err error
		if wantSource[i], err = serial.SingleSourceAgainst(AlgSRSP, u, cands); err != nil {
			t.Fatal(err)
		}
	}
	wantMatrix, err := serial.SRSPMatrix(verts)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, reps = 12, 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				if err := pooledSRSPOp(e, gi*reps+rep, pairs, sources, cands, verts, wantPair, wantSource, wantMatrix); err != nil {
					errCh <- fmt.Errorf("goroutine %d rep %d: %w", gi, rep, err)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// pooledSRSPOp runs the op-th query of the hammer and checks it against
// the serial answers. Cancelled queries may return context.Canceled or,
// when the cancellation landed after the last fan-out, the full answer.
func pooledSRSPOp(e *Engine, op int, pairs [][2]int, sources, cands, verts []int,
	wantPair []float64, wantSource, wantMatrix [][]float64) error {
	i := op % len(pairs)
	s := op % len(sources)
	switch op % 5 {
	case 0:
		got, err := e.Compute(AlgSRSP, pairs[i][0], pairs[i][1])
		if err != nil || got != wantPair[i] {
			return fmt.Errorf("pair %v = (%v, %v), want %v", pairs[i], got, err, wantPair[i])
		}
	case 1:
		got, err := e.SingleSourceAgainst(AlgSRSP, sources[s], cands)
		if err != nil || !slices.Equal(got, wantSource[s]) {
			return fmt.Errorf("source %d = (%v, %v), want %v", sources[s], got, err, wantSource[s])
		}
	case 2:
		got, err := e.SRSPMatrix(verts)
		if err != nil {
			return err
		}
		for r := range got {
			if !slices.Equal(got[r], wantMatrix[r]) {
				return fmt.Errorf("matrix row %d = %v, want %v", r, got[r], wantMatrix[r])
			}
		}
	case 3:
		ctx := &midwayCtx{Context: context.Background(), after: int64(1 + op%7)}
		got, err := e.ComputeCtx(ctx, AlgSRSP, pairs[i][0], pairs[i][1])
		if err != context.Canceled && (err != nil || got != wantPair[i]) {
			return fmt.Errorf("cancelled pair %v = (%v, %v), want %v or context.Canceled", pairs[i], got, err, wantPair[i])
		}
	case 4:
		ctx := &midwayCtx{Context: context.Background(), after: int64(op % 9)}
		got, err := e.SingleSourceAgainstCtx(ctx, AlgSRSP, sources[s], cands)
		if err != context.Canceled && (err != nil || !slices.Equal(got, wantSource[s])) {
			return fmt.Errorf("cancelled source %d = (%v, %v), want %v or context.Canceled", sources[s], got, err, wantSource[s])
		}
	}
	return nil
}
