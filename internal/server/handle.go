package server

import (
	"sync/atomic"
	"time"

	"usimrank"
)

// engineHandle pins one engine (and the graph it was built from) for
// the lifetime of the requests using it. The server holds the current
// handle in an atomic pointer; a hot-swap publishes a new handle first
// and only then releases the old one, so:
//
//   - every request acquires exactly one handle and runs start to
//     finish against that engine — there is no observable state torn
//     between two graphs;
//   - the swap itself is wait-free for new requests (one atomic load
//     plus a refcount CAS);
//   - the old engine drains naturally: when the last pinned request
//     releases it, the drained channel closes and the reload reply can
//     report a clean handover.
type engineHandle struct {
	eng    *usimrank.Engine
	graph  *usimrank.Graph
	source string // file path (or descriptor) the graph was loaded from
	gen    uint64 // 1 for the boot engine, +1 per successful reload
	// idx is the reverse-walk index matching this handle's engine
	// generation, or nil when this generation serves without one. It
	// rides the handle's lifetime: a hot-swap that patches or replaces
	// the index publishes the successor in the next handle, and requests
	// pinned here keep probing this one until they finish.
	idx     *usimrank.Index
	builtAt time.Time

	// refs counts pinned users plus one reference owned by the server
	// while the handle is current. It can only grow while positive, so
	// once it reaches zero (the server dropped it and every request
	// finished) it stays zero and drained is closed exactly once.
	refs    atomic.Int64
	drained chan struct{}
}

func newEngineHandle(eng *usimrank.Engine, g *usimrank.Graph, source string, gen uint64, idx *usimrank.Index) *engineHandle {
	h := &engineHandle{
		eng:     eng,
		graph:   g,
		source:  source,
		gen:     gen,
		idx:     idx,
		builtAt: time.Now(),
		drained: make(chan struct{}),
	}
	h.refs.Store(1) // the server's ownership reference
	return h
}

// tryAcquire pins the handle for one request. It fails only when the
// handle has already fully drained (refs hit zero), which can happen
// if a swap raced the caller's atomic load; callers just reload the
// current pointer and retry.
func (h *engineHandle) tryAcquire() bool {
	for {
		n := h.refs.Load()
		if n <= 0 {
			return false
		}
		if h.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// pin re-pins a handle its caller already holds (so tryAcquire cannot
// fail) and returns the matching release: the executor's leader-side
// pin, which keeps the engine alive for the flight's own lifetime.
func (h *engineHandle) pin() func() {
	h.tryAcquire()
	return h.release
}

// release unpins the handle; the final release closes drained.
func (h *engineHandle) release() {
	if h.refs.Add(-1) == 0 {
		close(h.drained)
	}
}

// awaitDrain blocks until every reference is gone or the timeout
// elapses, reporting which happened.
func (h *engineHandle) awaitDrain(timeout time.Duration) bool {
	select {
	case <-h.drained:
		return true
	default:
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-h.drained:
		return true
	case <-t.C:
		return false
	}
}
