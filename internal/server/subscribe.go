package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"usimrank"
	"usimrank/internal/sub"
)

// GET /v1/subscribe — the continuous-query plane. A client opens one
// long-lived SSE stream per standing query shape and receives:
//
//   - an initial "snapshot" event carrying the answer at the current
//     generation (skipped when Last-Event-ID already matches it);
//   - "update" events whenever an admin mutation can have changed the
//     answer, each carrying the full recomputed body at the latest
//     generation (a burst of updates coalesces into one push);
//   - ": hb" comment frames as keep-alives on idle streams;
//   - a terminal "shutdown" ("gone", "error") event before the server
//     closes the stream.
//
// Every event's id is the graph generation its payload was computed
// at, and every payload is byte-identical to the response body of a
// cold POST query of the same shape at that generation. Reconnecting
// with Last-Event-ID resumes: the server re-sends a snapshot only when
// the generation moved while the client was away.
//
// Query parameters: shape=score|source|topk, alg (an engine algorithm;
// "indexed" additionally allowed for shape=source on an index-serving
// node), u, v (score only), k (topk only), candidates (source only,
// comma-separated), staleness_ms (how long the server may sit on a
// wake-up coalescing further generations before it must push; capped
// by -sub-max-staleness).

// Event names of the subscription stream.
const (
	EventSnapshot = "snapshot"
	EventUpdate   = "update"
	// EventShutdown is terminal: the server is draining; resubscribe
	// with Last-Event-ID to resume. EventGone is terminal: the watched
	// vertices no longer exist (a reload shrank the graph). EventError
	// is terminal: a push failed; the payload carries the error envelope.
	EventShutdown = "shutdown"
	EventGone     = "gone"
	EventError    = "error"
)

// Timeouts NewHTTPServer installs on every usimd listener.
const (
	// ReadHeaderTimeout bounds how long a connection may dribble its
	// request headers — the slowloris guard.
	ReadHeaderTimeout = 10 * time.Second
	// IdleTimeout reaps kept-alive connections with no request in
	// flight. It does not apply to a connection actively serving a
	// request, so subscription streams are unaffected.
	IdleTimeout = 120 * time.Second
)

// NewHTTPServer builds the http.Server every usimd process listens on.
// It deliberately sets no WriteTimeout: a blanket write deadline would
// kill every /v1/subscribe stream at the timeout no matter how healthy,
// since net/http arms it once per connection, not per write. Slow-peer
// protection comes from ReadHeaderTimeout and IdleTimeout instead;
// TestHTTPServerTimeouts pins the invariant.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		IdleTimeout:       IdleTimeout,
	}
}

// DrainSubscriptions tells every live subscription stream to send its
// terminal shutdown event and close, then waits (bounded by the drain
// timeout) for them to finish. Call it before http.Server.Shutdown:
// Shutdown waits for active connections, and an SSE stream left to its
// own devices never becomes inactive.
func (s *Server) DrainSubscriptions() bool {
	s.subs.Shutdown()
	return s.subs.AwaitIdle(s.cfg.DrainTimeout)
}

// SubscriptionStatsFrom converts a registry snapshot into the stats
// wire shape (shared with the cluster coordinator's relay registry).
func SubscriptionStatsFrom(r *sub.Registry) *SubscriptionStats {
	st := r.Snapshot()
	return &SubscriptionStats{
		Active:    st.Active,
		Lookups:   st.Lookups,
		Wakeups:   st.Wakeups,
		Coalesced: st.Coalesced,
		Pushes:    st.Pushes,
		Dropped:   st.Dropped,
	}
}

// subQuery is one subscription's parsed query: the cold query it
// stands for, plus the vertices it references and watches.
type subQuery struct {
	q       query
	indexed bool
	// vertices is every vertex id the shape references, for range
	// checks.
	vertices []int
	// watched is the vertex set whose touched-source membership forces
	// a recompute, registered in the inverted index. The invalidation
	// BFS reports per-SIDE sources: an answer is bit-identical across an
	// update only when every constituent source — each side of each
	// pair the shape evaluates — stays outside the touched set. Score
	// and candidate-restricted source enumerate their constituents;
	// top-k of u and the unrestricted single-source vector evaluate a
	// pair against EVERY vertex, so any touched v-side row can move
	// their answer even when u itself is unaffected — they watch
	// sub.AnyVertex and wake on every non-empty invalidation set.
	watched []int32
}

// parseSubQuery validates the request's query parameters into a
// subQuery, writing the 400 itself on failure.
func (s *Server) parseSubQuery(w http.ResponseWriter, r *http.Request) (*subQuery, bool) {
	qp := r.URL.Query()
	shape := qp.Get("shape")
	switch shape {
	case "score", "source", "topk":
	default:
		WriteError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("shape %q must be score, source or topk", shape))
		return nil, false
	}
	rawAlg := qp.Get("alg")
	sq := &subQuery{indexed: shape == "source" && strings.EqualFold(rawAlg, AlgIndexed)}
	var alg usimrank.Algorithm
	if !sq.indexed {
		var ok bool
		if alg, ok = ParseAlg(w, rawAlg); !ok {
			return nil, false
		}
	}
	u, ok := intParam(w, qp.Get("u"), "u", true)
	if !ok {
		return nil, false
	}
	switch shape {
	case "score":
		v, ok := intParam(w, qp.Get("v"), "v", true)
		if !ok {
			return nil, false
		}
		sq.q = &scoreQuery{ScoreRequest{Alg: rawAlg, U: u, V: v}, alg}
		sq.vertices = []int{u, v}
		sq.watched = []int32{int32(u)}
		if v != u {
			sq.watched = append(sq.watched, int32(v))
		}
	case "topk":
		k, ok := intParam(w, qp.Get("k"), "k", true)
		if !ok {
			return nil, false
		}
		if k < 1 {
			WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("k = %d < 1", k))
			return nil, false
		}
		sq.q = &topkQuery{TopKRequest{Alg: rawAlg, U: &u, K: k}, alg}
		sq.vertices = []int{u}
		sq.watched = []int32{sub.AnyVertex}
	case "source":
		var cands []int
		if raw := qp.Get("candidates"); raw != "" {
			for _, part := range strings.Split(raw, ",") {
				c, ok := intParam(w, part, "candidates", true)
				if !ok {
					return nil, false
				}
				cands = append(cands, c)
			}
		}
		q := &sourceQuery{SourceRequest: SourceRequest{Alg: rawAlg, U: u, Candidates: cands},
			alg: alg, algName: AlgIndexed, indexed: sq.indexed}
		if !q.indexed {
			q.algName = alg.String()
		}
		sq.q = q
		sq.vertices = append([]int{u}, cands...)
		sq.watched = []int32{sub.AnyVertex}
		if len(cands) > 0 {
			sq.watched = []int32{int32(u)}
			for _, c := range cands {
				if c != u {
					sq.watched = append(sq.watched, int32(c))
				}
			}
		}
	}
	return sq, true
}

// intParam parses one integer query parameter, writing the 400 itself.
func intParam(w http.ResponseWriter, raw, name string, required bool) (int, bool) {
	if raw == "" {
		if required {
			WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("%q is required", name))
		}
		return 0, !required
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("bad %q: %v", name, err))
		return 0, false
	}
	return v, true
}

// pushBody computes a subscription's answer against h and encodes it
// exactly as the cold handler would: the push runs through the
// executor under the cold query's flight key (see Executor.push). The
// caller keeps ownership of its pin on h; the flight takes its own.
func (s *Server) pushBody(q query, h *engineHandle) ([]byte, error) {
	val, err := s.exec.push(Call{
		Key: q.key(h.gen),
		Pin: h.pin,
		Run: q.compute(h),
	})
	if err != nil {
		return nil, err
	}
	return MarshalBody(q.response(val, false, nil))
}

// WriteTerminal emits a terminal event (shutdown/gone/error) carrying
// the uniform error envelope as its payload, then flushes. Best-effort:
// the client may already be gone. The coordinator's relays end their
// streams through it too.
func WriteTerminal(w http.ResponseWriter, fl http.Flusher, event string, id uint64, code, msg string) {
	body, err := MarshalBody(ErrorResponse{Error: ErrorDetail{Code: code, Message: msg}})
	if err != nil {
		return
	}
	if sub.WriteEvent(w, event, id, body) == nil {
		fl.Flush()
	}
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, CodeEngineError,
			"streaming unsupported by this connection")
		return
	}
	q, ok := s.parseSubQuery(w, r)
	if !ok {
		return
	}
	staleness := time.Duration(0)
	if raw := r.URL.Query().Get("staleness_ms"); raw != "" {
		ms, ok := intParam(w, raw, "staleness_ms", true)
		if !ok {
			return
		}
		if staleness = time.Duration(ms) * time.Millisecond; staleness > s.cfg.SubMaxStaleness {
			staleness = s.cfg.SubMaxStaleness
		}
		if staleness < 0 {
			staleness = 0
		}
	}

	// Validate the shape against the current graph, then let go of the
	// handle: a subscription pins an engine only for the duration of a
	// push, never for the stream's lifetime, so idle subscribers cannot
	// wedge a hot-swap's drain.
	h := s.engine()
	if !s.checkVertices(w, h, q.vertices...) {
		h.release()
		return
	}
	if q.indexed && h.idx == nil {
		h.release()
		WriteError(w, http.StatusBadRequest, CodeBadRequest, noIndexMsg)
		return
	}
	bootGen := h.gen
	h.release()

	su := s.subs.Subscribe(q.watched, staleness)
	if su == nil {
		WriteError(w, http.StatusServiceUnavailable, CodeUnavailable, "server shutting down")
		return
	}
	defer s.subs.Unsubscribe(su)

	// Resume: a client that already holds the answer for the current
	// generation (its Last-Event-ID matches) skips the snapshot and goes
	// straight to waiting for updates.
	lastSent := uint64(0)
	if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		if id, err := strconv.ParseUint(raw, 10, 64); err == nil {
			lastSent = id
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set(GenerationHeader, strconv.FormatUint(bootGen, 10))
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// Initial snapshot. The subscription is already registered, so a
	// mutation landing between the snapshot's pin and the first wait is
	// never lost — it marks the subscription dirty and the loop below
	// picks it up (pushes with gen ≤ lastSent are skipped, so nothing is
	// sent twice either).
	if sh := s.engine(); sh.gen != lastSent {
		body, err := s.pushBody(q.q, sh)
		if err != nil {
			sh.release()
			s.subs.NoteDropped()
			WriteTerminal(w, fl, EventError, 0, CodeEngineError, "snapshot failed: "+err.Error())
			return
		}
		if sub.WriteEvent(w, EventSnapshot, sh.gen, body) != nil {
			sh.release()
			return
		}
		fl.Flush()
		lastSent = sh.gen
		sh.release()
	} else {
		sh.release()
	}

	shutdown := func() {
		WriteTerminal(w, fl, EventShutdown, lastSent, CodeUnavailable,
			"server shutting down; resubscribe with Last-Event-ID to resume")
	}
	hb := time.NewTicker(s.cfg.SubHeartbeat)
	defer hb.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.subs.ShuttingDown():
			shutdown()
			return
		case <-s.baseCtx.Done():
			shutdown()
			return
		case <-hb.C:
			if sub.WriteComment(w, "hb") != nil {
				return
			}
			fl.Flush()
		case <-su.Wait():
			// Staleness SLA: the subscription may sit on the wake-up for
			// its negotiated window, folding further generations into one
			// push (claimed below, so the push carries the newest).
			if d := su.Staleness(); d > 0 {
				t := time.NewTimer(d)
			stale:
				for {
					select {
					case <-t.C:
						break stale
					case <-hb.C:
						if sub.WriteComment(w, "hb") != nil {
							t.Stop()
							return
						}
						fl.Flush()
					case <-ctx.Done():
						t.Stop()
						return
					case <-s.subs.ShuttingDown():
						t.Stop()
						shutdown()
						return
					}
				}
				t.Stop()
			}
			target := su.Claim()
			if target == 0 || target <= lastSent {
				continue
			}
			ph := s.engine()
			if ph.gen <= lastSent {
				ph.release()
				continue
			}
			// A reload may have shrunk the graph under the subscription.
			n := ph.graph.NumVertices()
			for _, v := range q.vertices {
				if v < 0 || v >= n {
					ph.release()
					s.subs.NoteDropped()
					WriteTerminal(w, fl, EventGone, lastSent, CodeBadRequest,
						fmt.Sprintf("vertex %d out of range [0,%d) after reload", v, n))
					return
				}
			}
			body, err := s.pushBody(q.q, ph)
			gen := ph.gen
			ph.release()
			if err != nil {
				s.subs.NoteDropped()
				WriteTerminal(w, fl, EventError, lastSent, CodeEngineError, "push failed: "+err.Error())
				return
			}
			if sub.WriteEvent(w, EventUpdate, gen, body) != nil {
				s.subs.NoteDropped()
				return
			}
			// Counted before the flush, so a client that has read the
			// event never sees a stats snapshot without it.
			s.subs.NotePush()
			fl.Flush()
			lastSent = gen
		}
	}
}
