package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"usimrank/internal/obs"
)

// Executor is the one query pipeline of both serving planes: the node
// server's POST handlers, the cluster coordinator's handlers, and the
// node's subscription pushes all run through it. For every query it
//
//   - suffixes the flight key with the effective deadline,
//   - claims a tiered admission slot (429 + Retry-After on rejection),
//   - joins or leads the query's flight, handing the slot back as soon
//     as the request turns out to be a follower,
//   - runs the leader under a deadline the plane owns, so one impatient
//     client cannot cancel a coalesced cohort,
//   - and records, logs and maps the outcome to the error envelope.
//
// What differs between the callers is passed in per query (see Call)
// or per call site (the error writer), never configured.
type Executor struct {
	// Plane names the process in operator-facing messages ("server" or
	// "coordinator": "server saturated", "the coordinator's -timeout").
	Plane     string
	Admission *Admission
	Flights   *FlightGroup
	Metrics   *MetricsRegistry
	// Ctx parents every flight, so cancelling it cancels in-flight work.
	Ctx context.Context
	// QueryTimeout is the per-query deadline; a request may lower it
	// with timeout_ms. MaxInFlight is quoted in 429 messages.
	QueryTimeout time.Duration
	MaxInFlight  int
	// SlowQuery, LogJSON and Logger configure the slow-query log (and
	// Logger the periodic summary of LogEvery).
	SlowQuery time.Duration
	LogJSON   bool
	Logger    *log.Logger
}

// Call is one query's trip through the Executor.
type Call struct {
	// Shape and Alg label the query's metrics and slow-query line.
	Shape, Alg string
	// TimeoutMs is the request's timeout_ms (≤ 0: the plane default).
	TimeoutMs int
	// Cheap marks a degradable (adaptive eps-bearing) query that may
	// fall back to the admission reserve.
	Cheap bool
	// Key is the request's flight key (see ScoreRequest.FlightKey).
	Key string
	// Trace and Root come from TraceFor; both may be disabled.
	Trace *obs.Trace
	Root  obs.Span
	// Span names the leader's compute span ("engine_compute" on the
	// node, "scatter" on the coordinator). It rides the flight context
	// into Run, so a debug profile shows where the leader's time went;
	// followers show a coalesce span with leader=0 instead.
	Span string
	// Pin, when set, runs in the leader's frame before the flight starts
	// and returns the matching unpin, run when the flight ends. The node
	// re-pins its engine handle here, so a hot-swap drain cannot complete
	// while the flight still computes on the old engine.
	Pin func() (unpin func())
	// Run computes the answer under the flight's context.
	Run func(ctx context.Context) (any, error)
}

// errSaturated reports an admission rejection out of run.
var errSaturated = errors.New("admission rejected")

// Execute runs one client query and writes the error response when it
// fails, through writeErr for query failures (admission rejections are
// always a 429). The happy path returns (value, coalesced, true) and
// leaves the response to the caller. A cancellation caused by the
// client's own disconnect is not a serving error: it is counted on its
// own counter, kept out of the per-shape error counts, and no response
// is written (nobody is reading).
func (e *Executor) Execute(w http.ResponseWriter, r *http.Request, c Call, writeErr func(http.ResponseWriter, error)) (any, bool, bool) {
	if c.Trace != nil {
		// Echo the trace id so callers can join logs without a debug
		// body; the header never varies the body bytes.
		w.Header().Set(obs.TraceHeader, c.Trace.ID())
	}
	val, coalesced, elapsed, err := e.run(r.Context(), &c)
	if err == errSaturated {
		w.Header().Set("Retry-After", RetryAfterSeconds(e.Admission.Wait()))
		WriteError(w, http.StatusTooManyRequests, CodeOverloaded,
			fmt.Sprintf("%s saturated: %d queries in flight", e.Plane, e.MaxInFlight))
		return nil, false, false
	}
	clientGone := err != nil && errors.Is(err, context.Canceled) && r.Context().Err() != nil
	if clientGone {
		e.Metrics.ClientGone.Add(1)
		e.Metrics.RecordQuery(c.Shape, c.Alg, elapsed, coalesced, nil)
	} else {
		e.Metrics.RecordQuery(c.Shape, c.Alg, elapsed, coalesced, err)
	}
	c.Root.Error(err)
	e.logSlowQuery(c, elapsed, coalesced, err)
	if err != nil {
		if !clientGone {
			writeErr(w, err)
		}
		return nil, coalesced, false
	}
	return val, coalesced, true
}

// push runs a server-initiated query — a subscription push — through
// the same admission and flights as client queries, so a push shares
// its flight with concurrent identical pushes and cold queries, and a
// thundering herd of woken subscriptions recomputes in bounded batches.
// Pushes are deliberately not recorded in the per-shape query metrics:
// counting them would skew the client-facing latency and coalesce-rate
// numbers.
func (e *Executor) push(c Call) (any, error) {
	val, _, _, err := e.run(e.Ctx, &c)
	if err == errSaturated {
		return nil, fmt.Errorf("push rejected: %s saturated (%d queries in flight)", e.Plane, e.MaxInFlight)
	}
	return val, err
}

// run admits c and answers it on its flight. The wait for a slot and
// for the flight is bounded by parent and the effective deadline; the
// flight itself runs under e.Ctx. elapsed covers the flight only.
func (e *Executor) run(parent context.Context, c *Call) (val any, coalesced bool, elapsed time.Duration, err error) {
	timeout := e.effectiveTimeout(c.TimeoutMs)
	// The flight runs under the leader's deadline, so only requests
	// with the same effective budget may share one: without the suffix
	// a follower with 30s left would inherit a stranger's 1ms flight
	// and 504 spuriously.
	key := fmt.Sprintf("%s|t%d", c.Key, timeout.Milliseconds())
	waitCtx, cancelWait := context.WithTimeout(parent, timeout)
	defer cancelWait()

	asp := c.Root.Start("admission_wait")
	release := e.Admission.AcquireTier(waitCtx, c.Cheap)
	if release == nil {
		asp.Error(errSaturated)
		asp.End()
		e.Metrics.AdmissionRejected.Add(1)
		return nil, false, 0, errSaturated
	}
	asp.End()
	e.Metrics.InFlight.Add(1)
	// The slot is given back exactly once, by whichever comes first:
	// becoming a follower (a follower does no work, and a burst of
	// identical queries must not hold the whole admission budget while
	// idling on one leader) or this frame unwinding.
	var relOnce sync.Once
	releaseSlot := func() {
		relOnce.Do(func() {
			e.Metrics.InFlight.Add(-1)
			release()
		})
	}
	defer releaseSlot()

	start := time.Now()
	csp := c.Root.Start("coalesce")
	root, span, pin, compute := c.Root, c.Span, c.Pin, c.Run // keep c itself off the heap
	val, coalesced, err = e.Flights.Do(waitCtx, key, releaseSlot, func() func() (any, error) {
		// Leader path, still in this request's frame: transfer a pin
		// and a plane-owned deadline into the flight so it survives
		// this request abandoning the wait.
		unpin := func() {}
		if pin != nil {
			unpin = pin()
		}
		fctx, cancelFlight := context.WithTimeout(e.Ctx, timeout)
		sp := root.Start(span)
		fctx = obs.ContextWithSpan(fctx, sp)
		return func() (any, error) {
			defer sp.End()
			defer unpin()
			defer cancelFlight()
			return compute(fctx)
		}
	})
	if csp.Enabled() {
		var lead int64
		if !coalesced {
			lead = 1
		}
		csp.Add("leader", lead)
	}
	csp.End()
	return val, coalesced, time.Since(start), err
}

// effectiveTimeout applies a request's timeout_ms within the plane's
// bound.
func (e *Executor) effectiveTimeout(ms int) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 || d > e.QueryTimeout {
		return e.QueryTimeout
	}
	return d
}

// TraceFor arms tracing for a request when any consumer exists: an
// incoming Usimrank-Trace header (an upstream wants connected spans),
// the debug flag (the client wants the profile inline), or a
// configured slow-query threshold (the log may want the trace).
// Otherwise it returns (nil, zero Span) and the request records
// nothing — the allocation-free disabled path.
func (e *Executor) TraceFor(r *http.Request, shape string, debug bool) (*obs.Trace, obs.Span) {
	hdr := r.Header.Get(obs.TraceHeader)
	if hdr == "" && !debug && e.SlowQuery <= 0 {
		return nil, obs.Span{}
	}
	id, parent, _ := obs.ParseTraceHeader(hdr)
	tr := obs.NewTrace(id, parent)
	return tr, tr.Start(shape)
}

// WriteQueryError maps a failed query's engine or context error to the
// error envelope.
func (e *Executor) WriteQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		e.Metrics.DeadlineExceeded.Add(1)
		WriteError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded,
			"query exceeded its deadline; raise timeout_ms or the "+e.Plane+"'s -timeout")
	case errors.Is(err, context.Canceled):
		WriteError(w, http.StatusServiceUnavailable, CodeUnavailable,
			"query cancelled (client disconnected or "+e.Plane+" shutting down)")
	default:
		WriteError(w, http.StatusInternalServerError, CodeEngineError, err.Error())
	}
}

// RetryAfterSeconds derives the 429 Retry-After hint from the
// admission grace: the request already waited one full grace period
// without a slot freeing, so a client should back off at least that
// long (floored at the header's 1-second resolution) before retrying.
func RetryAfterSeconds(wait time.Duration) string {
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// slowQueryLog is the JSON shape of one -log-json slow-query line.
type slowQueryLog struct {
	Msg        string            `json:"msg"`
	TraceID    string            `json:"trace_id"`
	Shape      string            `json:"shape"`
	Alg        string            `json:"alg"`
	DurationMs float64           `json:"duration_ms"`
	Coalesced  bool              `json:"coalesced"`
	Error      string            `json:"error,omitempty"`
	Spans      []obs.ProfileSpan `json:"spans"`
}

// logSlowQuery writes one structured slow-query line — key=value text,
// or single-line JSON with LogJSON — when d meets the threshold. The
// trace is always armed when SlowQuery is set (see TraceFor), so the
// line can carry span timings.
func (e *Executor) logSlowQuery(c Call, d time.Duration, coalesced bool, err error) {
	if e.SlowQuery <= 0 || d < e.SlowQuery || c.Trace == nil {
		return
	}
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	p := c.Trace.Profile()
	durMs := float64(d.Microseconds()) / 1000
	if e.LogJSON {
		line, merr := json.Marshal(slowQueryLog{
			Msg: "slow_query", TraceID: p.TraceID, Shape: c.Shape, Alg: c.Alg,
			DurationMs: durMs, Coalesced: coalesced, Error: errMsg, Spans: p.Spans,
		})
		if merr == nil {
			e.Logger.Printf("%s", line)
		}
		return
	}
	e.Logger.Printf("slow_query trace=%s shape=%s alg=%s dur_ms=%.3f coalesced=%v err=%q spans: %s",
		p.TraceID, c.Shape, c.Alg, durMs, coalesced, errMsg, p.SpanLine())
}

// LogEvery runs logStats at the given period until Ctx is cancelled;
// a non-positive period disables it.
func (e *Executor) LogEvery(every time.Duration, logStats func()) {
	if every <= 0 {
		return
	}
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-e.Ctx.Done():
				return
			case <-t.C:
				logStats()
			}
		}
	}()
}

// MaxBodyBytes bounds request bodies (8 MiB ≈ a ~350k-pair batch):
// admission control is pointless if an unbounded JSON body can balloon
// memory before the semaphore is ever consulted.
const MaxBodyBytes = 8 << 20

// DecodeJSON strictly decodes one JSON object from body into into,
// writing a 400 on failure: unknown fields are rejected, and so is
// anything but whitespace after the object. Both planes decode every
// request through it, so the coordinator 400s exactly where a node
// would.
func DecodeJSON(w http.ResponseWriter, body io.Reader, into any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("unexpected data after the JSON object")
		}
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "bad JSON body: "+err.Error())
		return false
	}
	return true
}
