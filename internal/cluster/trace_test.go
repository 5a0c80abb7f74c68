package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"usimrank/internal/obs"
	"usimrank/internal/server"
)

// postTraced is post plus response headers and an optional request
// trace header.
func postTraced(t testing.TB, h http.Handler, path, body, traceHeader string) (int, []byte, http.Header) {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if traceHeader != "" {
		req.Header.Set(obs.TraceHeader, traceHeader)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), rec.Result().Header
}

// spansByName indexes a profile's spans, and checkConnected asserts
// every span's parent is either the trace's remote parent or another
// span of the same profile — one tree, no orphans.
func spansByName(p *obs.Profile) map[string][]obs.ProfileSpan {
	out := make(map[string][]obs.ProfileSpan)
	for _, s := range p.Spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

func checkConnected(t *testing.T, p *obs.Profile, remoteParents map[uint64]bool) {
	t.Helper()
	ids := make(map[uint64]bool, len(p.Spans))
	for _, s := range p.Spans {
		ids[s.ID] = true
	}
	for _, s := range p.Spans {
		if s.Parent != 0 && !ids[s.Parent] && !remoteParents[s.Parent] {
			t.Errorf("span %d %q has unknown parent %d", s.ID, s.Name, s.Parent)
		}
	}
}

// TestDebugProfileConnectedAcrossCluster drives the acceptance query:
// a debug=true pairs top-k against a 2-shard cluster must return one
// connected span tree covering the coordinator's scatter, BOTH shards'
// engine-compute spans (as remote profiles grafted onto the per-shard
// task spans, sharing the coordinator's trace id), and the merge —
// with the kernel's walk counters attached to the kernel spans.
func TestDebugProfileConnectedAcrossCluster(t *testing.T) {
	co := bootCluster(t, testGraph(), 2)
	status, body, hdr := postTraced(t, co, "/v1/topk", `{"alg":"sampling","k":5,"debug":true}`, "")
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp server.TopKResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Profile == nil || resp.Profile.TraceID == "" {
		t.Fatalf("debug response carries no profile: %s", body)
	}
	if got := hdr.Get(obs.TraceHeader); got != resp.Profile.TraceID {
		t.Fatalf("response trace header %q != profile trace id %q", got, resp.Profile.TraceID)
	}
	p := resp.Profile
	byName := spansByName(p)
	for _, name := range []string{"topk", "admission_wait", "coalesce", "scatter", "merge", "shard0", "shard1"} {
		if len(byName[name]) == 0 {
			t.Errorf("profile has no %q span: %v", name, names(p))
		}
	}
	checkConnected(t, p, nil)

	// Attempt span ids — the remote parents the shards' profiles hang
	// off (the trace header forwarded to a shard names the attempt span
	// that reached it).
	attempts := make(map[uint64]bool)
	for _, s := range p.Spans {
		if strings.HasPrefix(s.Name, "attempt ") {
			attempts[s.ID] = true
		}
	}
	if len(attempts) < 2 {
		t.Fatalf("expected an attempt span per shard, got %d", len(attempts))
	}

	remotes := 0
	for _, shard := range []string{"shard0", "shard1"} {
		for _, s := range byName[shard] {
			if s.Remote == nil {
				t.Fatalf("%s task span carries no remote profile", shard)
			}
			remotes++
			if s.Remote.TraceID != p.TraceID {
				t.Errorf("%s remote profile trace id %q, want the coordinator's %q", shard, s.Remote.TraceID, p.TraceID)
			}
			rn := spansByName(s.Remote)
			if len(rn["engine_compute"]) == 0 {
				t.Errorf("%s remote profile has no engine_compute span: %v", shard, names(s.Remote))
			}
			kernels := rn["kernel_single_source"]
			if len(kernels) == 0 {
				t.Errorf("%s remote profile has no kernel spans: %v", shard, names(s.Remote))
			}
			for _, k := range kernels {
				if k.Attrs["walks"] <= 0 {
					t.Errorf("%s kernel span carries no walk counter: %+v", shard, k)
				}
			}
			// Every shard-side span shares the trace; the node's root
			// spans hang off a coordinator attempt span — the
			// cross-process link checkConnected verifies via the
			// attempt-id set.
			checkConnected(t, s.Remote, attempts)
		}
	}
	if remotes < 2 {
		t.Fatalf("expected remote profiles from both shards, got %d", remotes)
	}
}

func names(p *obs.Profile) []string {
	out := make([]string, len(p.Spans))
	for i, s := range p.Spans {
		out[i] = s.Name
	}
	return out
}

// TestTraceHedgedFailoverErroredSpan kills a shard's primary and runs
// a debug fan-out: the trace must stay one connected tree in which the
// dead primary's attempt is an errored span and the replica's attempt
// carries the shard's remote profile.
func TestTraceHedgedFailoverErroredSpan(t *testing.T) {
	g := testGraph()
	primary, primaryFault := newFaultyShard(t, g)
	replica := newShardNode(t, g)
	co := newCoordinator(t, [][]string{
		{newShardNode(t, g).URL},
		{primary.URL, replica.URL},
	}, func(cfg *Config) {
		cfg.HedgeDelay = 10 * time.Millisecond
		cfg.ShardTimeout = 10 * time.Second
	})
	primaryFault.dead.Store(true)
	primary.CloseClientConnections()

	status, body, _ := postTraced(t, co, "/v1/topk", `{"alg":"sampling","k":5,"debug":true}`, "")
	if status != 200 {
		t.Fatalf("status %d after primary death: %s", status, body)
	}
	var resp server.TopKResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Profile == nil {
		t.Fatal("debug response carries no profile")
	}
	checkConnected(t, resp.Profile, nil)
	var failed, won int
	for _, s := range resp.Profile.Spans {
		if !strings.HasPrefix(s.Name, "attempt ") {
			continue
		}
		if strings.HasPrefix(s.Name, "attempt "+primary.URL) {
			if s.Error == "" {
				t.Errorf("dead primary's attempt span has no error: %+v", s)
			}
			failed++
		} else {
			won++
		}
	}
	if failed == 0 {
		t.Error("no errored attempt span for the dead primary")
	}
	if won < 2 {
		t.Errorf("expected winning attempt spans for shard0 and the replica, got %d", won)
	}
	// The failover still produced both shards' remote profiles.
	for _, shard := range []string{"shard0", "shard1"} {
		found := false
		for _, s := range resp.Profile.Spans {
			if s.Name == shard && s.Remote != nil {
				found = true
			}
		}
		if !found {
			t.Errorf("%s has no remote profile after failover", shard)
		}
	}
}

// TestTraceStaleSwapRejection reproduces the mid-flight hot-swap
// hazard at the client layer with tracing armed: the stale endpoint's
// definitive answer is rejected for its old generation, and the trace
// shows it as an errored attempt span next to the current endpoint's
// winning attempt — one connected tree for the whole swap-and-retry.
//
// With a 1ms hedge the current endpoint could answer before the stale
// answer is processed and leave nothing to reject, so the current
// node's query handler is gated: it answers only once the client has
// read and rejected the stale node's response.
func TestTraceStaleSwapRejection(t *testing.T) {
	g := testGraph()
	au, av, _ := g.ArcEndpoints(0)
	stale := newShardNode(t, g)
	var client atomic.Pointer[Client]
	s, err := server.New(g, "test://shard", server.Config{Engine: testOptions()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	current := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for r.URL.Path == "/v1/score" && client.Load().Counters()[0].StaleRejected == 0 {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(time.Millisecond):
			}
		}
		s.ServeHTTP(w, r)
	}))
	t.Cleanup(current.Close)
	directUpdate(t, current.URL, au, av, 0.111)

	c := NewClient([][]string{{stale.URL, current.URL}}, http.DefaultClient, 5*time.Second, time.Millisecond)
	client.Store(c)
	tr := obs.NewTrace("", 0)
	root := tr.Start("client_do")
	ctx := obs.ContextWithSpan(t.Context(), root)
	resp, err := c.Do(ctx, 0, "POST", "/v1/score", []byte(`{"alg":"srsp","u":3,"v":17}`), 2)
	if err != nil {
		t.Fatal(err)
	}
	if resp.URL != current.URL {
		t.Fatalf("answer from %s, want the generation-2 endpoint", resp.URL)
	}
	root.End()
	p := tr.Profile()
	checkConnected(t, p, nil)
	var staleErrored, currentClean bool
	for _, s := range p.Spans {
		if s.Name == "attempt "+stale.URL && strings.Contains(s.Error, "stale graph") {
			staleErrored = true
		}
		if s.Name == "attempt "+current.URL && s.Error == "" {
			currentClean = true
		}
	}
	if !staleErrored {
		t.Errorf("stale endpoint's attempt is not an errored span: %v", names(p))
	}
	if !currentClean {
		t.Errorf("current endpoint's attempt span missing or errored: %v", names(p))
	}
	cs := c.Counters()
	if cs[0].StaleRejected == 0 {
		t.Error("stale rejection not counted")
	}
}

// TestTracingDoesNotPerturbResponses pins the byte-identity contract:
// for every query shape and algorithm, the response body with tracing
// armed (via trace header, and via a slow-query-armed coordinator over
// the same fleet) is byte-identical to the response with tracing off.
func TestTracingDoesNotPerturbResponses(t *testing.T) {
	g := testGraph()
	shards := [][]string{
		{newShardNode(t, g).URL},
		{newShardNode(t, g).URL},
	}
	plain := newCoordinator(t, shards, nil)
	slow := newCoordinator(t, shards, func(cfg *Config) {
		cfg.SlowQuery = time.Nanosecond // arms tracing and logs every query
	})

	queries := []struct{ path, body string }{
		{"/v1/score", `{"alg":"sampling","u":3,"v":17}`},
		{"/v1/score", `{"alg":"srsp","u":3,"v":17}`},
		{"/v1/source", `{"alg":"sampling","u":5}`},
		{"/v1/source", `{"alg":"srsp","u":5,"candidates":[1,2,3,9]}`},
		{"/v1/topk", `{"alg":"srsp","u":3,"k":5}`},
		{"/v1/topk", `{"alg":"sampling","k":5}`},
		{"/v1/batch", `{"alg":"srsp","pairs":[[1,2],[3,17],[40,41]]}`},
	}
	for _, q := range queries {
		offStatus, off, offHdr := postTraced(t, plain, q.path, q.body, "")
		if offStatus != 200 {
			t.Fatalf("%s %s: status %d: %s", q.path, q.body, offStatus, off)
		}
		if offHdr.Get(obs.TraceHeader) != "" {
			t.Errorf("%s: untraced response carries a trace header", q.path)
		}
		onStatus, on, onHdr := postTraced(t, plain, q.path, q.body, "cafe1234cafe1234-1f")
		if onStatus != 200 {
			t.Fatalf("%s traced: status %d: %s", q.path, onStatus, on)
		}
		if got := onHdr.Get(obs.TraceHeader); got != "cafe1234cafe1234" {
			t.Errorf("%s: trace header not echoed: %q", q.path, got)
		}
		if string(off) != string(on) {
			t.Errorf("%s %s: tracing perturbed the response\noff: %s\non:  %s", q.path, q.body, off, on)
		}
		slowStatus, slowBody, _ := postTraced(t, slow, q.path, q.body, "")
		if slowStatus != 200 {
			t.Fatalf("%s slow-armed: status %d: %s", q.path, slowStatus, slowBody)
		}
		if string(off) != string(slowBody) {
			t.Errorf("%s %s: slow-query tracing perturbed the response\noff:  %s\nslow: %s", q.path, q.body, off, slowBody)
		}
	}
}

// TestTraceAdminFanoutEcho: an admin mutation carrying a trace header
// gets the trace id echoed back, and the fleet still converges.
func TestTraceAdminFanoutEcho(t *testing.T) {
	g := testGraph()
	co := bootCluster(t, g, 2)
	au, av, _ := g.ArcEndpoints(0)
	body := fmt.Sprintf(`{"updates":[{"op":"reweight","u":%d,"v":%d,"p":0.333}]}`, au, av)
	status, respBody, hdr := postTraced(t, co, "/v1/admin/update", body, "beefbeefbeefbeef-2a")
	if status != 200 {
		t.Fatalf("status %d: %s", status, respBody)
	}
	if got := hdr.Get(obs.TraceHeader); got != "beefbeefbeefbeef" {
		t.Fatalf("admin fan-out did not echo the trace id: %q", got)
	}
	if co.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", co.Generation())
	}
}
