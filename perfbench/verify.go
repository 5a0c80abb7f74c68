package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"sync"
	"time"

	"usimrank"
	"usimrank/internal/server"
	"usimrank/internal/ugraph"
)

// reference is an in-process node built from the same source, graph,
// seed and index as the daemons under test. Its handler answers through
// the same core.Engine and encoder, so by the determinism contract every
// daemon response must equal its answer byte for byte at the same
// generation.
type reference struct {
	srv   *server.Server
	idx   *usimrank.Index
	gen   uint64
	mu    sync.Mutex
	cache map[string][]byte // request key at the current generation → expected body
}

func serverConfig(w workload, seed uint64, idx *usimrank.Index) server.Config {
	return server.Config{
		Engine: usimrank.Options{C: 0.6, Steps: 5, N: 1000, L: 1, Seed: engineSeed(seed), Parallelism: workers, RowCacheSize: w.rowCache},
		Index:  idx,
		Logger: log.New(io.Discard, "", 0),
		// The reference is not under test: no deadline may fail it.
		QueryTimeout: time.Hour,
	}
}

func newReference(w workload, g *ugraph.Graph, e *env) (*reference, error) {
	var idx *usimrank.Index
	if w.index {
		var err error
		if idx, err = usimrank.LoadIndexFile(e.indexPath); err != nil {
			return nil, err
		}
	}
	srv, err := server.New(g, e.graphPath, serverConfig(w, e.seed, idx))
	if err != nil {
		return nil, err
	}
	return &reference{srv: srv, idx: idx, gen: 1, cache: map[string][]byte{}}, nil
}

func (r *reference) close() {
	r.srv.Close()
	if r.idx != nil {
		r.idx.Close()
	}
}

func serve(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec
}

// expect returns the reference body for a request at the current generation.
func (r *reference) expect(method, target string, body []byte) ([]byte, error) {
	key := method + " " + target + " " + string(body)
	r.mu.Lock()
	b, ok := r.cache[key]
	r.mu.Unlock()
	if ok {
		return b, nil
	}
	rec := serve(r.srv, method, target, body)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("reference %s %s: status %d: %s", method, target, rec.Code, rec.Body.Bytes())
	}
	b = normalize(rec.Body.Bytes()) // the checks run two at a time, so the reference coalesces too
	r.mu.Lock()
	r.cache[key] = b
	r.mu.Unlock()
	return b, nil
}

// apply moves the reference to the next generation.
func (r *reference) apply(o op) error {
	rec := serve(r.srv, http.MethodPost, o.path, o.body)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("reference update: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	r.gen++
	r.mu.Lock()
	clear(r.cache)
	r.mu.Unlock()
	return nil
}

// coalescedField is the coalescing flag: whether a response was shared
// with a concurrent identical request is the only field the contract
// lets differ between two correct answers.
var coalescedField = regexp.MustCompile(`,\s*"coalesced":\s*true`)

func normalize(b []byte) []byte { return coalescedField.ReplaceAll(b, nil) }

// check is one answer to compare: a read at its generation, or a
// subscription push.
type check struct {
	gen    uint64
	method string
	path   string
	body   []byte
	got    []byte
}

// verify replays the writes on the reference in generation order and
// compares every check at its generation; it reports how many differ.
// writes are the acked update samples with the ops that produced them.
func verify(ref *reference, checks []check, writes []op, acks []sample) (int, error) {
	order := make([]int, 0, len(acks))
	for i, s := range acks {
		if s.ok() {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return acks[order[a]].gen < acks[order[b]].gen })
	sort.SliceStable(checks, func(a, b int) bool { return checks[a].gen < checks[b].gen })
	wrong := 0
	ci := 0
	for _, wi := range append(order, -1) {
		var batch []check
		for ci < len(checks) && checks[ci].gen <= ref.gen {
			if checks[ci].gen == ref.gen {
				batch = append(batch, checks[ci])
			} else {
				wrong++ // a generation the writes never produced
			}
			ci++
		}
		n, err := verifyAt(ref, batch)
		if err != nil {
			return wrong, err
		}
		wrong += n
		if wi < 0 {
			break
		}
		if acks[wi].gen != ref.gen+1 {
			return wrong, fmt.Errorf("write acked generation %d, reference is at %d", acks[wi].gen, ref.gen)
		}
		if err := ref.apply(writes[acks[wi].op]); err != nil {
			return wrong, err
		}
	}
	wrong += len(checks) - ci
	return wrong, nil
}

// verifyAt checks a batch at the reference's current generation on two
// goroutines.
func verifyAt(ref *reference, batch []check) (int, error) {
	var wrong, next int
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(batch) {
					return
				}
				c := batch[i]
				want, err := ref.expect(c.method, c.path, c.body)
				mu.Lock()
				switch {
				case err != nil:
					if firstErr == nil {
						firstErr = err
					}
				case !bytes.Equal(normalize(c.got), want):
					if wrong == 0 {
						fmt.Fprintf(os.Stderr, "perfbench: wrong answer at generation %d to %s %s\n  got:  %s\n  want: %s\n", c.gen, c.path, c.body, c.got, want)
					}
					wrong++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return wrong, firstErr
}
