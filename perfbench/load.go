package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"usimrank/internal/server"
)

// sample is the outcome of one request.
type sample struct {
	op     int           // index into the stream it came from
	due    time.Duration // when it was released: due time, or later if the generator woke late
	start  time.Duration // when a connection took it
	end    time.Duration
	status int
	gen    uint64 // Usimrank-Generation of a read, or the acked generation of a write
	body   []byte
	err    error
}

func (s sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// latency is measured from release, so a stall also charges the
// requests queued behind it. Release is the due time unless the
// generator itself woke late: Go's timers sleep in whole milliseconds
// of epoll wait, about one hot-score service time, and that lag is the
// generator's, not the system's.
func (s sample) latency() time.Duration { return s.end - s.due }

func newClient(maxConns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
	}
}

// send posts one op and reads the whole response.
func send(c *http.Client, base string, o op) (status int, gen uint64, body []byte, err error) {
	resp, err := c.Post(base+o.path, "application/json", bytes.NewReader(o.body))
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, 0, nil, err
	}
	if o.isWrite() {
		var ack server.UpdateResponse
		if resp.StatusCode == http.StatusOK {
			err = json.Unmarshal(body, &ack)
		}
		return resp.StatusCode, ack.Generation, body, err
	}
	gen, _ = strconv.ParseUint(resp.Header.Get(server.GenerationHeader), 10, 64)
	return resp.StatusCode, gen, body, nil
}

func do(c *http.Client, base string, o op, i int, t0 time.Time, due time.Duration) sample {
	s := sample{op: i, due: due, start: time.Since(t0)}
	s.status, s.gen, s.body, s.err = send(c, base, o)
	s.end = time.Since(t0)
	return s
}

// closedLoop runs conns clients that each send their next read as soon
// as the previous one returns, until the window closes.
func closedLoop(base string, ops []op, window time.Duration) ([]sample, error) {
	c := newClient(conns)
	defer c.CloseIdleConnections()
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	var short atomic.Bool
	t0 := time.Now()
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < window {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					short.Store(true)
					return
				}
				now := time.Since(t0)
				s := do(c, base, ops[i], i, t0, now)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if short.Load() {
		return nil, fmt.Errorf("read stream of %d ops ran out inside the window", len(ops))
	}
	return out, nil
}

// openLoop sends each op at its due time (o.due seconds after t0) over
// at most maxConns connections; ops due after the window are not sent.
// It returns the samples and how late the generator itself dispatched
// each op, in ms.
func openLoop(base string, ops []op, window time.Duration, maxConns int, t0 time.Time) ([]sample, []float64) {
	c := newClient(maxConns)
	defer c.CloseIdleConnections()
	queue := make(chan int, len(ops)) // sized to every send, so dispatch never blocks
	var late []float64
	released := make([]time.Duration, len(ops))
	go func() {
		defer close(queue)
		for i, o := range ops {
			due := time.Duration(o.due * float64(time.Second))
			if due > window {
				return
			}
			if d := due - time.Since(t0); d > 0 {
				time.Sleep(d)
			}
			released[i] = time.Since(t0)
			late = append(late, float64(released[i]-due)/1e6)
			queue <- i
		}
	}()
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for range maxConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := do(c, base, ops[i], i, t0, released[i])
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait() // the dispatcher closed the queue, so late is complete
	return out, late
}

// event is one SSE event of the subscription stream.
type event struct {
	kind string
	gen  uint64
	at   time.Duration
	data []byte
}

// subscription follows one /v1/subscribe score stream.
type subscription struct {
	resp   *http.Response
	cancel context.CancelFunc
	t0     time.Time
	mu     sync.Mutex
	events []event
	notify chan struct{} // closed and replaced on every event
	done   chan struct{}
}

func subscribe(base string, u, v int, t0 time.Time) (*subscription, error) {
	ctx, cancel := context.WithCancel(context.Background())
	q := url.Values{"shape": {"score"}, "alg": {"sampling_v2"}, "u": {strconv.Itoa(u)}, "v": {strconv.Itoa(v)}, "staleness_ms": {"0"}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/subscribe?"+q.Encode(), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	c := newClient(1)
	c.Timeout = 0 // a stream outlives any per-request deadline; close cancels it
	resp, err := c.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	s := &subscription{resp: resp, cancel: cancel, t0: t0, notify: make(chan struct{}), done: make(chan struct{})}
	go s.read()
	return s, nil
}

func (s *subscription) read() {
	defer close(s.done)
	br := bufio.NewReader(s.resp.Body)
	var ev event
	var data bytes.Buffer
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return // the stream ended; close or a missing push reports it
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if ev.kind != "" {
				ev.data = append([]byte(nil), bytes.TrimSuffix(data.Bytes(), []byte("\n"))...)
				ev.at = time.Since(s.t0)
				s.mu.Lock()
				s.events = append(s.events, ev)
				close(s.notify)
				s.notify = make(chan struct{})
				s.mu.Unlock()
			}
			ev, data = event{}, bytes.Buffer{}
		case strings.HasPrefix(line, "event: "):
			ev.kind = line[len("event: "):]
		case strings.HasPrefix(line, "id: "):
			ev.gen, _ = strconv.ParseUint(line[len("id: "):], 10, 64)
		case strings.HasPrefix(line, "data: "):
			data.WriteString(line[len("data: "):])
			data.WriteByte('\n')
		}
	}
}

// waitGen blocks until an event at generation ≥ gen arrives.
func (s *subscription) waitGen(gen uint64, timeout time.Duration) bool {
	deadline := time.After(timeout)
	for {
		s.mu.Lock()
		for _, ev := range s.events {
			if ev.gen >= gen && ev.kind == "update" {
				s.mu.Unlock()
				return true
			}
		}
		ch := s.notify
		s.mu.Unlock()
		select {
		case <-ch:
		case <-deadline:
			return false
		}
	}
}

// close ends the stream and waits for its reader.
func (s *subscription) close() []event {
	s.cancel()
	s.resp.Body.Close()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}

// pushLags pairs every acked write with the first update event at or
// past its generation: lag is that event's arrival minus the write's
// send. The server wakes subscribers before it writes the ack, so on a
// loaded box the event often arrives before the ack (read-write: median
// -0.13 ms after the ack) and a lag timed from the ack straddles zero.
// A write whose push never arrived gets no lag and counts as failed.
func pushLags(writes []sample, events []event) (lags []float64, missing int) {
	for _, w := range writes {
		if !w.ok() {
			continue
		}
		found := false
		for _, ev := range events {
			if ev.kind == "update" && ev.gen >= w.gen {
				lags = append(lags, float64(ev.at-w.start)/1e6)
				found = true
				break
			}
		}
		if !found {
			missing++
		}
	}
	return lags, missing
}

// writeProbe sends updates one at a time, each after the previous
// update's push has arrived, so every push is timed on its own.
func writeProbe(base string, writes []op, sub *subscription, t0 time.Time) []sample {
	c := newClient(1)
	defer c.CloseIdleConnections()
	out := make([]sample, 0, len(writes))
	for i, o := range writes {
		s := do(c, base, o, i, t0, time.Since(t0))
		out = append(out, s)
		if !s.ok() {
			fmt.Fprintf(os.Stderr, "perfbench: update %d failed: status %d err %v: %s\n", i, s.status, s.err, s.body)
			break
		}
		if !sub.waitGen(s.gen, 10*time.Second) {
			fmt.Fprintf(os.Stderr, "perfbench: no push for generation %d within 10s\n", s.gen)
			break
		}
	}
	return out
}
