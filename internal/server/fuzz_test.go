package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"usimrank"
	"usimrank/internal/gen"
	"usimrank/internal/rng"
)

// FuzzQueryBody sends arbitrary bytes to the four POST query endpoints
// of a node serving a tiny graph. The strict decoder and the
// validators must never panic; every answer is a 200 or a 400, and
// every 400 carries the JSON error envelope. The one exception is a
// 504 for a request that lowered its own deadline with timeout_ms: it
// asked for that outcome. The valid seed bodies keep answering 200.
func FuzzQueryBody(f *testing.F) {
	paths := []string{"/v1/score", "/v1/source", "/v1/topk", "/v1/batch"}
	seeds := []string{
		`{"alg":"baseline","u":0,"v":1}`,
		`{"alg":"srsp","u":2,"candidates":[0,1,5]}`,
		`{"alg":"sampling","u":1,"k":3}`,
		`{"alg":"baseline","pairs":[[0,1],[2,3],[1,7]]}`,
	}
	g := gen.WithUniformProbs(gen.RMAT(3, 24, 0.45, 0.22, 0.22, rng.New(3)), 0.2, 0.9, rng.New(4))
	s, err := New(g, "test://rmat3", Config{Engine: usimrank.Options{N: 64, Seed: 7, Parallelism: 1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		return rec
	}
	for i, body := range seeds {
		if rec := post(paths[i], []byte(body)); rec.Code != 200 {
			f.Fatalf("seed %s %s: status %d: %s", paths[i], body, rec.Code, rec.Body)
		}
		f.Add(uint8(i), []byte(body))
	}

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := paths[int(route)%len(paths)]
		rec := post(path, body)
		switch rec.Code {
		case 200:
			return
		case 400:
			dec := json.NewDecoder(rec.Body)
			dec.DisallowUnknownFields()
			var e ErrorResponse
			if err := dec.Decode(&e); err != nil || e.Error.Code != CodeBadRequest || e.Error.Message == "" {
				t.Fatalf("%s %q: 400 without the error envelope (%v): %s", path, body, err, rec.Body)
			}
		case 504:
			var req struct {
				TimeoutMs int `json:"timeout_ms"`
			}
			if json.Unmarshal(body, &req) != nil || req.TimeoutMs <= 0 {
				t.Fatalf("%s %q: 504 without a request deadline: %s", path, body, rec.Body)
			}
		default:
			t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
	})
}
