package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repose"
)

// FuzzGatewayRequest feeds arbitrary bodies to /search and /radius of a
// gateway over a small local index. Whatever the bytes, the handlers
// must not panic, must answer 200, 400, 413, 429 or 503, and a 200 must
// be a well-formed answer: at most k results for /search (k as the
// request states it, or the default), at most the index's size for
// /radius.
//
//	go test ./internal/serve -run=NONE -fuzz=FuzzGatewayRequest -fuzztime=20s
func FuzzGatewayRequest(f *testing.F) {
	ds := stressData(40)
	idx, err := repose.Build(ds, repose.Options{Partitions: 2})
	if err != nil {
		f.Fatal(err)
	}
	gw := New(idx, Config{MaxConcurrent: 2, CacheEntries: 16})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		gw.Shutdown(ctx)
		idx.Close()
	})
	h := gw.Handler()

	for _, seed := range []string{
		`{"points":[[1,2],[3,4]],"k":3}`,
		`{"points":[[1,2]]}`,
		`{"points":[[1,2],[2,2],[3,1]],"k":2,"sub":true,"min_seg":2,"max_seg":5}`,
		`{"points":[[1,2]],"k":4,"window":{"from":10,"to":5}}`,
		`{"points":[[1,2],[3,4]],"radius":1.5}`,
		`{"points":[[0,0]],"radius":0,"window":{"from":-1,"to":9}}`,
		`{"points":[[1e308,-1e308],[-1e308,1e308]],"k":1000,"radius":1e308}`,
		`{"points":[],"k":3}`,
		`{"points":[[1,2]],"k":-1,"radius":-1}`,
		`{"points":[[1,2,3]],"k":"3"}`,
		`{"points":[[1e400,0]]}`,
		`{"points":null,"sub":true,"min_seg":-5,"max_seg":-9}`,
		`[[1,2]]`,
		`{"points":`,
		``,
	} {
		f.Add(false, []byte(seed))
		f.Add(true, []byte(seed))
	}

	f.Fuzz(func(t *testing.T, radius bool, body []byte) {
		path := "/search"
		if radius {
			path = "/radius"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return
		default:
			t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body.Bytes())
		}
		var ans answerJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
			t.Fatalf("%s %q: 200 with an undecodable answer %q: %v", path, body, rec.Body.Bytes(), err)
		}
		limit := len(ds)
		if !radius {
			// The handler accepted the body, so it decodes here too.
			var req searchRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("%s %q: answered 200, but the body does not decode: %v", path, body, err)
			}
			limit = req.K
			if limit == 0 {
				limit = gw.cfg.DefaultK
			}
		}
		if len(ans.Results) > limit {
			t.Fatalf("%s %q: %d results, at most %d allowed", path, body, len(ans.Results), limit)
		}
	})
}
