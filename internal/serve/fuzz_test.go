package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	apknn "repro"
)

// fuzzServer is built once per fuzz worker process: a small exact index
// behind the real handler chain, coalescing disabled so every request
// flushes synchronously.
var (
	fuzzOnce    sync.Once
	fuzzHandler http.Handler
)

const fuzzDim = 16

func fuzzSetup() {
	ds := apknn.RandomDataset(5, 256, fuzzDim)
	idx, err := apknn.Open(ds, apknn.WithBackend(apknn.Fast))
	if err != nil {
		panic(err)
	}
	srv := New(idx, Config{Dim: fuzzDim, MaxInFlight: 64})
	fuzzHandler = srv.Handler()
}

// FuzzSearchRequestJSON throws arbitrary bodies at POST /v1/search: the
// wire boundary must answer every malformed vector, absurd k, or broken
// JSON with a clean 4xx — never a panic, never a 5xx, never an unparseable
// response — and every 200 must carry a well-formed, (Dist, ID)-sorted
// result over real dataset IDs.
func FuzzSearchRequestJSON(f *testing.F) {
	f.Add([]byte(`{"query":"1010101010101010","k":3}`))
	f.Add([]byte(`{"query":"1010101010101010"}`))
	f.Add([]byte(`{"query":"1010101010101010","k":-1}`))
	f.Add([]byte(`{"query":"1010101010101010","k":9223372036854775807}`))
	f.Add([]byte(`{"query":"101","k":3}`))
	f.Add([]byte(`{"query":"10x0101010101010","k":3}`))
	f.Add([]byte(`{"query":"","k":3}`))
	f.Add([]byte(`{"query":1010}`))
	f.Add([]byte(`{"k":3}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`{"query":"1010101010101010","k":3,"timeout_ms":1}`))
	f.Add([]byte(`{"query":"1010101010101010","timeout_ms":-5}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzSearch(t, "application/json", body, func(raw []byte) (int, []Neighbor, error) {
			var resp SearchResponse
			err := json.Unmarshal(raw, &resp)
			return resp.FlushSize, resp.Neighbors, err
		})
	})
}

// FuzzSearchRequestPacked is the same contract for the packed codec: a body
// whose header lies about its length, claims four billion queries, sets bits
// past its dimensionality or stops mid-word gets a clean 400 in the JSON
// envelope, and every 200 is a packed reply over real IDs in (Dist, ID)
// order.
func FuzzSearchRequestPacked(f *testing.F) {
	q := apknn.RandomQueries(6, 1, fuzzDim)
	add := func(k int, timeout time.Duration, edit func([]byte) []byte) {
		b, err := appendPackedRequest(nil, k, timeout, q)
		if err != nil {
			f.Fatal(err)
		}
		if edit != nil {
			b = edit(b)
		}
		f.Add(b)
	}
	add(3, 0, nil)
	add(0, 0, nil)
	add(-1, 0, nil)
	add(1<<62, 0, nil)
	add(3, time.Millisecond, nil)
	add(3, -5*time.Millisecond, nil)
	add(3, 0, func(b []byte) []byte { return b[:len(b)-1] })
	add(3, 0, func(b []byte) []byte { return append(b, b[packedRequestHeader:]...) })
	add(3, 0, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:], 1<<32-1); return b })
	add(3, 0, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 1<<32-1); return b })
	add(3, 0, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 8); return b })
	add(3, 0, func(b []byte) []byte { b[3] = 2; return b })
	add(3, 0, func(b []byte) []byte { return b[:packedRequestHeader] })
	f.Add([]byte(`{"query":"1010101010101010","k":3}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzSearch(t, PackedMediaType, body, func(raw []byte) (int, []Neighbor, error) {
			flush, results, err := parsePackedReply(raw)
			if err == nil && len(results) != 1 {
				t.Fatalf("200 with %d result sets for one query", len(results))
			}
			if err != nil {
				return 0, nil, err
			}
			return flush, results[0], nil
		})
	})
}

// fuzzSearch posts one fuzzed body to /v1/search under contentType and holds
// the answer to the wire boundary's contract; decode reads a 200 in the
// codec the request used.
func fuzzSearch(t *testing.T, contentType string, body []byte, decode func([]byte) (int, []Neighbor, error)) {
	fuzzOnce.Do(fuzzSetup)
	req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	fuzzHandler.ServeHTTP(rec, req)
	switch rec.Code {
	case http.StatusOK:
		if got := rec.Header().Get("Content-Type"); got != contentType {
			t.Fatalf("200 answered as %q to a %q request", got, contentType)
		}
		flushSize, neighbors, err := decode(rec.Body.Bytes())
		if err != nil {
			t.Fatalf("200 with undecodable body %q: %v", rec.Body.Bytes(), err)
		}
		if flushSize < 1 {
			t.Fatalf("200 with flush size %d", flushSize)
		}
		for i, n := range neighbors {
			if n.ID < 0 || n.ID >= 256 || n.Dist < 0 || n.Dist > fuzzDim {
				t.Fatalf("neighbor %d out of range: %+v", i, n)
			}
			if i > 0 {
				prev := neighbors[i-1]
				if n.Dist < prev.Dist || (n.Dist == prev.Dist && n.ID <= prev.ID) {
					t.Fatalf("neighbors not (Dist, ID)-sorted at %d: %+v after %+v", i, n, prev)
				}
			}
		}
	case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusGatewayTimeout:
		var eresp errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &eresp); err != nil || eresp.Error == "" {
			t.Fatalf("status %d with undecodable error body %q", rec.Code, rec.Body.Bytes())
		}
	default:
		t.Fatalf("status %d (body %q) for input %q", rec.Code, rec.Body.Bytes(), body)
	}
}
