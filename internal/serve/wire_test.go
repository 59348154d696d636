package serve

import (
	"bytes"
	"encoding/binary"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	apknn "repro"
	"repro/internal/knn"
)

// TestPackedRequestRoundTrip: what appendPackedRequest writes,
// parsePackedRequest reads back bit for bit, at word-aligned and ragged
// dimensionalities, and the vectors it returns do not alias the buffer.
func TestPackedRequestRoundTrip(t *testing.T) {
	for _, dim := range []int{1, 32, 63, 64, 65, 192, 1000} {
		queries := apknn.RandomQueries(uint64(dim), 3, dim)
		buf, err := appendPackedRequest(nil, 7, 1500*time.Millisecond, queries)
		if err != nil {
			t.Fatal(err)
		}
		k, timeout, got, err := parsePackedRequest(buf)
		if err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		if k != 7 || timeout != 1500*time.Millisecond || len(got) != len(queries) {
			t.Fatalf("dim %d: k=%d timeout=%v, %d queries", dim, k, timeout, len(got))
		}
		for i := range buf {
			buf[i] = 0xff // the pooled buffer moves on to its next request
		}
		for i, q := range queries {
			if !got[i].Equal(q) || got[i].Dim() != dim {
				t.Errorf("dim %d query %d: %s, want %s", dim, i, got[i], q)
			}
		}
	}
	if _, err := appendPackedRequest(nil, 1, 0, []apknn.Vector{
		apknn.RandomQueries(1, 1, 32)[0], apknn.RandomQueries(1, 1, 64)[0],
	}); err == nil {
		t.Error("a batch of two dimensionalities was packed")
	}
	// A negative k and a negative timeout survive the trip, so the one
	// validation refuses the first and ignores the second as it does for JSON.
	buf, _ := appendPackedRequest(nil, -4, -time.Second, apknn.RandomQueries(2, 1, 8))
	if k, timeout, _, err := parsePackedRequest(buf); err != nil || k != -4 || timeout != -time.Second {
		t.Errorf("k=%d timeout=%v err=%v, want -4 and -1s", k, timeout, err)
	}
}

// TestPackedRequestRejects: every way a packed request can disagree with
// its own header is an error, found before anything is allocated from the
// header's claims (the 2³¹-query body is 32 bytes long).
func TestPackedRequestRejects(t *testing.T) {
	whole, _ := appendPackedRequest(nil, 3, 0, apknn.RandomQueries(3, 2, 40))
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), whole...)) }
	for name, c := range map[string]struct {
		body []byte
		want string
	}{
		"empty":        {nil, "shorter than the 24-byte header"},
		"short header": {whole[:23], "shorter than the 24-byte header"},
		"wrong magic":  {edit(func(b []byte) []byte { b[2] = 'R'; return b }), "not a packed search request"},
		"version 0":    {edit(func(b []byte) []byte { b[3] = 0; return b }), "unknown version 0"},
		"version 2":    {edit(func(b []byte) []byte { b[3] = 2; return b }), "unknown version 2"},
		"cut off":      {whole[:len(whole)-1], "body carries 15"},
		"trailing":     {edit(func(b []byte) []byte { return append(b, 0) }), "body carries 17"},
		"count past the body": {edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 1<<31)
			return b
		}), "header declares 2147483648 queries"},
		"dim past the body": {edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 1<<31)
			return b
		}), "of 2147483648 bits"},
		"zero dim": {edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 0)
			return b[:packedRequestHeader]
		}), "queries of zero bits"},
		"bits past dim": {edit(func(b []byte) []byte { b[len(b)-1] = 0x80; return b }), "query 1 has bits set past its 40 dimensions"},
	} {
		_, _, vectors, err := parsePackedRequest(c.body)
		if err == nil || !strings.Contains(err.Error(), c.want) || vectors != nil {
			t.Errorf("%s: err = %v (%d vectors), want one containing %q", name, err, len(vectors), c.want)
		}
	}
}

// TestPackedReplyRoundTrip: a packed answer decodes to the result sets it
// was written from, ragged and empty ones included.
func TestPackedReplyRoundTrip(t *testing.T) {
	results := [][]knn.Neighbor{
		{{ID: 0, Dist: 0}, {ID: 1 << 40, Dist: 3}, {ID: 7, Dist: 3}},
		{},
		{{ID: 5, Dist: 64}},
	}
	buf := appendPackedReply(nil, 4, results)
	flush, engine, err := parsePackedReply(buf)
	if err != nil || flush != 4 || !reflect.DeepEqual(engine, results) {
		t.Fatalf("flush %d, %v, err %v", flush, engine, err)
	}
	// Result sets share one backing array but not their capacity: appending
	// to one must not write into the next.
	_ = append(engine[0], knn.Neighbor{ID: -1})
	if engine[2][0].ID != 5 {
		t.Error("appending to a result set overwrote its neighbour")
	}
}

// TestWritePackedContentLength: every packed answer carries its own length,
// also when sizes that share a cache slot (28 and 284 bytes) take turns.
func TestWritePackedContentLength(t *testing.T) {
	small := [][]knn.Neighbor{{{ID: 1, Dist: 2}}}
	large := [][]knn.Neighbor{make([]knn.Neighbor, 11), make([]knn.Neighbor, 11)}
	for i, results := range [][][]knn.Neighbor{small, small, large, large, small} {
		rec := httptest.NewRecorder()
		writePacked(rec, 1, results)
		got := rec.Result().Header["Content-Length"]
		if want := strconv.Itoa(rec.Body.Len()); len(got) != 1 || got[0] != want {
			t.Fatalf("answer %d: Content-Length %q, want [%s]", i, got, want)
		}
	}
}

func TestPackedReplyRejects(t *testing.T) {
	whole := appendPackedReply(nil, 1, [][]knn.Neighbor{{{ID: 1, Dist: 2}}, {{ID: 3, Dist: 4}}})
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), whole...)) }
	for name, c := range map[string]struct {
		body []byte
		want string
	}{
		"short header": {whole[:11], "shorter than the 12-byte header"},
		"wrong magic":  {edit(func(b []byte) []byte { b[2] = 'Q'; return b }), "not a packed search reply"},
		"version":      {edit(func(b []byte) []byte { b[3] = 9; return b }), "unknown version 9"},
		"sets past the body": {edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 1<<30)
			return b
		}), "header declares 1073741824 result sets"},
		"neighbors past the body": {edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[12:], 1<<30)
			return b
		}), "result set 0 declares 1073741824 neighbors"},
		"cut off":  {whole[:len(whole)-2], "result set 1 declares 1 neighbors, 10 bytes remain"},
		"trailing": {edit(func(b []byte) []byte { return append(b, 1, 2) }), "2 bytes after the last result set"},
		"id overflow": {edit(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 1<<63)
			return b
		}), "overflows int"},
	} {
		if _, results, err := parsePackedReply(c.body); err == nil || !strings.Contains(err.Error(), c.want) || results != nil {
			t.Errorf("%s: err = %v, want one containing %q", name, err, c.want)
		}
	}
}

// TestIsPacked: only the packed media type, with or without parameters,
// selects the packed codec; everything else — curl's form type included —
// stays JSON.
func TestIsPacked(t *testing.T) {
	for ct, want := range map[string]bool{
		PackedMediaType:                     true,
		PackedMediaType + "; charset=x":     true,
		PackedMediaType + ";v=1":            true,
		PackedMediaType + "x":               false,
		"":                                  false,
		"application/json":                  false,
		"application/x-www-form-urlencoded": false,
		"application/octet-stream":          false,
	} {
		if got := isPacked(ct); got != want {
			t.Errorf("isPacked(%q) = %v, want %v", ct, got, want)
		}
	}
}

// TestHeatKeyRoundTrip: the tracker's key is the packed words, and the
// analytics handler gets the canonical bit string back out of it.
func TestHeatKeyRoundTrip(t *testing.T) {
	for _, dim := range []int{1, 16, 64, 65, 192, 1000} {
		v := apknn.RandomQueries(uint64(dim)+9, 1, dim)[0]
		key := heatKey(v)
		if len(key) != 4+8*len(v.Words()) {
			t.Errorf("dim %d: key is %d bytes", dim, len(key))
		}
		if got := heatKeyBits(key); got != v.String() {
			t.Errorf("dim %d: key reads back as %q, want %q", dim, got, v.String())
		}
	}
	// Same words, different dimensionality: two keys.
	a, b := apknn.RandomQueries(1, 1, 60)[0], apknn.RandomQueries(1, 1, 64)[0]
	for i := 60; i < 64; i++ {
		b.Set(i, false)
	}
	for i := 0; i < 60; i++ {
		b.Set(i, a.Bit(i))
	}
	if !bytes.Equal([]byte(heatKey(a))[4:], []byte(heatKey(b))[4:]) || heatKey(a) == heatKey(b) {
		t.Error("keys of equal words at 60 and 64 bits must differ in the dimensionality prefix only")
	}
}
