package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/knn"
	"repro/internal/obs"
)

// ErrSaturated reports a request refused by the server's admission control
// (HTTP 429). Match with errors.Is; the wrapping APIError carries the
// suggested Retry-After delay.
var ErrSaturated = errors.New("serve: server saturated")

// APIError is a non-2xx answer from an apserve instance.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error string.
	Message string
	// RetryAfter is the server's suggested backoff on 429, zero otherwise.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve: HTTP %d: %s", e.Status, e.Message)
}

// Unwrap lets errors.Is(err, ErrSaturated) match a 429.
func (e *APIError) Unwrap() error {
	if e.Status == http.StatusTooManyRequests {
		return ErrSaturated
	}
	return nil
}

// Client talks to an apserve instance. The zero value is not usable; set
// BaseURL ("http://host:port", no trailing slash needed). Methods are safe
// for concurrent use — the load generator drives one Client from many
// goroutines.
type Client struct {
	// BaseURL locates the server, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides http.DefaultClient when non-nil. It is unused
	// when Stream is set.
	HTTPClient *http.Client
	// Stream, when non-nil, carries every request as one frame on its
	// streams instead of HTTP: the Client writes and reads the frames
	// itself, building no http.Request or http.Response.
	Stream *StreamTransport

	// base is BaseURL parsed, kept while BaseURL stays what it was parsed
	// from: every request's URL is a copy of it, not a parse of its own.
	base atomic.Pointer[baseURL]
}

type baseURL struct {
	raw  string
	url  url.URL
	host string // the host:port a stream dials
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Search asks for the k nearest neighbors of one query through the
// server's micro-batcher, returning the hits and the realized flush size
// the query was coalesced into. The query travels packed (see wire.go).
func (c *Client) Search(ctx context.Context, q bitvec.Vector, k int) (*SearchResponse, error) {
	flush, results, err := searchPacked[Neighbor](ctx, c, "/v1/search", []bitvec.Vector{q}, k)
	if err != nil {
		return nil, err
	}
	if len(results) != 1 {
		return nil, fmt.Errorf("serve: decode response: %d result sets for one query", len(results))
	}
	return &SearchResponse{Neighbors: results[0], FlushSize: flush}, nil
}

// SearchBatch sends a client-formed batch, answered in one backend call.
// The queries travel packed and must share one dimensionality.
func (c *Client) SearchBatch(ctx context.Context, queries []bitvec.Vector, k int) ([][]knn.Neighbor, error) {
	_, results, err := searchPacked[knn.Neighbor](ctx, c, "/v1/search_batch", queries, k)
	return results, err
}

// searchPacked posts queries to a search endpoint in the packed codec and
// decodes the packed answer, which is read into a pooled buffer.
func searchPacked[N Neighbor | knn.Neighbor](ctx context.Context, c *Client, path string,
	queries []bitvec.Vector, k int) (flushSize int, results [][]N, err error) {
	words := 0
	if len(queries) > 0 {
		words = len(queries) * len(queries[0].Words())
	}
	body, err := appendPackedRequest(make([]byte, 0, packedRequestHeader+8*words), k, 0, queries)
	if err != nil {
		return 0, nil, err
	}
	in := getBuf()
	defer putBuf(in)
	reply, err := c.call(ctx, http.MethodPost, path, PackedMediaType, body, in)
	if err != nil {
		return 0, nil, err
	}
	if flushSize, results, err = parsePackedReply[N](reply); err != nil {
		return 0, nil, fmt.Errorf("serve: decode response: %w", err)
	}
	return flushSize, results, nil
}

// Insert adds one vector to a live apserve instance and returns the global
// ID it was assigned. A server not started with -live answers 501.
func (c *Client) Insert(ctx context.Context, v bitvec.Vector) (int, error) {
	var out InsertResponse
	if err := c.do(ctx, http.MethodPost, "/v1/insert", InsertRequest{Vector: v.String()}, &out); err != nil {
		return 0, err
	}
	return out.ID, nil
}

// Delete tombstones the vector with the given global ID on a live apserve
// instance. An unknown or already-deleted ID is an *APIError with Status
// 404.
func (c *Client) Delete(ctx context.Context, id int) error {
	var out DeleteResponse
	return c.do(ctx, http.MethodPost, "/v1/delete", DeleteRequest{ID: id}, &out)
}

// Stats fetches the live backend and serving-layer counters.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var out StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Analytics fetches the node's query-heat block: top queries by frequency
// and per-shard load counters.
func (c *Client) Analytics(ctx context.Context) (*AnalyticsResponse, error) {
	var out AnalyticsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/analytics", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DebugTraces fetches the node's flight recorder. query selects the view
// (class=, n=, trace_id= — see DebugTracesResponse); nil lists the recent
// ring. The router's stitcher uses the trace_id form against shards.
func (c *Client) DebugTraces(ctx context.Context, query url.Values) (*DebugTracesResponse, error) {
	path := "/v1/debug/traces"
	if len(query) > 0 {
		path += "?" + query.Encode()
	}
	var out DebugTracesResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	var out HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Do issues one JSON request against the server and decodes the JSON
// answer into out. It is the raw building block under the typed methods,
// exported for callers that speak the wire types directly. Non-2xx answers
// return an *APIError with any Retry-After suggestion parsed (both the
// delay-seconds and HTTP-date forms RFC 9110 allows).
func (c *Client) Do(ctx context.Context, method, path string, body, out interface{}) error {
	return c.do(ctx, method, path, body, out)
}

// RetryPolicy bounds Do's retry loop on saturation answers.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first included (default 3).
	MaxAttempts int
	// BaseDelay is the first backoff used when the server suggests no
	// Retry-After; it doubles per retry (default 5ms).
	BaseDelay time.Duration
	// MaxDelay clamps both the backoff and the server's Retry-After
	// suggestion (default 1s).
	MaxDelay time.Duration
	// OnRetry, when non-nil, observes every scheduled retry before its wait
	// — the cluster router counts these into ClusterStats.
	OnRetry func(attempt int, err error, wait time.Duration)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 5 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// retriable reports whether status is worth re-asking the same server:
// admission-control saturation (429) and shutdown-window refusals (503).
// Everything else — caller mistakes, genuine server faults — returns to the
// caller unchanged.
func (p RetryPolicy) retriable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// Do runs call with bounded retry/backoff on saturation: a 429 or 503
// answer (an *APIError from any Client method) is retried after the server's
// Retry-After suggestion, falling back to exponential backoff from
// BaseDelay, until MaxAttempts is exhausted or ctx ends. The last error is
// returned verbatim, so errors.Is(err, ErrSaturated) still matches a server
// that stayed saturated throughout. The router's scatter legs run
// Client.Search and Client.SearchBatch under it.
func (p RetryPolicy) Do(ctx context.Context, call func() error) error {
	p = p.withDefaults()
	backoff := p.BaseDelay
	for attempt := 1; ; attempt++ {
		err := call()
		var apiErr *APIError
		if err == nil || !errors.As(err, &apiErr) || !p.retriable(apiErr.Status) || attempt >= p.MaxAttempts {
			return err
		}
		wait := apiErr.RetryAfter
		if wait <= 0 {
			wait = backoff
			backoff *= 2
		}
		if wait > p.MaxDelay {
			wait = p.MaxDelay
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err, wait)
		}
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return fmt.Errorf("serve: retry wait: %w", ctx.Err())
		}
	}
}

// parseRetryAfter interprets a Retry-After header value in either form RFC
// 9110 allows — delay-seconds or an HTTP-date — relative to now. Absent,
// malformed, or already-elapsed values come back as zero.
func parseRetryAfter(h string, now time.Time) time.Duration {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// exchange sends one request — method, BaseURL with path (which may end in a
// query) appended, body as contentType unless contentType is empty — carrying
// the identity and span parentage its context holds, and reads the answer
// into in. It returns the answer's status, Retry-After and body; the body
// aliases in, or memory of its own. Over Stream the request is one frame
// written from these arguments and the answer one frame read into in;
// otherwise it is an http.Request through the http.Client.
func (c *Client) exchange(ctx context.Context, method, path, contentType string, body []byte,
	in *bytes.Buffer) (status int, retryAfter string, reply []byte, err error) {
	base, err := c.baseURL()
	if err != nil {
		return 0, "", nil, err
	}
	u := base.url
	path, u.RawQuery, _ = strings.Cut(path, "?")
	u.Path += path
	var kv [6]string
	pairs := kv[:0]
	if contentType != "" {
		pairs = append(pairs, "Content-Type", contentType)
	}
	// A request ID attached to the context travels upstream — this is how
	// aprouter's scatter legs carry the caller's ID to every shard.
	if id := obs.RequestID(ctx); id != "" {
		pairs = append(pairs, obs.RequestIDHeader, id)
	}
	// Span parentage travels the same way: the router attaches one trace
	// context per scatter attempt, so the shard's tree records which leg
	// span it hangs under.
	if tid, sid, ok := obs.TraceContext(ctx); ok {
		pairs = append(pairs, obs.TraceContextHeader, obs.FormatTraceContext(tid, sid))
	}
	if c.Stream != nil {
		err = streamScheme(&u)
		if err == nil {
			fr := frameRequest{method: method, uri: u.RequestURI(), pairs: pairs, body: body}
			var rpairs []byte
			if status, rpairs, reply, err = c.Stream.exchange(ctx, base.host, &fr, in); err == nil {
				if v := pairValue(rpairs, "Retry-After"); v != nil {
					retryAfter = string(v)
				}
				return status, retryAfter, reply, nil
			}
		}
		// What http.Client.Do makes of a transport's error.
		return 0, "", nil, &url.Error{Op: method[:1] + strings.ToLower(method[1:]), URL: redacted(&u), Err: err}
	}
	hu := u // u stays on the stack on the frame path
	req := (&http.Request{
		Method: method, URL: &hu, Host: u.Host,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header, len(pairs)/2),
	}).WithContext(ctx)
	for i := 0; i < len(pairs); i += 2 {
		req.Header.Set(pairs[i], pairs[i+1])
	}
	if body != nil {
		// What http.NewRequest makes of a *bytes.Reader: net/http writes
		// headers and body in one write only for the in-memory readers it
		// knows, and replays a body only through GetBody. The reader is the
		// request's own: net/http may still be reading it after the response
		// has come back.
		req.ContentLength = int64(len(body))
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		}
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	// A body cut short still answers with its status: an error envelope that
	// did not arrive leaves the APIError without a message.
	if _, err := in.ReadFrom(resp.Body); err != nil && resp.StatusCode == http.StatusOK {
		return 0, "", nil, fmt.Errorf("serve: read response: %w", err)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), in.Bytes(), nil
}

// call is exchange for the 200 answer's body. Any other status is an
// *APIError read from the JSON envelope, which errors keep in both codecs.
func (c *Client) call(ctx context.Context, method, path, contentType string, body []byte,
	in *bytes.Buffer) ([]byte, error) {
	status, retryAfter, reply, err := c.exchange(ctx, method, path, contentType, body, in)
	if err != nil {
		return nil, err
	}
	if status == http.StatusOK {
		return reply, nil
	}
	apiErr := &APIError{Status: status}
	var eresp errorResponse
	if json.NewDecoder(bytes.NewReader(reply)).Decode(&eresp) == nil {
		apiErr.Message = eresp.Error
	}
	apiErr.RetryAfter = parseRetryAfter(retryAfter, time.Now())
	return nil, apiErr
}

// baseURL is BaseURL parsed, once per value it takes.
func (c *Client) baseURL() (*baseURL, error) {
	base := c.base.Load()
	if base == nil || base.raw != c.BaseURL {
		u, err := url.Parse(c.BaseURL)
		if err != nil {
			return nil, fmt.Errorf("serve: build request: %w", err)
		}
		base = &baseURL{raw: c.BaseURL, url: *u, host: streamHost(u)}
		c.base.Store(base)
	}
	return base, nil
}

// redacted is u as http.Client names it in an error: any password masked.
func redacted(u *url.URL) string {
	s := u.String()
	if _, ok := u.User.Password(); ok {
		s = strings.Replace(s, u.User.String()+"@", u.User.Username()+":***@", 1)
	}
	return s
}

func (c *Client) do(ctx context.Context, method, path string, body, out interface{}) error {
	var buf []byte
	contentType := ""
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return fmt.Errorf("serve: encode request: %w", err)
		}
		contentType = "application/json"
	}
	in := getBuf()
	defer putBuf(in)
	reply, err := c.call(ctx, method, path, contentType, buf, in)
	if err != nil || out == nil {
		return err
	}
	if err := json.NewDecoder(bytes.NewReader(reply)).Decode(out); err != nil {
		return fmt.Errorf("serve: decode response: %w", err)
	}
	return nil
}
