package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestParseRetryAfter covers both header forms RFC 9110 allows plus the
// garbage a client must shrug off.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 7, 27, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"", 0},
		{"3", 3 * time.Second},
		{" 7 ", 7 * time.Second},
		{"0", 0},
		{"-2", 0},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{now.Add(-time.Hour).Format(http.TimeFormat), 0},
		// RFC 850 and ANSI C asctime forms, which http.ParseTime accepts.
		{now.Add(30 * time.Second).Format(time.RFC850), 30 * time.Second},
		{now.Add(30 * time.Second).Format(time.ANSIC), 30 * time.Second},
		{"soon", 0},
		{"3.5", 0},
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.header, now); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// retryTestServer answers 429 for the first fail requests — alternating the
// two Retry-After forms — then echoes a fixed healthz body.
func retryTestServer(t *testing.T, fail int64) (*Client, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if n <= fail {
			if n%2 == 1 {
				w.Header().Set("Retry-After", "0")
			} else {
				w.Header().Set("Retry-After", time.Now().UTC().Add(-time.Minute).Format(http.TimeFormat))
			}
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"saturated"}`))
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"status":"ok","backend":"fast","boards":1}`))
	}))
	t.Cleanup(ts.Close)
	return &Client{BaseURL: ts.URL}, &hits
}

// TestDoRetryRecovers: a server saturated for two attempts answers on the
// third; RetryPolicy.Do delivers the response and reports each scheduled retry.
func TestDoRetryRecovers(t *testing.T) {
	client, hits := retryTestServer(t, 2)
	var retries atomic.Int64
	p := RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		OnRetry: func(attempt int, err error, wait time.Duration) {
			retries.Add(1)
			if !errors.Is(err, ErrSaturated) {
				t.Errorf("OnRetry attempt %d: err = %v, want ErrSaturated", attempt, err)
			}
		},
	}
	var out HealthResponse
	err := p.Do(context.Background(), func() error {
		return client.Do(context.Background(), http.MethodGet, "/healthz", nil, &out)
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != "ok" {
		t.Fatalf("response = %+v", out)
	}
	if hits.Load() != 3 || retries.Load() != 2 {
		t.Fatalf("hits = %d, retries = %d; want 3 and 2", hits.Load(), retries.Load())
	}
}

// TestDoRetryExhausted: a server that never recovers returns the last 429
// verbatim, still matchable as ErrSaturated.
func TestDoRetryExhausted(t *testing.T) {
	client, hits := retryTestServer(t, 1<<30)
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}
	err := p.Do(context.Background(), func() error {
		return client.Do(context.Background(), http.MethodGet, "/healthz", nil, &HealthResponse{})
	})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	if hits.Load() != 3 {
		t.Fatalf("hits = %d, want exactly MaxAttempts = 3", hits.Load())
	}
}

// TestDoRetryNonRetriable: a 404 is the caller's problem, not saturation —
// one attempt, no backoff.
func TestDoRetryNonRetriable(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusNotFound)
		_, _ = w.Write([]byte(`{"error":"nope"}`))
	}))
	t.Cleanup(ts.Close)
	client := &Client{BaseURL: ts.URL}
	err := RetryPolicy{}.Do(context.Background(), func() error {
		return client.Do(context.Background(), http.MethodGet, "/healthz", nil, &HealthResponse{})
	})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want APIError 404", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("hits = %d, want 1", hits.Load())
	}
}

// TestDoRetryHonorsContext: a long server-suggested wait does not outlive
// the caller's context.
func TestDoRetryHonorsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":"saturated"}`))
	}))
	t.Cleanup(ts.Close)
	client := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := RetryPolicy{MaxAttempts: 5, MaxDelay: time.Minute}.Do(ctx, func() error {
		return client.Do(ctx, http.MethodGet, "/healthz", nil, &HealthResponse{})
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("the retry loop waited %v past its context", elapsed)
	}
}
