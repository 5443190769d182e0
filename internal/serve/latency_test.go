package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"smartndr/internal/testutil"
)

// lat300Request is the acceptance workload: the 300-sink benchmark case
// through the smart scheme — the same shape as the engine's
// 300-sink optimizer benchmark.
func lat300Request(tb testing.TB) []byte {
	tb.Helper()
	spec := testutil.UniformSpec("lat300", 300, 3000, 42)
	body, err := json.Marshal(&FlowRequest{Spec: &spec, Scheme: "smart-ndr"})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

func timedPost(tb testing.TB, ts *httptest.Server, body []byte) (time.Duration, string) {
	tb.Helper()
	begin := time.Now()
	resp, err := http.Post(ts.URL+"/v1/flow", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	elapsed := time.Since(begin)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("status %d", resp.StatusCode)
	}
	return elapsed, resp.Header.Get("X-Cache")
}

// TestServeWarmCacheLatencyFloor is the acceptance check: on the
// 300-sink benchmark case a warm-cache /v1/flow round trip must cost
// under 5% of the cold run. The cold run synthesizes and optimizes a
// 300-sink tree (tens to hundreds of milliseconds); the warm path is a
// map lookup plus response replay, so the margin is enormous — if this
// test fails, caching is broken, not slow.
func TestServeWarmCacheLatencyFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("300-sink synthesis is not a -short test")
	}
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	body := lat300Request(t)

	cold, outcome := timedPost(t, ts, body)
	if outcome != CacheMiss {
		t.Fatalf("first request X-Cache = %q, want miss", outcome)
	}
	// Best of three warm probes, so one scheduling hiccup cannot fail
	// the run.
	warm := time.Duration(1<<62 - 1)
	for i := 0; i < 3; i++ {
		d, outcome := timedPost(t, ts, body)
		if outcome != CacheHit {
			t.Fatalf("warm request %d X-Cache = %q, want hit", i, outcome)
		}
		if d < warm {
			warm = d
		}
	}
	if warm >= cold/20 {
		t.Errorf("warm-cache latency %v is not under 5%% of cold %v", warm, cold)
	}
}

// BenchmarkServeFlowCold measures the full uncached service round trip
// on the 300-sink case; BenchmarkServeFlowWarm the cached one. Their
// ratio is the margin behind TestServeWarmCacheLatencyFloor.
func BenchmarkServeFlowCold(b *testing.B) {
	ts := httptest.NewServer(New(Config{CacheEntries: 1}).Handler())
	defer ts.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A distinct seed per iteration defeats the cache.
		spec := testutil.UniformSpec("cold", 300, 3000, int64(i+1))
		req, err := json.Marshal(&FlowRequest{Spec: &spec, Scheme: "smart-ndr"})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/flow", "application/json", bytes.NewReader(req))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		// A refused or failed request is fast; it must not pass for a
		// cold flow.
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("iteration %d: status %d, want 200", i, resp.StatusCode)
		}
	}
}

func BenchmarkServeFlowWarm(b *testing.B) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	body := lat300Request(b)
	resp, err := http.Post(ts.URL+"/v1/flow", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/flow", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
}
