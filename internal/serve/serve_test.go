package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/trace"
)

// testTrace caches one generated workload trace per test binary.
var (
	testTraceOnce sync.Once
	testTraceVal  *trace.Trace
	testTraceErr  error
)

func workloadTrace(t *testing.T) *trace.Trace {
	t.Helper()
	testTraceOnce.Do(func() {
		w, err := eval.Lookup("late_sender")
		if err != nil {
			testTraceErr = err
			return
		}
		testTraceVal, testTraceErr = w.Generate()
	})
	if testTraceErr != nil {
		t.Fatalf("generating workload: %v", testTraceErr)
	}
	return testTraceVal
}

// encodeTrace renders tr in the requested container version.
func encodeTrace(t *testing.T, tr *trace.Trace, version int) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	if version == 2 {
		err = trace.EncodeV2(&buf, tr)
	} else {
		err = trace.Encode(&buf, tr)
	}
	if err != nil {
		t.Fatalf("encoding v%d trace: %v", version, err)
	}
	return buf.Bytes()
}

// cliReduce produces the bytes the tracereduce CLI would write for the
// same trace and parameters — the parity reference for served output.
func cliReduce(t *testing.T, upload []byte, method string, threshold float64, mode core.MatchMode, format int) []byte {
	t.Helper()
	dec, err := trace.NewDecoder(bytes.NewReader(upload))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	defer dec.Close()
	m, err := core.NewMethod(method, threshold)
	if err != nil {
		t.Fatalf("NewMethod: %v", err)
	}
	var out bytes.Buffer
	if _, err := core.ReduceStreamToWriterMode(dec.Name(), m, mode, dec.NextRank, &out, format); err != nil {
		t.Fatalf("ReduceStreamToWriterMode: %v", err)
	}
	return out.Bytes()
}

func postReduce(t *testing.T, url string, body []byte, query string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/reduce?"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/reduce: %v", err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return b
}

// TestReduceParity pins the acceptance criterion: served bytes are
// identical to the CLI pipeline's output over a grid sample — both
// upload container versions × methods × match modes × output formats —
// including on cache hits.
func TestReduceParity(t *testing.T) {
	tr := workloadTrace(t)
	srv := NewServer(Config{DegradeAt: 2}) // never degrade in the parity grid
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type cell struct {
		method string
		mode   core.MatchMode
		format int
	}
	grid := []cell{
		{"avgWave", core.MatchModeExact, 1},
		{"avgWave", core.MatchModeExact, 2},
		{"euclidean", core.MatchModeAuto, 2},
		{"iter_k", core.MatchModeExact, 1},
		{"relDiff", core.MatchModeLSH, 2},
	}
	for _, uploadVersion := range []int{1, 2} {
		upload := encodeTrace(t, tr, uploadVersion)
		for _, c := range grid {
			name := fmt.Sprintf("up_v%d/%s/%s/v%d", uploadVersion, c.method, c.mode, c.format)
			t.Run(name, func(t *testing.T) {
				threshold := core.DefaultThresholds[c.method]
				want := cliReduce(t, upload, c.method, threshold, c.mode, c.format)
				q := fmt.Sprintf("method=%s&match=%s&format=v%d", c.method, c.mode, c.format)
				resp := postReduce(t, ts.URL, upload, q)
				got := readBody(t, resp)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d: %s", resp.StatusCode, got)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("served bytes differ from CLI output (%d vs %d bytes)", len(got), len(want))
				}
				// Second request must hit the cache with identical bytes.
				resp2 := postReduce(t, ts.URL, upload, q)
				got2 := readBody(t, resp2)
				if resp2.Header.Get("X-Tracered-Cache") != "hit" {
					t.Errorf("second request missed the cache")
				}
				if !bytes.Equal(want, got2) {
					t.Fatalf("cached bytes differ from CLI output")
				}
			})
		}
	}
}

// TestCacheCrossFormatUploads pins the signature property end to end:
// the v1 and v2 encodings of one trace share a cache entry.
func TestCacheCrossFormatUploads(t *testing.T) {
	tr := workloadTrace(t)
	srv := NewServer(Config{DegradeAt: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	respV1 := postReduce(t, ts.URL, encodeTrace(t, tr, 1), "method=avgWave")
	bodyV1 := readBody(t, respV1)
	if respV1.StatusCode != http.StatusOK {
		t.Fatalf("v1 upload: status %d", respV1.StatusCode)
	}
	respV2 := postReduce(t, ts.URL, encodeTrace(t, tr, 2), "method=avgWave")
	bodyV2 := readBody(t, respV2)
	if respV2.StatusCode != http.StatusOK {
		t.Fatalf("v2 upload: status %d", respV2.StatusCode)
	}
	if respV1.Header.Get("X-Tracered-Signature") != respV2.Header.Get("X-Tracered-Signature") {
		t.Fatalf("signatures differ across upload encodings")
	}
	if respV2.Header.Get("X-Tracered-Cache") != "hit" {
		t.Errorf("v2 re-upload of the same trace missed the cache")
	}
	if !bytes.Equal(bodyV1, bodyV2) {
		t.Fatalf("cached reply differs across upload encodings")
	}
	if got := srv.Metrics().CacheHits.Value(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
}

// TestAdmissionBackpressure saturates the session pool directly and
// asserts 429 + Retry-After, then shows the slot freeing re-admits.
func TestAdmissionBackpressure(t *testing.T) {
	tr := workloadTrace(t)
	upload := encodeTrace(t, tr, 1)
	srv := NewServer(Config{MaxSessions: 1, DegradeAt: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only session slot so the outcome is deterministic.
	srv.sessions <- struct{}{}
	resp := postReduce(t, ts.URL, upload, "method=avgWave")
	readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	<-srv.sessions
	resp = postReduce(t, ts.URL, upload, "method=avgWave")
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d: %s", resp.StatusCode, body)
	}
	if srv.Metrics().SessionsRejected.Value() != 1 {
		t.Errorf("rejected counter = %d, want 1", srv.Metrics().SessionsRejected.Value())
	}
}

// TestConcurrentUploadStress fires more concurrent sessions than the
// pool admits: every response must be a clean 200 or 429 (never a hang,
// never corruption), 200 bodies must be byte-identical, and the
// counters must account for every request.
func TestConcurrentUploadStress(t *testing.T) {
	tr := workloadTrace(t)
	upload := encodeTrace(t, tr, 2)
	srv := NewServer(Config{MaxSessions: 2, FleetWorkers: 4, DegradeAt: 2, CacheBytes: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	want := cliReduce(t, upload, "avgWave", core.DefaultThresholds["avgWave"], core.MatchModeExact, 2)

	const N = 16
	type outcome struct {
		status int
		body   []byte
	}
	results := make([]outcome, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/reduce?method=avgWave&format=v2",
				"application/octet-stream", bytes.NewReader(upload))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("request %d read: %v", i, err)
				return
			}
			results[i] = outcome{resp.StatusCode, b}
		}(i)
	}
	wg.Wait()

	var ok, rejected int
	for i, res := range results {
		switch res.status {
		case http.StatusOK:
			ok++
			if !bytes.Equal(res.body, want) {
				t.Errorf("request %d: 200 body differs from CLI output", i)
			}
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Errorf("request %d: unexpected status %d: %s", i, res.status, res.body)
		}
	}
	if ok == 0 {
		t.Error("no request succeeded")
	}
	m := srv.Metrics()
	if got := m.SessionsTotal.Value() + m.SessionsRejected.Value(); got != N {
		t.Errorf("admitted %d + rejected %d != %d requests", m.SessionsTotal.Value(), m.SessionsRejected.Value(), N)
	}
	if int(m.SessionsRejected.Value()) != rejected {
		t.Errorf("rejected counter %d, saw %d 429s", m.SessionsRejected.Value(), rejected)
	}
	t.Logf("stress: %d ok, %d rejected", ok, rejected)
}

// TestDegradedUnderLoad pins the degradation contract: at or above the
// DegradeAt load fraction a session is served with the next-coarser
// threshold and auto matching, reports both in headers, and the bytes
// still match the CLI for those effective parameters.
func TestDegradedUnderLoad(t *testing.T) {
	tr := workloadTrace(t)
	upload := encodeTrace(t, tr, 1)
	// MaxSessions 1 + DegradeAt 0.5: every admitted session sees
	// inflight 1 >= 0.5, so degradation is deterministic.
	srv := NewServer(Config{MaxSessions: 1, DegradeAt: 0.5})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postReduce(t, ts.URL, upload, "method=avgWave&format=v2")
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	deg := resp.Header.Get("X-Tracered-Degraded")
	if !strings.Contains(deg, "threshold") || !strings.Contains(deg, "match") {
		t.Fatalf("X-Tracered-Degraded = %q, want threshold and match", deg)
	}
	def := core.DefaultThresholds["avgWave"]
	var coarser float64
	for _, v := range core.ThresholdSweep("avgWave") {
		if v > def {
			coarser = v
			break
		}
	}
	if got := resp.Header.Get("X-Tracered-Threshold"); got != fmt.Sprintf("%g", coarser) {
		t.Errorf("X-Tracered-Threshold = %s, want %g", got, coarser)
	}
	if got := resp.Header.Get("X-Tracered-Match"); got != "auto" {
		t.Errorf("X-Tracered-Match = %s, want auto", got)
	}
	want := cliReduce(t, upload, "avgWave", coarser, core.MatchModeAuto, 2)
	if !bytes.Equal(body, want) {
		t.Fatalf("degraded bytes differ from CLI at the degraded parameters")
	}
	if srv.Metrics().SessionsDegraded.Value() != 1 {
		t.Errorf("degraded counter = %d, want 1", srv.Metrics().SessionsDegraded.Value())
	}
}

// TestAnalyze reduces a trace and fetches its diagnosis by signature.
func TestAnalyze(t *testing.T) {
	tr := workloadTrace(t)
	upload := encodeTrace(t, tr, 2)
	srv := NewServer(Config{DegradeAt: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postReduce(t, ts.URL, upload, "method=avgWave&format=v2")
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reduce status %d", resp.StatusCode)
	}
	sig := resp.Header.Get("X-Tracered-Signature")

	aresp, err := http.Get(ts.URL + "/v1/analyze?sig=" + sig + "&method=avgWave&format=v2")
	if err != nil {
		t.Fatalf("GET /v1/analyze: %v", err)
	}
	abody := readBody(t, aresp)
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d: %s", aresp.StatusCode, abody)
	}
	var diag struct {
		Name     string `json:"name"`
		NumRanks int    `json:"num_ranks"`
		Cells    []struct {
			Metric   string    `json:"metric"`
			Location string    `json:"location"`
			Sev      []float64 `json:"sev"`
		} `json:"cells"`
		Stats struct {
			StoredSegments int `json:"stored_segments"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(abody, &diag); err != nil {
		t.Fatalf("decoding analyze response: %v", err)
	}
	if diag.Name != tr.Name || diag.NumRanks != tr.NumRanks() {
		t.Errorf("diagnosis header = %q/%d, want %q/%d", diag.Name, diag.NumRanks, tr.Name, tr.NumRanks())
	}
	if len(diag.Cells) == 0 {
		t.Error("late_sender diagnosis has no severity cells")
	}
	if diag.Stats.StoredSegments == 0 {
		t.Error("analyze stats lost the stored-segment count")
	}

	// Unknown signature and junk signatures fail cleanly.
	aresp, _ = http.Get(ts.URL + "/v1/analyze?sig=" + strings.Repeat("00", 32) + "&method=avgWave")
	readBody(t, aresp)
	if aresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown signature status = %d, want 404", aresp.StatusCode)
	}
	aresp, _ = http.Get(ts.URL + "/v1/analyze?sig=nope")
	readBody(t, aresp)
	if aresp.StatusCode != http.StatusBadRequest {
		t.Errorf("junk signature status = %d, want 400", aresp.StatusCode)
	}
}

// TestUploadLimits pins the per-tenant decode caps and body budget.
func TestUploadLimits(t *testing.T) {
	tr := workloadTrace(t)
	upload := encodeTrace(t, tr, 1)
	srv := NewServer(Config{
		DegradeAt: 2,
		Limits:    trace.DecodeLimits{MaxRanks: 2},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postReduce(t, ts.URL, upload, "method=avgWave")
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap upload status = %d (%s), want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "rank count") {
		t.Errorf("error %q does not mention the rank cap", body)
	}

	small := NewServer(Config{DegradeAt: 2, MaxUploadBytes: 16})
	ts2 := httptest.NewServer(small.Handler())
	defer ts2.Close()
	resp = postReduce(t, ts2.URL, upload, "method=avgWave")
	readBody(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}
}

// TestBadRequests covers parameter validation.
func TestBadRequests(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, q := range []string{"method=nope", "threshold=x", "match=nope", "format=v3"} {
		resp := postReduce(t, ts.URL, []byte("TRC1junk"), q)
		readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	resp := postReduce(t, ts.URL, []byte("not a trace at all"), "method=avgWave")
	readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("junk upload: status %d, want 400", resp.StatusCode)
	}
}

// TestHealthMetricsDrain covers the observability surface and the
// drain flip.
func TestHealthMetricsDrain(t *testing.T) {
	tr := workloadTrace(t)
	upload := encodeTrace(t, tr, 1)
	srv := NewServer(Config{DegradeAt: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	r2 := postReduce(t, ts.URL, upload, "method=avgWave")
	readBody(t, r2)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readBody(t, resp))
	for _, want := range []string{
		"tracered_sessions_total 1",
		"tracered_cache_misses_total 1",
		"tracered_bytes_in_total",
		"tracered_reduce_seconds_bucket{le=\"+Inf\"} 1",
		"tracered_fleet_busy_workers 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	srv.Drain()
	resp, _ = http.Get(ts.URL + "/healthz")
	readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", resp.StatusCode)
	}
	r3 := postReduce(t, ts.URL, upload, "method=avgWave")
	readBody(t, r3)
	if r3.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining reduce = %d, want 503", r3.StatusCode)
	}
}

// TestMetricsHistograms scrapes /metrics after a miss, a hit and a junk
// upload and pins both histograms: their names, one bucket line per
// bound plus +Inf with non-decreasing cumulative counts, and their sample
// counts. The signature pass runs for every upload, a junk one included;
// reduce latency counts only the two served reductions.
func TestMetricsHistograms(t *testing.T) {
	upload := encodeTrace(t, workloadTrace(t), 2)
	srv := NewServer(Config{DegradeAt: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, body := range [][]byte{upload, upload, []byte("not a trace")} {
		readBody(t, postReduce(t, ts.URL, body, "method=avgWave"))
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readBody(t, resp))
	for name, want := range map[string]int64{
		"tracered_reduce_seconds":    2,
		"tracered_signature_seconds": 3,
	} {
		if !strings.Contains(metrics, "# TYPE "+name+" histogram\n") {
			t.Errorf("metrics output missing the %s histogram", name)
			continue
		}
		var buckets []int64
		for _, line := range strings.Split(metrics, "\n") {
			if rest, ok := strings.CutPrefix(line, name+"_bucket{le="); ok {
				var n int64
				if _, err := fmt.Sscan(rest[strings.Index(rest, " ")+1:], &n); err != nil {
					t.Fatalf("bucket line %q: %v", line, err)
				}
				buckets = append(buckets, n)
			}
		}
		if len(buckets) != len(DefaultLatencyBuckets())+1 {
			t.Fatalf("%s: %d bucket lines, want %d", name, len(buckets), len(DefaultLatencyBuckets())+1)
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] < buckets[i-1] {
				t.Errorf("%s: bucket counts not cumulative: %v", name, buckets)
			}
		}
		for _, line := range []string{
			fmt.Sprintf("%s_bucket{le=\"+Inf\"} %d\n", name, want),
			fmt.Sprintf("%s_count %d\n", name, want),
			name + "_sum ",
		} {
			if !strings.Contains(metrics, line) {
				t.Errorf("metrics output missing %q", line)
			}
		}
	}
}
