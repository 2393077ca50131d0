package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/expert"
	"repro/internal/serve"
	"repro/internal/trace"
)

// serveCatalog are the uploads serve_mixed draws from: the ten
// interference workloads, all 32 ranks and 29k events, so one request
// costs about the same whichever is drawn.
var serveCatalog = []string{
	"Nto1_32", "NtoN_32", "1toN_32", "1to1r_32", "1to1s_32",
	"Nto1_1024", "NtoN_1024", "1toN_1024", "1to1r_1024", "1to1s_1024",
}

// analyzeCatalog is reduced into the cache before the timed phase so the
// /v1/analyze share of the mix always finds its signature cached. It is
// kept out of serveCatalog so no reduce request hits a pre-warmed key.
var analyzeCatalog = []struct {
	workload, method string
}{{"sweep3d_8p", "avgWave"}, {"sweep3d_8p", "manhattan"}}

// Request-mix parameters. A share analyzeShare of the requests are
// /v1/analyze calls; of the reduces, a share newKeyShare use a cache key
// for the first time (a miss) and the rest repeat a used key (a hit).
// Keys are (workload, method at its default threshold, output format);
// the upload version is drawn separately and shares the key. Most
// uploads are v2 so that hits of one container version hold the median:
// an even split would put it between the v1 and v2 hit costs.
const (
	analyzeShare  = 0.05
	newKeyShare   = 0.2
	v1UploadShare = 0.15
)

// serveBlock is how many requests the run's request list holds: every
// block of the timed run sends it once. serveRate is the open loop's
// arrival rate, low enough that requests seldom queue behind each
// other, so the latencies are the server's and not a queue's.
// closedBlocks is how many closed-loop blocks follow each open-loop one.
const (
	serveBlock   = 100
	serveRate    = 25.0
	closedBlocks = 1
)

// sweepRates are the fixed rates max_rate_rps is chosen from.
var sweepRates = []float64{25, 50, 75, 100, 125, 150, 175}

// tailLimitMS is the latency limit on op_ms_tail that a sweep rate must
// meet to count toward max_rate_rps.
const tailLimitMS = 500

type serveKey struct {
	wl     int
	method string
	format int
}

// serveRequest is one scheduled request.
type serveRequest struct {
	analyze int // index into analyzeCatalog, or -1 for a reduce
	key     serveKey
	upload  int // container version of the upload
}

// requestMix draws n requests from rng in exact shares (the mix
// parameters above; analyze calls only when analyze is set): every seed
// draws the same composition, in a different order and over different
// keys. The first reduce is always a first use, and first uses stop
// once every key has been used.
func requestMix(rng *rand.Rand, n int, analyze bool) []serveRequest {
	var pool []serveKey
	for wl := range serveCatalog {
		for _, m := range core.MethodNames {
			for _, f := range []int{1, 2} {
				pool = append(pool, serveKey{wl, m, f})
			}
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	share := func(m int, p float64) int { return int(math.Round(float64(m) * p)) }
	const repeat, first, analyzeCall = 0, 1, 2
	kind := make([]int, n)
	nAnalyze := 0
	if analyze {
		nAnalyze = share(n, analyzeShare)
	}
	nFirst := min(max(share(n-nAnalyze, newKeyShare), 1), len(pool), n-nAnalyze)
	for i := range nAnalyze {
		kind[i] = analyzeCall
	}
	for i := range nFirst {
		kind[nAnalyze+i] = first
	}
	rng.Shuffle(n, func(i, j int) { kind[i], kind[j] = kind[j], kind[i] })
	upload := make([]int, n)
	for i := range upload {
		upload[i] = 2
		if i < share(n, v1UploadShare) {
			upload[i] = 1
		}
	}
	rng.Shuffle(n, func(i, j int) { upload[i], upload[j] = upload[j], upload[i] })
	// Move a first use to the first reduce, which has no key to repeat.
	for i := range kind {
		if kind[i] != analyzeCall {
			for j := i; j < n; j++ {
				if kind[j] == first {
					kind[i], kind[j] = kind[j], kind[i]
					break
				}
			}
			break
		}
	}
	used := 0
	out := make([]serveRequest, n)
	for i := range out {
		rq := serveRequest{analyze: -1, upload: upload[i]}
		switch kind[i] {
		case analyzeCall:
			rq.analyze = rng.IntN(len(analyzeCatalog))
		case first:
			rq.key = pool[used]
			used++
		default:
			rq.key = pool[rng.IntN(used)]
		}
		out[i] = rq
	}
	return out
}

// analyzeWant is what /v1/analyze must report for one warmed key.
type analyzeWant struct {
	sig                   trace.Signature
	name                  string
	ranks, cells          int
	stored, totalSegments int
}

// serveMixed drives the tracereduced handler (serve.NewServer with its
// default Config) over loopback HTTP with an open loop.
type serveMixed struct {
	seed    uint64
	uploads [][2][]byte // per catalog workload: v1, v2 containers
	refs    map[serveKey][]byte
	warm    [][]byte // analyzeCatalog uploads (v1)
	want    []analyzeWant
	conns   int
	// list is the run's request list and due its open-loop schedule at
	// serveRate; every block of the timed run replays them.
	list []serveRequest
	due  []time.Duration

	srv *server // started in setup, used by the first block
}

func newServeMixed() workload { return &serveMixed{} }

func (s *serveMixed) setup(seed uint64) error {
	s.seed = seed
	s.conns = runtime.GOMAXPROCS(0)
	n := len(serveCatalog)
	s.uploads = make([][2][]byte, n)
	traces := make([]*trace.Trace, n)
	err := parallel(n, func(i int) error {
		w, err := eval.Lookup(serveCatalog[i])
		if err != nil {
			return err
		}
		t, err := w.Generate()
		if err != nil {
			return err
		}
		traces[i] = t
		var v1, v2 bytes.Buffer
		if err := trace.Encode(&v1, t); err != nil {
			return err
		}
		if err := trace.EncodeV2With(&v2, t, trace.EncoderOptions{Workers: 1}); err != nil {
			return err
		}
		s.uploads[i] = [2][]byte{v1.Bytes(), v2.Bytes()}
		return nil
	})
	if err != nil {
		return err
	}
	var keys []serveKey
	for wl := range serveCatalog {
		for _, m := range core.MethodNames {
			keys = append(keys, serveKey{wl, m, 0})
		}
	}
	refs := make([][2][]byte, len(keys))
	err = parallel(len(keys), func(i int) error {
		p, err := core.DefaultMethod(keys[i].method)
		if err != nil {
			return err
		}
		r, err := exactReference(traces[keys[i].wl], p, 1, 2)
		if err == nil {
			refs[i] = [2][]byte{r[0].body, r[1].body}
		}
		return err
	})
	if err != nil {
		return err
	}
	s.refs = map[serveKey][]byte{}
	for i, k := range keys {
		for f := 1; f <= 2; f++ {
			k.format = f
			s.refs[k] = refs[i][f-1]
		}
	}
	s.warm = nil
	s.want = nil
	for _, a := range analyzeCatalog {
		w, err := eval.Lookup(a.workload)
		if err != nil {
			return err
		}
		t, err := w.Generate()
		if err != nil {
			return err
		}
		var v1 bytes.Buffer
		if err := trace.Encode(&v1, t); err != nil {
			return err
		}
		sig, err := trace.SignatureOf(bytes.NewReader(v1.Bytes()))
		if err != nil {
			return err
		}
		p, err := core.DefaultMethod(a.method)
		if err != nil {
			return err
		}
		red, err := core.ReduceSequential(t, p)
		if err != nil {
			return err
		}
		diag, err := expert.AnalyzeReduced(red)
		if err != nil {
			return err
		}
		s.warm = append(s.warm, v1.Bytes())
		s.want = append(s.want, analyzeWant{sig: sig, name: diag.Name, ranks: diag.NumRanks,
			cells: len(diag.Keys()), stored: red.StoredSegments(), totalSegments: red.TotalSegments})
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	s.due = pacedSchedule(rng, serveRate, serveBlock)
	s.list = requestMix(rng, serveBlock, true)
	s.srv, err = s.start()
	return err
}

// fresh returns the server setup started, the first time, and a newly
// started one after that, so every block begins with an empty cache.
func (s *serveMixed) fresh() (*server, error) {
	if srv := s.srv; srv != nil {
		s.srv = nil
		return srv, nil
	}
	return s.start()
}

func (s *serveMixed) close() {
	if s.srv != nil {
		s.srv.close()
		s.srv = nil
	}
}

// server is one running service on a loopback listener with a client
// limited to s.conns connections.
type server struct {
	h      *http.Server
	base   string
	client *http.Client
	done   chan struct{}
}

// start serves a fresh serve.NewServer(serve.Config{}) and reduces the
// analyze keys into its cache.
func (s *serveMixed) start() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &server{
		h:    &http.Server{Handler: serve.NewServer(serve.Config{}).Handler()},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: s.conns, MaxIdleConnsPerHost: s.conns, DisableCompression: true,
		}},
		done: make(chan struct{}),
	}
	go func() {
		_ = srv.h.Serve(ln) // returns http.ErrServerClosed once close runs
		close(srv.done)
	}()
	for i, a := range analyzeCatalog {
		status, _, _, err := srv.do("POST", "/v1/reduce?method="+a.method, s.warm[i])
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("warming %s/%s: status %d", a.workload, a.method, status)
		}
		if err != nil {
			srv.close()
			return nil, err
		}
	}
	return srv, nil
}

func (srv *server) close() {
	srv.h.Close()
	<-srv.done
	srv.client.CloseIdleConnections()
}

// do sends one request and reads the whole reply.
func (srv *server) do(method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, srv.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := srv.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// send issues one scheduled request and checks its reply; hit reports a
// reduce answered from the cache.
func (s *serveMixed) send(srv *server, rq serveRequest) (hit bool, err error) {
	if rq.analyze >= 0 {
		a := analyzeCatalog[rq.analyze]
		w := s.want[rq.analyze]
		q := url.Values{"sig": {w.sig.String()}, "method": {a.method}}
		status, _, body, err := srv.do("GET", "/v1/analyze?"+q.Encode(), nil)
		if err != nil {
			return false, err
		}
		return false, checkAnalyzeReply(status, body, w)
	}
	k := rq.key
	thr := core.DefaultThresholds[k.method]
	q := url.Values{"method": {k.method}, "threshold": {strconv.FormatFloat(thr, 'g', -1, 64)},
		"format": {"v" + strconv.Itoa(k.format)}}
	status, h, body, err := srv.do("POST", "/v1/reduce?"+q.Encode(), s.uploads[k.wl][rq.upload-1])
	if err != nil {
		return false, err
	}
	return h.Get("X-Tracered-Cache") == "hit", checkReduceReply(status, h, body, k.method, thr, k.format, s.refs[k])
}

// checkReduceReply is the contract of one /v1/reduce reply: status 200,
// effective-parameter headers equal to the request (no degradation),
// and a body byte-identical to the sequential reference. A 429 refusal
// is a failure like a wrong byte.
func checkReduceReply(status int, h http.Header, body []byte, method string, thr float64, format int, want []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("reduce %s: status %d: %s", method, status, strings.TrimSpace(string(body)))
	}
	for _, hv := range [][2]string{
		{"X-Tracered-Method", method},
		{"X-Tracered-Threshold", strconv.FormatFloat(thr, 'g', -1, 64)},
		{"X-Tracered-Match", "exact"},
		{"X-Tracered-Format", "v" + strconv.Itoa(format)},
		{"X-Tracered-Degraded", ""},
	} {
		if got := h.Get(hv[0]); got != hv[1] {
			return fmt.Errorf("reduce %s: header %s = %q, requested %q", method, hv[0], got, hv[1])
		}
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("reduce %s: %d-byte reply differs from the %d-byte reference", method, len(body), len(want))
	}
	return nil
}

// checkAnalyzeReply checks a /v1/analyze reply against the diagnosis of
// the sequential reference reduction.
func checkAnalyzeReply(status int, body []byte, w analyzeWant) error {
	if status != http.StatusOK {
		return fmt.Errorf("analyze: status %d", status)
	}
	var got struct {
		Name     string            `json:"name"`
		NumRanks int               `json:"num_ranks"`
		Cells    []json.RawMessage `json:"cells"`
		Stats    struct {
			Stored int `json:"stored_segments"`
			Total  int `json:"total_segments"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	if got.Name != w.name || got.NumRanks != w.ranks || len(got.Cells) != w.cells ||
		got.Stats.Stored != w.stored || got.Stats.Total != w.totalSegments {
		return fmt.Errorf("analyze %s: got %s/%d ranks/%d cells/%d stored/%d segments, want %s/%d/%d/%d/%d",
			w.sig.String()[:12], got.Name, got.NumRanks, len(got.Cells), got.Stats.Stored, got.Stats.Total,
			w.name, w.ranks, w.cells, w.stored, w.totalSegments)
	}
	return nil
}

// stepResult is one open-loop run at a fixed rate.
type stepResult struct {
	load          *loadResult
	hit, miss     []float64
	before, after map[string]float64
}

// runOpen sends list on schedule due to srv in an open loop, passing
// each completed request to done (see openLoop), and splits the
// latencies of the reduces into cache hits and misses.
func (s *serveMixed) runOpen(srv *server, due []time.Duration, list []serveRequest, done func(int, float64, error)) (*stepResult, error) {
	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	hits := make([]bool, len(due))
	res := openLoop(due, s.conns, func(i int) error {
		var err error
		hits[i], err = s.send(srv, list[i])
		return err
	}, done)
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	st := &stepResult{load: res, before: before, after: after}
	for i, rq := range list {
		if rq.analyze >= 0 || res.Err[i] != nil {
			continue
		}
		if hits[i] {
			st.hit = append(st.hit, res.LatencyMS[i])
		} else {
			st.miss = append(st.miss, res.LatencyMS[i])
		}
	}
	return st, nil
}

// scrape reads the server's /metrics counters.
func (srv *server) scrape() (map[string]float64, error) {
	status, _, body, err := srv.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			m[f[0]] = v
		}
	}
	return m, nil
}

func (st *stepResult) delta(name string) float64 { return st.after[name] - st.before[name] }

// measure alternates, while time remains, one open-loop block — the
// run's request list at serveRate, each request timed from when it was
// due — with closedBlocks closed-loop blocks, which send the same list
// back to back on one connection and are timed as a whole: the
// throughput one waiting client gets, and the server's CPU and
// allocation per request. On the two-vCPU Xeon VM the benchmark was
// tuned on, two such clients on two Ps raised throughput 1.6 times but
// spread 1.6 times as much between blocks. Every block starts
// on a fresh server, so every block sees the same first uses and
// repeats, whatever the run's length.
func (s *serveMixed) measure(deadline time.Time, rec *recorder) {
	rec.chunkOps = len(s.list)
	var lag time.Duration
	backlog, growing, blocks := 0, 0, 0
	for time.Now().Before(deadline) {
		srv, err := s.fresh()
		if err != nil {
			rec.outcome(err)
			return
		}
		st, err := s.runOpen(srv, s.due, s.list, func(_ int, ms float64, err error) { rec.op(ms, err) })
		srv.close()
		if err != nil {
			rec.outcome(err)
			return
		}
		blocks++
		lag, backlog = max(lag, st.load.LagMax), max(backlog, st.load.BacklogMax)
		if growingBacklog(st.load.Backlog, s.conns) {
			growing++
		}
		for range closedBlocks {
			if srv, err = s.start(); err != nil {
				rec.outcome(err)
				return
			}
			rec.timeBlock(len(s.list), func() {
				for _, rq := range s.list {
					_, err := s.send(srv, rq)
					rec.outcome(err)
				}
			})
			srv.close()
		}
	}
	fmt.Printf("open loop at %g/s: generator lag max %.3f ms, backlog max %d, growing in %d of %d blocks\n",
		serveRate, float64(lag)/1e6, backlog, growing, blocks)
}

// layered spends sweepShare of the time on the rate sweep, each rate on
// a fresh server, and the rest on the layered drive of the reduce path.
func (s *serveMixed) layered(deadline time.Time, lr *layerRun) {
	const sweepShare = 0.6
	total := time.Until(deadline)
	step := time.Duration(float64(total) * sweepShare / float64(len(sweepRates)))
	if s.srv != nil {
		s.srv.close()
		s.srv = nil
	}
	for k, rate := range sweepRates {
		srv, err := s.start()
		if err != nil {
			lr.check(err)
			return
		}
		rng := rand.New(rand.NewPCG(s.seed, uint64(10+k)))
		n := int(rate * step.Seconds())
		st, err := s.runOpen(srv, pacedSchedule(rng, rate, n), requestMix(rng, n, true), nil)
		srv.close()
		if err != nil {
			lr.check(err)
			return
		}
		failed := 0
		for _, err := range st.load.Err {
			lr.check(err)
			if err != nil {
				failed++
			}
		}
		lat := summarize(st.load.LatencyMS)
		growing := growingBacklog(st.load.Backlog, s.conns)
		fmt.Printf("rate %g/s: %d requests, p50 %.2f ms, p%g %.2f ms, backlog max %d, growing %v, %d failed\n",
			rate, lat.Samples, lat.P50, lat.TailPct, lat.Tail, st.load.BacklogMax, growing, failed)
		if lat.Tail <= tailLimitMS && !growing && failed == 0 {
			lr.extra["max_rate_rps"] = rate
		}
		if rate != serveRate {
			continue
		}
		lr.extra["hit_ms_p50"] = median(st.hit)
		lr.extra["miss_ms_p50"] = median(st.miss)
		hits, misses := st.delta("tracered_cache_hits_total"), st.delta("tracered_cache_misses_total")
		lr.extra["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
		lr.extra["serve.rejected"] = st.delta("tracered_sessions_rejected_total")
		lr.extra["serve.degraded"] = st.delta("tracered_sessions_degraded_total")
		lr.extra["serve.bytes_out"] = st.delta("tracered_bytes_out_total") / 1e6
		lr.extra["loadgen.lag_ms_max"] = float64(st.load.LagMax) / 1e6
		lr.extra["loadgen.backlog_max"] = float64(st.load.BacklogMax)
	}
	s.layeredReduces(deadline, lr)
}

// layeredReduces replays the reduces of the run's request list, in
// blocks that each start from empty caches, on s.conns goroutines
// through the steps of the service's handler: spool, signature pass,
// cache lookup, fleet lease, decode → split → match → encode, cache
// insert. Every request runs twice, traced against one cache and
// untraced against another that has seen the same requests, so both
// runs find the same cache state; which runs first alternates. Each
// traced miss is followed by the real pipelined reduce of the same
// upload for core.pipeline_ms.
func (s *serveMixed) layeredReduces(deadline time.Time, lr *layerRun) {
	fleet := serve.NewFleet(s.conns, nil)
	for time.Now().Before(deadline) {
		caches := [2]*serve.Cache{serve.NewCache(256<<20, nil, nil), serve.NewCache(256<<20, nil, nil)}
		_ = parallelUntil(deadline, len(s.list), func(i int) error {
			rq := s.list[i]
			if rq.analyze >= 0 {
				return nil
			}
			for k := range 2 {
				traced := (i+k)%2 == 0
				cache := caches[1]
				if traced {
					cache = caches[0]
				}
				miss := false
				lr.do(traced, "bench.op", func(ot *opTrace, c *coreCounts) error {
					var err error
					miss, err = s.layeredReduce(ot, c, fleet, cache, rq)
					return err
				})
				if traced && miss {
					t0 := time.Now()
					err := s.pipelined(fleet, rq)
					lr.pipeline(time.Since(t0), err)
				}
			}
			return nil
		})
	}
}

func (s *serveMixed) layeredReduce(ot *opTrace, c *coreCounts, fleet *serve.Fleet, cache *serve.Cache, rq serveRequest) (miss bool, err error) {
	k := rq.key
	thr := core.DefaultThresholds[k.method]
	sp := ot.open("serve.read", 0)
	body, err := io.ReadAll(bytes.NewReader(s.uploads[k.wl][rq.upload-1]))
	ot.close(sp)
	if err != nil {
		return false, err
	}
	sp = ot.open("trace.signature", 0)
	sig, err := trace.SignatureOfWith(bytes.NewReader(body), trace.DecoderOptions{})
	ot.close(sp)
	if err != nil {
		return false, err
	}
	key := serve.CacheKey{Sig: sig, Method: k.method, Threshold: thr, Mode: core.MatchModeExact, Format: k.format}
	sp = ot.open("serve.cache_get", 0)
	ent, ok := cache.Get(key)
	ot.close(sp)
	if ok {
		return false, checkBody(k, ent.Body, s.refs[k])
	}
	p, err := core.NewMethod(k.method, thr)
	if err != nil {
		return true, err
	}
	sp = ot.open("serve.fleet_wait", 0)
	granted, err := fleet.Acquire(context.Background(), fleet.Size())
	ot.close(sp)
	if err != nil {
		return true, err
	}
	defer fleet.Release(granted)
	name, nextRank, err := decodedRanks(ot, 0, body, c)
	if err != nil {
		return true, err
	}
	red, err := layeredReduce(ot, 0, name, p, core.MatchModeExact, nextRank, c)
	if err != nil {
		return true, err
	}
	var out bytes.Buffer
	sp = ot.open("trace.encode", 0)
	err = encodeReduced(&out, red, k.format)
	ot.close(sp)
	if err != nil {
		return true, err
	}
	sp = ot.open("serve.cache_put", 0)
	cache.Put(key, &serve.CacheEntry{Body: out.Bytes(), Stats: core.StreamStats{
		Name: name, Method: p.Name(), Ranks: len(red.Ranks), TotalSegments: red.TotalSegments,
		Matches: red.Matches, PossibleMatches: red.PossibleMatches, StoredSegments: red.StoredSegments(),
		BytesWritten: int64(out.Len()),
	}})
	ot.close(sp)
	return true, checkBody(k, out.Bytes(), s.refs[k])
}

// pipelined runs the handler's real reduce call — core.ReduceStreamToWriterOpts
// on a fleet lease — for one upload.
func (s *serveMixed) pipelined(fleet *serve.Fleet, rq serveRequest) error {
	k := rq.key
	p, err := core.DefaultMethod(k.method)
	if err != nil {
		return err
	}
	granted, err := fleet.Acquire(context.Background(), fleet.Size())
	if err != nil {
		return err
	}
	defer fleet.Release(granted)
	dec, err := trace.NewDecoderWith(bytes.NewReader(s.uploads[k.wl][rq.upload-1]), trace.DecoderOptions{Workers: granted})
	if err != nil {
		return err
	}
	defer dec.Close()
	var out bytes.Buffer
	_, err = core.ReduceStreamToWriterOpts(dec.Name(), p, dec.NextRank, &out, k.format,
		core.StreamOptions{Workers: granted, Recycle: dec.Recycle})
	if err != nil {
		return err
	}
	return checkBody(k, out.Bytes(), s.refs[k])
}

func checkBody(k serveKey, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return errors.New("reduce " + serveCatalog[k.wl] + "/" + k.method + ": output differs from the sequential reference")
	}
	return nil
}
