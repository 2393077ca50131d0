package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"regexp"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{10000, 99.9, 10},
		{1000, 99, 10},
		{999, 95, 49},
		{100, 90, 10},
		{40, 75, 10},
		{39, 50, 19},
		{19, 50, 9},
		{1, 50, 0},
	} {
		p, beyond := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond {
			t.Errorf("tailPercentile(%d) = p%g with %d beyond, want p%g with %d", c.n, p, beyond, c.p, c.beyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	var ms []float64
	for i := 100; i >= 1; i-- {
		ms = append(ms, float64(i))
	}
	s := summarize(ms)
	if s.P50 != 50.5 || s.TailPct != 90 || s.Tail != 90 || s.Samples != 100 || s.TailBeyond != 10 {
		t.Fatalf("summarize(1..100) = %+v", s)
	}
	if ms[0] != 100 {
		t.Fatal("summarize reordered its input")
	}
}

func TestSummarizeChunks(t *testing.T) {
	// Three chunks of 100 and a partial fourth; the middle chunk is a
	// burst ten times slower. The median over chunks ignores the burst,
	// where a whole-run p90 would be the burst's, and the partial chunk
	// is left out.
	var ms []float64
	for c := 0; c < 3; c++ {
		scale := 1.0
		if c == 1 {
			scale = 10
		}
		for i := 1; i <= 100; i++ {
			ms = append(ms, scale*float64(i))
		}
	}
	for i := 0; i < 50; i++ {
		ms = append(ms, 1000)
	}
	s := summarizeChunks(ms, 100)
	if s.P50 != 50.5 || s.Tail != 90 || s.TailPct != 90 || s.Samples != 100 || s.TailBeyond != 10 || s.Chunks != 3 {
		t.Fatalf("summarizeChunks = %+v", s)
	}
	if whole := summarize(ms); whole.Tail < 500 {
		t.Fatalf("whole-run tail %g: the burst should own it", whole.Tail)
	}
	// The tail percentile follows the chunk size, not the sample count.
	if s := summarizeChunks(ms[:299], 40); s.TailPct != 75 || s.Chunks != 7 {
		t.Fatalf("chunks of 40: %+v", s)
	}
	if s := summarizeChunks([]float64{3, 1}, 3); s.P50 != 2 || s.Samples != 2 || s.Chunks != 0 {
		t.Fatalf("fewer samples than one chunk: %+v", s)
	}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100, busy: 100, calls: 1},
		{name: "a", parent: 0, start: 10, end: 40, busy: 30, calls: 1},
		{name: "a.a", parent: 1, start: 20, end: 30, busy: 10, calls: 1},
		{name: "b", parent: 0, start: 50, end: 60, busy: 10, calls: 1},
	}
	want := []int64{60, 20, 10, 10}
	if got := selfTimes(spans); !equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestSelfTimesOverlapping(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100, busy: 100, calls: 1},
		// Two concurrent children covering [10,70) together count once.
		{name: "a", parent: 0, start: 10, end: 50, busy: 40, calls: 1},
		{name: "b", parent: 0, start: 30, end: 70, busy: 40, calls: 1},
		// A child running past its parent's end is clipped to it.
		{name: "c", parent: 0, start: 90, end: 120, busy: 30, calls: 1},
		// An aggregated child covers its busy time, not its extent.
		{name: "agg", parent: 0, start: 0, end: 95, busy: 5, calls: 3, agg: true},
	}
	want := []int64{100 - 60 - 10 - 5, 40, 40, 30, 5}
	if got := selfTimes(spans); !equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestOpTraceFinish(t *testing.T) {
	tr := newTracer(true)
	for op := int64(1); op <= 2; op++ {
		ot := tr.begin(op, "bench.op")
		ot.aggregate("core.absorb", 0)
		agg := ot.aggregate("core.scan", 0)
		ot.add(agg, 5, 7)
		ot.add(agg, 9, 10)
		child := ot.open("trace.decode", 0)
		ot.close(child)
		ot.finish()
	}
	if len(tr.spans) != 6 {
		t.Fatalf("%d spans kept, want 6 (the empty aggregate dropped)", len(tr.spans))
	}
	for i, s := range tr.spans {
		if s.name == "core.absorb" {
			t.Fatal("aggregate without calls was kept")
		}
		if s.name == "bench.op" {
			if s.parent != -1 {
				t.Fatalf("root span %d has parent %d", i, s.parent)
			}
			continue
		}
		if p := tr.spans[s.parent]; p.name != "bench.op" || p.op != s.op {
			t.Fatalf("span %d (%s, op %d) has parent %s of op %d", i, s.name, s.op, p.name, p.op)
		}
		if s.name == "core.scan" && (s.busy != 3 || s.calls != 2 || s.start != 5 || s.end != 10) {
			t.Fatalf("aggregate = %+v, want busy 3 over 2 calls in [5,10)", s)
		}
	}
	off := newTracer(false)
	ot := off.begin(1, "bench.op")
	ot.add(ot.aggregate("core.scan", 0), 1, 2)
	if ot.now() != 0 {
		t.Fatal("a tracer that is off read the clock")
	}
	ot.finish()
	if len(off.spans) != 0 {
		t.Fatal("a tracer that is off recorded spans")
	}
}

func equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	// Three requests due together on one connection, each served in
	// 20ms: the third waits for the first two, and its latency from the
	// due time counts that wait.
	const service = 20 * time.Millisecond
	due := []time.Duration{0, 0, 0}
	res := openLoop(due, 1, func(int) error { time.Sleep(service); return nil }, nil)
	for i, ms := range res.LatencyMS {
		if min := float64(i+1) * float64(service) / 1e6; ms < min {
			t.Errorf("request %d latency %.1f ms, want at least %.1f ms", i, ms, min)
		}
	}
	if res.BacklogMax < 1 {
		t.Errorf("backlog max %d: requests released together must queue", res.BacklogMax)
	}
	if res.LagMax > 50*time.Millisecond {
		t.Errorf("generator lag %v: release must not wait for the server", res.LagMax)
	}
}

func TestOpenLoopNeverSlows(t *testing.T) {
	// A server far slower than the arrival rate must not delay the
	// schedule: every request is released by its due time (plus
	// scheduling slack) although the first reply takes 100ms.
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	start := time.Now()
	res := openLoop(due, 1, func(i int) error {
		if i == 0 {
			time.Sleep(100 * time.Millisecond)
		}
		return nil
	}, nil)
	if res.LagMax > 40*time.Millisecond {
		t.Errorf("generator lag %v behind a stalled server", res.LagMax)
	}
	if last := res.LatencyMS[3]; last < 60 {
		t.Errorf("last request latency %.1f ms; the stall before it must count", last)
	}
	if time.Since(start) < 100*time.Millisecond {
		t.Error("openLoop returned before the replies")
	}
}

func TestGrowingBacklog(t *testing.T) {
	flat := make([]int, 400)
	for i := range flat {
		flat[i] = i % 3
	}
	if growingBacklog(flat, 2) {
		t.Error("a bounded backlog was reported growing")
	}
	ramp := make([]int, 400)
	for i := range ramp {
		ramp[i] = i / 10
	}
	if !growingBacklog(ramp, 2) {
		t.Error("a linearly growing backlog was not detected")
	}
	if growingBacklog([]int{5, 9}, 2) {
		t.Error("too few samples to judge must not count as growing")
	}
}

func TestPacedScheduleSeeded(t *testing.T) {
	a := pacedSchedule(rand.New(rand.NewPCG(7, 1)), 100, 1000)
	b := pacedSchedule(rand.New(rand.NewPCG(7, 1)), 100, 1000)
	c := pacedSchedule(rand.New(rand.NewPCG(8, 1)), 100, 1000)
	if len(a) != 1000 || len(b) != 1000 || len(c) != 1000 {
		t.Fatalf("%d, %d, %d arrivals, want 1000", len(a), len(b), len(c))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("the same seed gave different schedules")
		}
		same = same && a[i] == c[i]
		if slot := time.Duration(i) * 10 * time.Millisecond; a[i] < slot || a[i] >= slot+10*time.Millisecond {
			t.Fatalf("arrival %d at %v outside its slot", i, a[i])
		}
	}
	if same {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestRequestMixExactShares(t *testing.T) {
	// Every seed draws the same composition: 5 analyze calls, 19 first
	// uses (the first reduce among them) and 15 v1 uploads in 100.
	orders := map[string]bool{}
	for seed := uint64(1); seed <= 20; seed++ {
		mix := requestMix(rand.New(rand.NewPCG(seed, 1)), 100, true)
		seen := map[serveKey]bool{}
		analyze, firsts, v1 := 0, 0, 0
		order := ""
		for i, rq := range mix {
			if rq.upload == 1 {
				v1++
			}
			if rq.analyze >= 0 {
				analyze++
				order += "a"
				continue
			}
			if !seen[rq.key] {
				if firsts == 0 && i != analyze {
					t.Errorf("seed %d: the first reduce (request %d) repeats a key", seed, i)
				}
				seen[rq.key] = true
				firsts++
			}
			order += fmt.Sprint(rq.key)
		}
		if analyze != 5 || firsts != 19 || v1 != 15 {
			t.Errorf("seed %d: %d analyze, %d first uses, %d v1 uploads; want 5, 19, 15", seed, analyze, firsts, v1)
		}
		orders[order] = true
	}
	if len(orders) != 20 {
		t.Errorf("20 seeds drew %d different mixes", len(orders))
	}
	// First uses stop once every key is used: the rest repeat.
	mix := requestMix(rand.New(rand.NewPCG(1, 1)), 2000, false)
	seen := map[serveKey]bool{}
	for _, rq := range mix {
		seen[rq.key] = true
	}
	if want := len(serveCatalog) * len(core.MethodNames) * 2; len(seen) != want {
		t.Errorf("2000 requests used %d keys, want all %d", len(seen), want)
	}
}

func TestBlockMedians(t *testing.T) {
	// Five blocks of 10 operations; one runs five times slower. The
	// medians are the steady blocks'.
	rec := &recorder{}
	for i := 0; i < 5; i++ {
		wall := 100 * time.Millisecond
		if i == 2 {
			wall *= 5
		}
		rec.blocks = append(rec.blocks, block{ops: 10, wall: wall, cpu: 20 * time.Millisecond, alloc: 3e6})
		rec.op(1, nil)
	}
	m := rec.result(io.Discard, 1, 0).Metrics
	if got := m["ops_per_s"].Value; got != 100 {
		t.Errorf("ops_per_s = %g, want 100", got)
	}
	if got := m["cpu_ms_per_op"].Value; got != 2 {
		t.Errorf("cpu_ms_per_op = %g, want 2", got)
	}
	if got := m["alloc_mb_per_op"].Value; got != 0.3 {
		t.Errorf("alloc_mb_per_op = %g, want 0.3", got)
	}
	if res := (&recorder{}).result(io.Discard, 1, 0); res.Correct {
		t.Error("a run without blocks or operations was reported correct")
	}
}

func TestParallelUntil(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	err := parallel(100, func(i int) error {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		if i == 7 {
			return fmt.Errorf("index %d", i)
		}
		return nil
	})
	if len(seen) != 100 || err == nil || err.Error() != "index 7" {
		t.Errorf("parallel ran %d indexes and returned %v", len(seen), err)
	}
	calls := 0
	_ = parallelUntil(time.Now().Add(-time.Second), 100, func(int) error {
		mu.Lock()
		calls++
		mu.Unlock()
		return nil
	})
	if calls != 0 {
		t.Errorf("parallelUntil past its deadline ran %d calls", calls)
	}
}

func TestFailRatioCounts429AndWrongBytes(t *testing.T) {
	want := []byte("TRR2 reference")
	ok := http.Header{}
	for k, v := range map[string]string{
		"X-Tracered-Method": "avgWave", "X-Tracered-Threshold": "0.2",
		"X-Tracered-Match": "exact", "X-Tracered-Format": "v2",
	} {
		ok.Set(k, v)
	}
	degraded := ok.Clone()
	degraded.Set("X-Tracered-Degraded", "threshold,match")
	replies := []struct {
		status int
		h      http.Header
		body   []byte
		fails  bool
	}{
		{http.StatusOK, ok, want, false},
		{http.StatusTooManyRequests, http.Header{}, []byte("too many concurrent reductions"), true},
		{http.StatusOK, ok, []byte("TRR2 referencf"), true},
		{http.StatusOK, degraded, want, true},
	}
	rec := &recorder{}
	lr := newLayerRun("test")
	for i, r := range replies {
		err := checkReduceReply(r.status, r.h, r.body, "avgWave", 0.2, 2, want)
		if (err != nil) != r.fails {
			t.Errorf("reply %d: error %v, want failure %v", i, err, r.fails)
		}
		rec.op(1, err)
		lr.check(err)
	}
	rec.blocks = []block{{ops: 4, wall: time.Second}}
	res := rec.result(io.Discard, 1, 0)
	if res.Attempted != 4 || res.Failed != 3 || res.Correct {
		t.Errorf("untraced result: %d attempted, %d failed, correct %v", res.Attempted, res.Failed, res.Correct)
	}
	if got := lr.result(io.Discard).Metrics["fail_ratio"].Value; got != 0.75 {
		t.Errorf("fail_ratio = %g, want 0.75", got)
	}
	if err := checkReduced(job{method: "avgWave", threshold: 0.2}.policy(), core.MatchModeExact, []byte("x"), 1, 1, 1, 1,
		&reference{body: []byte("y"), stored: 1, matches: 1, possible: 1, segments: 1}); err == nil {
		t.Error("a wrong exact-mode body passed the check")
	}
}

// benchmarkFile is the part of BENCHMARK.json the names are checked
// against.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no driver", w.Name)
		}
	}
	if len(bf.Workloads) != len(workloads)-1 || slices.Contains(declared, "tight_halo") {
		t.Errorf("BENCHMARK.json declares %v; want every driver but tight_halo", declared)
	}
	e2e := rec0().Metrics
	layer := newLayerRun("test").result(io.Discard).Metrics
	for _, group := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		printed  map[string]metric
	}{{"end_to_end", bf.EndToEnd, e2e}, {"per_layer", bf.PerLayer, layer}} {
		names := map[string]bool{}
		for _, m := range group.declared {
			declared = append(declared, m.Name)
			names[m.Name] = true
			p, ok := group.printed[m.Name]
			if !ok {
				t.Errorf("%s metric %q is declared but not printed", group.what, m.Name)
			} else if p.Unit != m.Unit {
				t.Errorf("%s metric %q: printed unit %q, declared %q", group.what, m.Name, p.Unit, m.Unit)
			}
		}
		for n := range group.printed {
			if !names[n] {
				t.Errorf("%s metric %q is printed but not declared", group.what, n)
			}
		}
	}
	sort.Strings(declared)
	for i, n := range declared {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if i > 0 && declared[i-1] == n {
			t.Errorf("name %q is used twice", n)
		}
	}
}

func rec0() *result {
	r := &recorder{}
	r.op(1, nil)
	return r.result(io.Discard, 1, 0)
}

func TestPartitionCells(t *testing.T) {
	cells := eval.StudyCells()
	got := partitionCells(cells, rand.New(rand.NewPCG(1, 2)))
	part := len(cells) / gridParts
	seen := map[eval.Cell]bool{}
	per := make([]map[string]int, gridParts)
	for i, c := range got {
		seen[c] = true
		p := min(i/part, gridParts-1)
		if per[p] == nil {
			per[p] = map[string]int{}
		}
		per[p][c.Workload]++
	}
	if len(got) != len(cells) || len(seen) != len(cells) {
		t.Fatalf("%d cells out, %d distinct, for %d in", len(got), len(seen), len(cells))
	}
	for _, w := range eval.AllNames() {
		lo, hi := per[0][w], per[0][w]
		for _, m := range per {
			lo, hi = min(lo, m[w]), max(hi, m[w])
		}
		if hi-lo > 1 {
			t.Errorf("%s: %d to %d cells per part, want at most one apart", w, lo, hi)
		}
	}
}

func TestCheckRanking(t *testing.T) {
	if err := checkRanking(eval.DefaultCell("halo_jitter", "avgWave"), false); err != nil {
		t.Error(err)
	}
	if err := checkRanking(eval.DefaultCell("halo_jitter", "manhattan"), false); err == nil {
		t.Error("manhattan losing halo_jitter passed the ranking contract")
	}
	if err := checkRanking(eval.DefaultCell("late_sender", "relDiff"), false); err != nil {
		t.Error("relDiff is not part of the contract:", err)
	}
	if err := checkRanking(eval.DefaultCell("late_sender", "haarWave"), true); err != nil {
		t.Error(err)
	}
}
