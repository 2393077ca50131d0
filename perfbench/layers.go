package main

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// spanMetrics maps each per-layer self-time metric to the span it sums.
var spanMetrics = []struct{ metric, span string }{
	{"trace.decode_ms", "trace.decode"},
	{"trace.signature_ms", "trace.signature"},
	{"trace.encode_ms", "trace.encode"},
	{"segment.split_ms", "segment.split"},
	{"segment.sig_ms", "segment.sig"},
	{"core.scan_ms", "core.scan"},
	{"core.insert_ms", "core.insert"},
	{"core.absorb_ms", "core.absorb"},
	{"core.approx_distance_ms", "core.approx_distance"},
	{"expert.analyze_reduced_ms", "expert.analyze_reduced"},
	{"eval.cell_self_ms", "eval.cell"},
	{"serve.read_ms", "serve.read"},
	{"serve.cache_get_ms", "serve.cache_get"},
	{"serve.cache_put_ms", "serve.cache_put"},
	{"serve.fleet_wait_ms", "serve.fleet_wait"},
	{"bench.self_ms", "bench.op"},
}

// serveMetrics are the per-layer metrics only serve_mixed measures; the
// other workloads report them as 0.
var serveMetrics = []struct{ name, unit string }{
	{"hit_ms_p50", "ms"},
	{"miss_ms_p50", "ms"},
	{"max_rate_rps", "1/s"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.degraded", "count"},
	{"serve.bytes_out", "MB"},
	{"loadgen.lag_ms_max", "ms"},
	{"loadgen.backlog_max", "count"},
}

// layerRun collects a traced run: operations alternate between a tracer
// that records spans and one that is off, so the difference in their
// mean wall time is the tracing overhead.
type layerRun struct {
	workload string
	on, off  *tracer
	nextOp   atomic.Int64

	mu                  sync.Mutex
	counts              coreCounts
	tracedOps, plainOps int64
	tracedNS, plainNS   int64
	pipelineMS          []float64
	extra               map[string]float64
	attempted, failed   int64
	failures            []string
}

func newLayerRun(workload string) *layerRun {
	return &layerRun{workload: workload, on: newTracer(true), off: newTracer(false), extra: map[string]float64{}}
}

// do runs one layered operation under root, traced or not, and records
// its wall time, its decisions (traced operations only) and its outcome.
func (lr *layerRun) do(traced bool, root string, f func(ot *opTrace, c *coreCounts) error) {
	t := lr.off
	if traced {
		t = lr.on
	}
	var c coreCounts
	t0 := time.Now()
	ot := t.begin(lr.nextOp.Add(1), root)
	err := f(ot, &c)
	ot.finish()
	el := time.Since(t0).Nanoseconds()
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if traced {
		lr.counts.merge(c)
		lr.tracedOps++
		lr.tracedNS += el
	} else {
		lr.plainOps++
		lr.plainNS += el
	}
	lr.outcome(err)
}

// outcome counts one checked operation; lr.mu must be held.
func (lr *layerRun) outcome(err error) {
	lr.attempted++
	if err != nil {
		lr.failed++
		if len(lr.failures) < 5 {
			lr.failures = append(lr.failures, err.Error())
		}
	}
}

// check counts an operation checked outside do (the pipelined calls and
// the serve rate sweep).
func (lr *layerRun) check(err error) {
	lr.mu.Lock()
	lr.outcome(err)
	lr.mu.Unlock()
}

// pipeline records the wall time of one real pipelined reduce-to-writer
// call made next to the layered operations.
func (lr *layerRun) pipeline(d time.Duration, err error) {
	lr.mu.Lock()
	lr.pipelineMS = append(lr.pipelineMS, float64(d)/1e6)
	lr.outcome(err)
	lr.mu.Unlock()
}

// result turns the run into per-layer metrics and prints the
// layer-separation report.
func (lr *layerRun) result(out io.Writer) *result {
	for _, f := range lr.failures {
		fmt.Fprintln(out, "failed:", f)
	}
	spans := lr.on.spans
	self := selfByName(spans)
	ops := float64(max(lr.tracedOps, 1))
	perOp := func(ns int64) float64 { return float64(ns) / 1e6 / ops }
	m := map[string]metric{}
	for _, sm := range spanMetrics {
		m[sm.metric] = metric{perOp(self[sm.span]), "ms/op"}
	}
	c := lr.counts
	m["segment.segments"] = metric{float64(c.segments) / ops, "count/op"}
	m["trace.decode_ns_per_event"] = metric{ratio(float64(self["trace.decode"]), float64(c.events)), "ns"}
	m["core.scan_calls"] = metric{float64(c.segments) / ops, "count/op"} // every segment is scanned once
	m["core.reps_examined"] = metric{float64(c.repsExamined) / ops, "count/op"}
	m["core.indexed_scans"] = metric{float64(c.indexedScans) / ops, "count/op"}
	m["core.max_class_reps"] = metric{float64(c.maxClassReps), "count"}
	m["core.stored_reps"] = metric{float64(c.storedReps) / ops, "count/op"}
	m["core.match_ratio"] = metric{ratio(float64(c.matches), float64(c.possible)), "ratio"}
	pipe := append([]float64(nil), lr.pipelineMS...)
	m["core.pipeline_ms"] = metric{median(pipe), "ms"}

	var cells []float64
	for _, s := range spans {
		if s.name == "eval.cell" {
			cells = append(cells, float64(s.end-s.start)/1e6)
		}
	}
	m["eval.cell_ms_p50"] = metric{median(cells), "ms"}
	for _, sm := range serveMetrics {
		m[sm.name] = metric{lr.extra[sm.name], sm.unit}
	}
	m["fail_ratio"] = metric{ratio(float64(lr.failed), float64(lr.attempted)), "ratio"}
	tracedMean := ratio(float64(lr.tracedNS), float64(lr.tracedOps))
	plainMean := ratio(float64(lr.plainNS), float64(lr.plainOps))
	m["bench.tracing_overhead_pct"] = metric{100 * (ratio(tracedMean, plainMean) - 1), "%"}

	var total int64
	byLayer := map[string]int64{}
	for n, v := range self {
		total += v
		byLayer[layerOf(n)] += v
	}
	for _, l := range layerNames {
		m["layer."+l+"_pct"] = metric{100 * ratio(float64(byLayer[l]), float64(total)), "%"}
	}

	writeLayerReport(out, lr.workload, self, lr.tracedOps)
	if len(pipe) > 0 {
		fmt.Fprintf(out, "pipelined call %.3f ms (median of %d) against %.3f ms/op of layered self time\n",
			median(pipe), len(pipe), perOp(total))
	}
	fmt.Fprintf(out, "tracing overhead %.2f%% (%d traced, %d untraced layered operations)\n",
		m["bench.tracing_overhead_pct"].Value, lr.tracedOps, lr.plainOps)
	return &result{
		Correct:   lr.failed == 0 && lr.attempted > 0,
		Attempted: max(lr.attempted, 1),
		Failed:    lr.failed,
		Metrics:   m,
	}
}
