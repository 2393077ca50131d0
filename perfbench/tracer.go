package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark
// around the public function it calls. Spans of one operation share op;
// parent indexes the enclosing span within the operation (-1 for the
// root). Calls too short to time one by one (a splitter Feed, a matcher
// Scan) are aggregated per rank: one span whose busy time is the sum of
// the calls and whose interval runs from the first call's start to the
// last call's end.
type span struct {
	name       string
	op         int64
	parent     int
	start, end int64 // ns since the tracer's epoch
	busy       int64 // covered time; end-start for a plain span
	calls      int64
	agg        bool
}

// tracer keeps every finished operation's spans in memory until the run
// ends. A tracer that is off records nothing and never reads the clock,
// so the same driver code measures the untraced baseline.
type tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// opTrace collects one operation's spans without locking; finish hands
// them to the tracer. One goroutine owns an opTrace.
type opTrace struct {
	t     *tracer
	op    int64
	spans []span
}

// begin opens an operation with its root span.
func (t *tracer) begin(op int64, root string) *opTrace {
	ot := &opTrace{t: t, op: op}
	ot.open(root, -1)
	return ot
}

// now is the tracer clock in ns, 0 when tracing is off.
func (ot *opTrace) now() int64 {
	if !ot.t.on {
		return 0
	}
	return int64(time.Since(ot.t.epoch))
}

// open starts a plain span under parent and returns its index.
func (ot *opTrace) open(name string, parent int) int {
	if !ot.t.on {
		return -1
	}
	ot.spans = append(ot.spans, span{name: name, op: ot.op, parent: parent, start: ot.now(), calls: 1})
	return len(ot.spans) - 1
}

// close ends plain span i.
func (ot *opTrace) close(i int) {
	if i < 0 {
		return
	}
	s := &ot.spans[i]
	s.end = ot.now()
	s.busy = s.end - s.start
}

// aggregate starts an aggregated span under parent; add feeds it calls.
func (ot *opTrace) aggregate(name string, parent int) int {
	if !ot.t.on {
		return -1
	}
	ot.spans = append(ot.spans, span{name: name, op: ot.op, parent: parent, start: -1, agg: true})
	return len(ot.spans) - 1
}

// add records one call [t0, t1) into aggregated span i.
func (ot *opTrace) add(i int, t0, t1 int64) {
	if i < 0 {
		return
	}
	s := &ot.spans[i]
	if s.start < 0 {
		s.start = t0
	}
	s.end = t1
	s.busy += t1 - t0
	s.calls++
}

// finish closes the root span and hands the operation to the tracer.
// Aggregated spans that saw no call are dropped.
func (ot *opTrace) finish() {
	if !ot.t.on {
		return
	}
	ot.close(0)
	ot.t.mu.Lock()
	base := len(ot.t.spans)
	remap := make([]int, len(ot.spans))
	for i, s := range ot.spans {
		if s.agg && s.calls == 0 {
			remap[i] = -1
			continue
		}
		if s.parent >= 0 {
			s.parent = remap[s.parent]
		}
		remap[i] = len(ot.t.spans) - base
		ot.t.spans = append(ot.t.spans, s)
	}
	// Parents were remapped op-locally; rebase them onto the tracer.
	for i := base; i < len(ot.t.spans); i++ {
		if p := ot.t.spans[i].parent; p >= 0 {
			ot.t.spans[i].parent = p + base
		}
	}
	ot.t.mu.Unlock()
}

// selfTimes returns each span's self time: its busy time minus the part
// of its interval that its children cover. Plain children cover the
// union of their intervals (overlapping children count once), clipped to
// the parent; aggregated children cover their busy time, since their
// calls ran one after another inside the parent.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var covered int64
		var iv [][2]int64
		for _, k := range kids[i] {
			c := spans[k]
			if c.agg {
				covered += c.busy
				continue
			}
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		covered += unionLength(iv)
		self[i] = max(s.busy-covered, 0)
	}
	return self
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerOf is the layer a span name belongs to: its prefix up to the
// first dot ("core.scan" is in core).
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerNames are the program's modules the benchmark times, plus bench
// for the driver's own glue between calls.
var layerNames = []string{"trace", "segment", "core", "expert", "eval", "serve", "bench"}

// selfByName sums self time (ns) per span name.
func selfByName(spans []span) map[string]int64 {
	st := selfTimes(spans)
	self := map[string]int64{}
	for i, s := range spans {
		self[s.name] += st[i]
	}
	return self
}

// writeLayerReport prints each layer's and each span's share of the
// summed self time — the layer-separation report of one traced run.
func writeLayerReport(w io.Writer, workload string, self map[string]int64, ops int64) {
	var total int64
	byLayer := map[string]int64{}
	names := make([]string, 0, len(self))
	for n, v := range self {
		total += v
		byLayer[layerOf(n)] += v
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Fprintf(w, "layer self time, %s, %d traced operations, %.3f ms/op in total\n",
		workload, ops, float64(total)/1e6/float64(max(ops, 1)))
	for _, l := range layerNames {
		fmt.Fprintf(w, "  %-8s %6.2f%%\n", l, 100*ratio(float64(byLayer[l]), float64(total)))
	}
	for _, n := range names {
		fmt.Fprintf(w, "    %-26s %6.2f%%  %10.4f ms/op\n", n,
			100*ratio(float64(self[n]), float64(total)), float64(self[n])/1e6/float64(max(ops, 1)))
	}
}

// writeSpans writes every span as one CSV row with a header, so a traced
// run can be queried column by column after it ends. parent is the row
// index of the enclosing span (-1 for a root), times are ns since the
// run's start, and self_ns is the span's self time.
func writeSpans(w io.Writer, spans []span) error {
	cw := csv.NewWriter(w)
	cw.Write([]string{"name", "op", "parent", "start_ns", "end_ns", "busy_ns", "calls", "aggregated", "self_ns"})
	self := selfTimes(spans)
	for i, s := range spans {
		cw.Write([]string{s.name, strconv.FormatInt(s.op, 10), strconv.Itoa(s.parent),
			strconv.FormatInt(s.start, 10), strconv.FormatInt(s.end, 10), strconv.FormatInt(s.busy, 10),
			strconv.FormatInt(s.calls, 10), strconv.FormatBool(s.agg), strconv.FormatInt(self[i], 10)})
	}
	cw.Flush()
	return cw.Error()
}
