// Command perfbench is the repository's benchmark. One run builds seeded
// inputs for one workload, drives them through the library's and the
// service's public entry points for a fixed time, checks every output
// against a reference computed during set-up, and prints its metrics as
// the last line of standard output:
//
//	go run . --workload pipeline_sweep3d --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the same inputs are driven layer by layer through the
// public functions of each module, with spans recorded around every call
// (tracer.go), and the metrics are per-layer self times and counters; the
// spans are also written to .bench_build/spans/WORKLOAD-seedN.csv.
// The workloads and the reasons they were chosen are in BENCHMARK.json
// at the repository root; run.sh builds and runs this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one seeded input set and the drivers that exercise it.
type workload interface {
	// setup builds the seeded inputs and every reference output.
	setup(seed uint64) error
	// measure drives the real entry points untraced until deadline,
	// recording each operation and timing fixed blocks of them.
	measure(deadline time.Time, rec *recorder)
	// layered drives the same inputs layer by layer until deadline,
	// alternating operations with tracing on and off.
	layered(deadline time.Time, lr *layerRun)
	// close stops whatever setup started.
	close()
}

// workloads maps each workload name to its constructor. BENCHMARK.json
// lists all but tight_halo, the stress of the matcher's scan and its
// indexes: the three it lists cover every layer, and with four a run of
// each would be too short to give steady figures on a small shared
// host. tight_halo runs by name like the others.
var workloads = map[string]func() workload{
	"pipeline_sweep3d": newPipelineSweep3D,
	"tight_halo":       newTightHalo,
	"study_grid":       newStudyGrid,
	"serve_mixed":      newServeMixed,
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, names)
		os.Exit(2)
	}
	if *name == "serve_mixed" {
		// The service runs on one P. On the two-vCPU Xeon VM the
		// benchmark was tuned on, the p90 latency of requests spread
		// over both vCPUs moved by up to half from one part of a run to
		// the next, and by about a tenth on one P. A file reduction, busy
		// without pause, was no steadier on one P: it ran at one of two
		// speeds, by the vCPU it was on.
		runtime.GOMAXPROCS(1)
	}
	res, err := run(*name, mk, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// run sets the workload up setupRepeats times, then measures it.
func run(name string, mk func() workload, seed uint64, d time.Duration, traced bool, out io.Writer) (*result, error) {
	var w workload
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		w = mk()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	runtime.GC()
	if traced {
		lr := newLayerRun(name)
		w.layered(time.Now().Add(d), lr)
		if err := saveSpans(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.csv", name, seed)), lr.on.spans); err != nil {
			return nil, err
		}
		return lr.result(out), nil
	}
	rec := &recorder{}
	heap := startHeapProbe()
	w.measure(time.Now().Add(d), rec)
	return rec.result(out, median(setups), heap.stop()), nil
}

// parallel runs f(0..n-1) on at most GOMAXPROCS goroutines, which claim
// indexes in order, and returns the first error.
func parallel(n int, f func(i int) error) error {
	return parallelUntil(time.Time{}, n, f)
}

// parallelUntil is parallel that claims no index once deadline has
// passed; a zero deadline never passes.
func parallelUntil(deadline time.Time, n int, f func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for g := 0; g < min(n, runtime.GOMAXPROCS(0)); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// saveSpans writes a traced run's spans to path (see writeSpans).
func saveSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// recorder collects the untraced run's operations. Latency comes from
// the operations op records; throughput, CPU and allocation per
// operation come from blocks, each a fixed amount of work timed as a
// whole (timeBlock).
type recorder struct {
	mu        sync.Mutex
	latencyMS []float64
	blocks    []block
	attempted int64
	failed    int64
	failures  []string
	// chunkOps is how many consecutive operations make one chunk of the
	// latency figures (summarizeChunks); each workload fixes it.
	chunkOps int
}

// block is one fixed amount of work: the operations it completed and
// the wall time, process CPU time and heap bytes allocated over it.
type block struct {
	ops   int64
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

// op records one timed operation: its latency and, when it failed, why.
func (r *recorder) op(ms float64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.latencyMS = append(r.latencyMS, ms)
	r.count(err)
}

// outcome records one checked operation whose latency is not part of
// the latency figures.
func (r *recorder) outcome(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.count(err)
}

// count tallies one operation; r.mu must be held.
func (r *recorder) count(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// timeBlock runs f, which completes ops operations, and records it as
// one block.
func (r *recorder) timeBlock(ops int, f func()) {
	cpu0, alloc0, t0 := cpuTime(), readMetric(heapAllocs), time.Now()
	f()
	b := block{ops: int64(ops), wall: time.Since(t0), cpu: cpuTime() - cpu0, alloc: readMetric(heapAllocs) - alloc0}
	r.mu.Lock()
	r.blocks = append(r.blocks, b)
	r.mu.Unlock()
}

// result computes the end-to-end metrics. Latencies are summarized per
// chunk of the run (summarizeChunks); throughput, CPU and allocation
// per operation are medians over the run's blocks. Every block holds
// the same work, so a slowdown of the host that covers less than half
// the blocks moves none of these figures, where it would move a
// whole-run figure by its share of the run; the whole-run figures are
// printed beside them.
func (r *recorder) result(out io.Writer, setupS float64, peakHeap uint64) *result {
	lat := summarizeChunks(r.latencyMS, r.chunkOps)
	for _, f := range r.failures {
		fmt.Fprintln(out, "failed:", f)
	}
	over := fmt.Sprintf("medians over %d chunks of %d of each chunk's", lat.Chunks, lat.Samples)
	if lat.Chunks == 0 {
		over = fmt.Sprintf("the %d samples'", lat.Samples)
	}
	fmt.Fprintf(out, "%d operations, %d failed; op_ms_p50 and op_ms_tail are %s median and p%g (%d samples beyond it)\n",
		r.attempted, r.failed, over, lat.TailPct, lat.TailBeyond)
	fmt.Fprintf(out, "chunk p50 ms: %.4g\nchunk tail ms: %.4g\n", lat.ChunkP50s, lat.ChunkTails)
	var rates, cpus, allocs []float64
	var ops int64
	var wall, cpu time.Duration
	for _, b := range r.blocks {
		rates = append(rates, float64(b.ops)/b.wall.Seconds())
		cpus = append(cpus, b.cpu.Seconds()*1e3/float64(b.ops))
		allocs = append(allocs, float64(b.alloc)/1e6/float64(b.ops))
		ops, wall, cpu = ops+b.ops, wall+b.wall, cpu+b.cpu
	}
	fmt.Fprintf(out, "block ops/s: %.4g\nblock CPU ms/op: %.4g\n", rates, cpus)
	fmt.Fprintf(out, "%d blocks of %d operations: %.4f ops/s, %.4f CPU ms/op over all of them\n",
		len(r.blocks), ops, ratio(float64(ops), wall.Seconds()), ratio(cpu.Seconds()*1e3, float64(ops)))
	return &result{
		Correct:   r.failed == 0 && len(r.latencyMS) > 0 && len(r.blocks) > 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics: map[string]metric{
			"setup_s":         {setupS, "s"},
			"ops_per_s":       {median(rates), "1/s"},
			"op_ms_p50":       {lat.P50, "ms"},
			"op_ms_tail":      {lat.Tail, "ms"},
			"cpu_ms_per_op":   {median(cpus), "ms"},
			"alloc_mb_per_op": {median(allocs), "MB"},
			"peak_heap_mb":    {float64(peakHeap) / 1e6, "MB"},
		},
	}
}

const (
	heapLive   = "/gc/heap/live:bytes"
	heapAllocs = "/gc/heap/allocs:bytes"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for a bad "who" argument
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapProbe samples the heap every few milliseconds while the timed
// phase runs. The peak it reports is the largest live heap the
// collector marked: unlike the heap's momentary size it does not depend
// on when collections happen to run.
type heapProbe struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapProbe() *heapProbe {
	p := &heapProbe{stopc: make(chan struct{}), done: make(chan uint64)}
	go func() {
		peak := readMetric(heapLive)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stopc:
				p.done <- max(peak, readMetric(heapLive))
				return
			case <-tick.C:
				peak = max(peak, readMetric(heapLive))
			}
		}
	}()
	return p
}

// stop ends the probe and returns the peak live heap in bytes.
func (p *heapProbe) stop() uint64 {
	close(p.stopc)
	return <-p.done
}
