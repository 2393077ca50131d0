package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/ats"
	"repro/internal/core"
	"repro/internal/mpisim"
	"repro/internal/sweep3d"
	"repro/internal/trace"
	"repro/tracered"
)

// job is one file reduction: a method at a threshold under a match mode.
type job struct {
	method    string
	threshold float64
	mode      core.MatchMode
}

func (j job) policy() core.Policy {
	p, err := core.NewMethod(j.method, j.threshold)
	if err != nil {
		panic(err) // the job tables below name only valid methods
	}
	return p
}

func (j job) key() string { return fmt.Sprintf("%s@%g", j.method, j.threshold) }

// fileWorkload reduces one seeded trace container, TRC2 in and TRR2
// out, once per job in turn: the library user's file-to-file path. The
// container lives in memory so disk speed stays out of the figures.
type fileWorkload struct {
	gen  func(seed uint64) (*trace.Trace, error)
	jobs []job
	// blockCycles is how many cycles over jobs one timed block holds:
	// enough for a block of about half a second. chunkCycles is how many
	// make one chunk of the latency figures: enough for a tail
	// percentile above the median (tailPercentile).
	blockCycles, chunkCycles int

	input []byte
	refs  map[string]*reference
}

// pipelineSweep3DJobs: avgWave at its paper default, the CLI default.
var pipelineSweep3DJobs = []job{{"avgWave", 0.2, core.MatchModeExact}}

func newPipelineSweep3D() workload {
	return &fileWorkload{gen: genSweep3D, jobs: pipelineSweep3DJobs, blockCycles: 24, chunkCycles: 240}
}

// genSweep3D simulates Sweep3D at the paper's input.150 size (32 ranks,
// about 97k events); the seed reaches it only as the kernel-jitter seed.
func genSweep3D(seed uint64) (*trace.Trace, error) {
	c := sweep3d.Input150()
	c.Seed = seed
	return sweep3d.Run("sweep3d_32p", c)
}

// tightHaloJobs are the tightest sweep point of each method the study
// can hold to a threshold, each under exact and auto matching.
var tightHaloJobs = func() []job {
	var jobs []job
	for _, j := range []job{
		{method: "relDiff", threshold: 0.1}, {method: "manhattan", threshold: 0.1},
		{method: "euclidean", threshold: 0.1}, {method: "absDiff", threshold: 10},
		{method: "avgWave", threshold: 0.2},
	} {
		for _, mode := range []core.MatchMode{core.MatchModeExact, core.MatchModeAuto} {
			j.mode = mode
			jobs = append(jobs, j)
		}
	}
	return jobs
}()

func newTightHalo() workload {
	return &fileWorkload{gen: genTightHalo, jobs: tightHaloJobs, blockCycles: 1, chunkCycles: 10}
}

// haloParams size the halo-exchange trace: 16 ranks, 1500 iterations,
// 6% base jitter (the benchmark quadruples it to about 24%).
var haloParams = ats.Params{Ranks: 16, Iterations: 1500, Work: 1000, Severity: 500, Bytes: 4096, JitterPct: 6}

// genTightHalo simulates the jittered halo exchange; the seed reaches it
// only through the simulator's Noise, which stretches compute phases.
func genTightHalo(seed uint64) (*trace.Trace, error) {
	b := ats.HaloJitter(haloParams)
	cfg := b.Config
	cfg.Noise = seededNoise{seed: seed, pct: 2}
	return mpisim.Run(b.Program, cfg)
}

// seededNoise stretches each compute phase by a pseudo-random 0..pct
// percent drawn from (seed, rank, start): system interference that
// differs per seed but has the same distribution for every seed.
type seededNoise struct {
	seed uint64
	pct  int64
}

func (n seededNoise) Stretch(rank int, start, dur int64) int64 {
	h := rand.NewPCG(n.seed, uint64(rank)<<40^uint64(start))
	return dur + dur*int64(h.Uint64()%uint64(n.pct*100+1))/10000
}

func (w *fileWorkload) setup(seed uint64) error {
	t, err := w.gen(seed)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := trace.EncodeV2With(&buf, t, trace.EncoderOptions{}); err != nil {
		return err
	}
	w.input = buf.Bytes()
	var keys []job
	seen := map[string]bool{}
	for _, j := range w.jobs {
		if !seen[j.key()] {
			seen[j.key()] = true
			keys = append(keys, j)
		}
	}
	refs := make([]*reference, len(keys))
	err = parallel(len(keys), func(i int) error {
		r, err := exactReference(t, keys[i].policy(), 2)
		if err == nil {
			refs[i] = r[0]
		}
		return err
	})
	if err != nil {
		return err
	}
	w.refs = map[string]*reference{}
	for i, j := range keys {
		w.refs[j.key()] = refs[i]
	}
	return nil
}

func (w *fileWorkload) close() {}

// reduceFile is one operation through the real entry points: open the
// container with tracered.NewTraceDecoderWith and run the pipelined
// tracered.ReduceStreamToWriterOpts into a TRR2 buffer.
func (w *fileWorkload) reduceFile(j job) error {
	dec, err := tracered.NewTraceDecoderWith(bytes.NewReader(w.input), tracered.DecoderOptions{})
	if err != nil {
		return err
	}
	defer dec.Close()
	var out bytes.Buffer
	p := j.policy()
	st, err := tracered.ReduceStreamToWriterOpts(dec, p, &out, tracered.FormatV2, tracered.StreamOptions{Mode: j.mode})
	if err != nil {
		return err
	}
	return checkReduced(p, j.mode, out.Bytes(), st.StoredSegments, st.Matches, st.PossibleMatches, st.TotalSegments, w.refs[j.key()])
}

// measure runs blocks of whole cycles over the jobs, so every block
// holds the same work and every run weighs each job the same.
func (w *fileWorkload) measure(deadline time.Time, rec *recorder) {
	rec.chunkOps = w.chunkCycles * len(w.jobs)
	for time.Now().Before(deadline) {
		rec.timeBlock(w.blockCycles*len(w.jobs), func() {
			for range w.blockCycles {
				for _, j := range w.jobs {
					t0 := time.Now()
					err := w.reduceFile(j)
					rec.op(float64(time.Since(t0))/1e6, err)
				}
			}
		})
	}
}

// layeredFile is one operation layer by layer: decode, split, signature,
// match and encode, each a span under the operation's root.
func (w *fileWorkload) layeredFile(ot *opTrace, c *coreCounts, j job) error {
	name, next, err := decodedRanks(ot, 0, w.input, c)
	if err != nil {
		return err
	}
	p := j.policy()
	red, err := layeredReduce(ot, 0, name, p, j.mode, next, c)
	if err != nil {
		return err
	}
	var out bytes.Buffer
	sp := ot.open("trace.encode", 0)
	err = encodeReduced(&out, red, 2)
	ot.close(sp)
	if err != nil {
		return err
	}
	return checkReduced(p, j.mode, out.Bytes(), red.StoredSegments(), red.Matches, red.PossibleMatches, red.TotalSegments, w.refs[j.key()])
}

// layered runs each job traced, untraced, and through the real pipelined
// call, in whole cycles.
func (w *fileWorkload) layered(deadline time.Time, lr *layerRun) {
	for time.Now().Before(deadline) {
		for _, j := range w.jobs {
			for _, traced := range []bool{true, false} {
				lr.do(traced, "bench.op", func(ot *opTrace, c *coreCounts) error { return w.layeredFile(ot, c, j) })
			}
			t0 := time.Now()
			err := w.reduceFile(j)
			lr.pipeline(time.Since(t0), err)
		}
	}
}
