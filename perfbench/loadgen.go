package main

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// pacedSchedule returns the due times of n requests of an open-loop
// arrival process at rate requests per second: request i is due at a
// seeded uniform point of the i-th 1/rate slot. Bursts are bounded to
// two requests per slot, so the same seed gives the same schedule and
// every seed offers the same load.
func pacedSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	slot := float64(time.Second) / rate
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration((float64(i) + rng.Float64()) * slot)
	}
	return due
}

// loadResult is what one open-loop run observed.
type loadResult struct {
	// LatencyMS is each request's time from when it was due to when its
	// reply was checked; Err is why the reply was wrong, nil when right.
	LatencyMS []float64
	Err       []error
	// LagMax is how late the generator released a request past its due
	// time; BacklogMax is the most requests due but not yet sent.
	LagMax     time.Duration
	BacklogMax int
	Backlog    []int // queued-not-sent count sampled at each release
}

// openLoop releases request i at due[i] after the start, whatever the
// system under test is doing, and sends released requests on conns
// workers. send checks the reply and returns why it was wrong; done, when
// not nil, is told each request's latency and outcome as it completes. A
// stalled system therefore builds a queue instead of slowing the
// generator, and each request's latency counts the time it sat in that
// queue.
func openLoop(due []time.Duration, conns int, send func(i int) error, done func(i int, ms float64, err error)) *loadResult {
	res := &loadResult{
		LatencyMS: make([]float64, len(due)),
		Err:       make([]error, len(due)),
		Backlog:   make([]int, 0, len(due)),
	}
	queue := make(chan int, len(due)) // sized to the sends: release never blocks
	var sent atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				sent.Add(1)
				err := send(i)
				ms := float64(time.Since(start.Add(due[i]))) / 1e6
				res.LatencyMS[i], res.Err[i] = ms, err
				if done != nil {
					done(i, ms, err)
				}
			}
		}()
	}
	for i, d := range due {
		if wait := time.Until(start.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
		if lag := time.Since(start.Add(d)); lag > res.LagMax {
			res.LagMax = lag
		}
		queue <- i
		b := i + 1 - int(sent.Load())
		res.Backlog = append(res.Backlog, b)
		res.BacklogMax = max(res.BacklogMax, b)
	}
	close(queue)
	wg.Wait()
	return res
}

// growingBacklog reports whether a backlog sampled over a run grew: the
// mean of its last quarter exceeds twice the mean of its first quarter
// plus the connection count. A server keeping up holds the backlog near
// zero with bursts of about conns; one falling behind accumulates a
// queue that the last quarter shows.
func growingBacklog(samples []int, conns int) bool {
	n := len(samples) / 4
	if n == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	first, last := mean(samples[:n]), mean(samples[len(samples)-n:])
	return last > 2*first+float64(conns)
}
