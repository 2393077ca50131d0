package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/eval"
	"repro/internal/expert"
)

// studyGrid evaluates the full study grid (eval.StudyCells, 980 cells)
// on a warm eval.Runner: traces, full diagnoses and full sizes are built
// in setup, and every repetition drops the memoized cells and evaluates
// them again. The catalog traces are fixed; the seed reaches this
// workload only as the order in which cells are evaluated and timed.
//
// Cells are evaluated one at a time (Runner.SetWorkers(1)). On the
// two-vCPU Xeon VM the benchmark was tuned on, two workers raised grid
// throughput only about 1.3 times, and by how much depended on which
// cells happened to run side by side: over fifteen back-to-back grids in
// one process, two-worker throughput and per-cell median latency spread
// about twice as much as with one worker. One worker measures the
// cells' own cost; the collector still has the other vCPU.
type studyGrid struct {
	runner *eval.Runner
	cells  []eval.Cell
}

func newStudyGrid() workload { return &studyGrid{} }

func (g *studyGrid) setup(seed uint64) error {
	g.runner = eval.NewRunner()
	g.runner.SetWorkers(1)
	for _, w := range eval.AllNames() {
		if _, err := g.runner.Diagnosis(w); err != nil {
			return err
		}
		if _, err := g.runner.FullBytes(w); err != nil {
			return err
		}
	}
	g.cells = partitionCells(eval.StudyCells(), rand.New(rand.NewPCG(seed, 0x57d9)))
	return nil
}

// partitionCells orders cells as gridParts consecutive parts of equal
// size (for 980 cells) that hold about the same mix of cells: the cells
// of each workload, in StudyCells order, are dealt round robin over the
// parts, starting at a seeded part, and each part is then shuffled.
// Cell costs differ by an order of magnitude and the costly ones cluster
// in a few workloads, so parts drawn at random would differ in cost.
func partitionCells(cells []eval.Cell, rng *rand.Rand) []eval.Cell {
	byWorkload := map[string][]eval.Cell{}
	var order []string
	for _, c := range cells {
		if _, ok := byWorkload[c.Workload]; !ok {
			order = append(order, c.Workload)
		}
		byWorkload[c.Workload] = append(byWorkload[c.Workload], c)
	}
	parts := make([][]eval.Cell, gridParts)
	next := rng.IntN(gridParts)
	for _, w := range order {
		for _, c := range byWorkload[w] {
			parts[next%gridParts] = append(parts[next%gridParts], c)
			next++
		}
	}
	out := make([]eval.Cell, 0, len(cells))
	for _, p := range parts {
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		out = append(out, p...)
	}
	return out
}

func (g *studyGrid) close() {}

// checkRanking is the evalstudy -summary ranking contract, cell by cell:
// at their default thresholds manhattan and euclidean retain the full
// trace's diagnosis on all 20 workloads, and chebyshev, avgWave and
// haarWave on all but the adversarial halo_jitter scenario.
func checkRanking(c eval.Cell, retained bool) error {
	if c.Mode != core.MatchModeExact || c.Threshold != core.DefaultThresholds[c.Method] {
		return nil
	}
	var want bool
	switch c.Method {
	case "manhattan", "euclidean":
		want = true
	case "chebyshev", "avgWave", "haarWave":
		want = c.Workload != "halo_jitter"
	default:
		return nil
	}
	if retained != want {
		return fmt.Errorf("%s/%s: retained=%v, ranking contract wants %v", c.Workload, c.Method, retained, want)
	}
	return nil
}

// gridParts is how many consecutive parts of the cell order
// (partitionCells) one grid repetition is timed in, each part a block of
// the throughput figures. Parts (245 of the 980 cells, about a second
// and a half each) hold the same mix of cells, so they cost about the
// same, and a run holds enough of them that its medians pass over a
// slowdown of the host lasting a few seconds.
const gridParts = 4

// measure repeats the grid while time remains. Each repetition drops
// the memoized cells and times Runner.RunGrid over each part of the
// cells as one block — from cold cells to results in cell order — and
// checks each result; no block starts once the time is up. RunGrid
// reports no per-cell time, so a latency pass follows on cold cells
// again, if time remains: every cell in turn through Runner.Run, as
// RunGrid's one worker does, each timed as an operation of the latency
// figures. The costliest cells are few, so each pass covers the whole
// grid and is one chunk of those figures: a part's tail would depend on
// which of them it drew.
func (g *studyGrid) measure(deadline time.Time, rec *recorder) {
	part := len(g.cells) / gridParts
	rec.chunkOps = gridParts * part
	for time.Now().Before(deadline) {
		g.runner.ResetCells()
		for p := 0; p < gridParts && time.Now().Before(deadline); p++ {
			cells := g.cells[p*part : (p+1)*part]
			var results []*eval.Result
			var err error
			rec.timeBlock(len(cells), func() { results, err = g.runner.RunGrid(cells) })
			if err != nil {
				rec.outcome(fmt.Errorf("RunGrid: %w", err))
				return
			}
			for i, res := range results {
				rec.outcome(checkRanking(cells[i], res.Retained))
			}
		}
		if !time.Now().Before(deadline) {
			return
		}
		g.runner.ResetCells()
		for _, c := range g.cells[:gridParts*part] {
			t0 := time.Now()
			res, err := g.runner.Run(c)
			ms := float64(time.Since(t0)) / 1e6
			if err == nil {
				err = checkRanking(c, res.Retained)
			}
			rec.op(ms, err)
		}
	}
}

// layeredCell evaluates one cell as Runner.Run does — reduce, then score
// from the reduced form — with each layer's public function a span under
// the eval.cell root.
func (g *studyGrid) layeredCell(ot *opTrace, c *coreCounts, cell eval.Cell) error {
	full, err := g.runner.Trace(cell.Workload)
	if err != nil {
		return err
	}
	fullDiag, err := g.runner.Diagnosis(cell.Workload)
	if err != nil {
		return err
	}
	p, err := core.NewMethod(cell.Method, cell.Threshold)
	if err != nil {
		return err
	}
	red, err := layeredReduce(ot, 0, full.Name, p, cell.Mode, memoryRanks(full), c)
	if err != nil {
		return err
	}
	sp := ot.open("core.approx_distance", 0)
	_, err = core.ApproximationDistanceReduced(full, red, 0.9)
	ot.close(sp)
	if err != nil {
		return err
	}
	sp = ot.open("expert.analyze_reduced", 0)
	diag, err := expert.AnalyzeReduced(red)
	ot.close(sp)
	if err != nil {
		return err
	}
	verdict := cube.Compare(fullDiag, diag, cube.DefaultCompareOptions())
	_ = core.EncodedReducedSize(red) // the size criterion, computed as the runner does
	return checkRanking(cell, verdict.Retained)
}

// layered walks the cells in their seeded order, each once traced and
// once untraced, sequentially.
func (g *studyGrid) layered(deadline time.Time, lr *layerRun) {
	for i := 0; time.Now().Before(deadline); i++ {
		cell := g.cells[i%len(g.cells)]
		for _, traced := range []bool{true, false} {
			lr.do(traced, "eval.cell", func(ot *opTrace, c *coreCounts) error { return g.layeredCell(ot, c, cell) })
		}
	}
}
