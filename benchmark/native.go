package main

import (
	"fmt"
	"os"
	"time"

	"repro/reactive"
)

// tally counts outcomes for the result line: every operation or check the
// run attempted, and every one that came out wrong.
type tally struct {
	attempted uint64
	failed    uint64
}

func (t *tally) fail(err error) {
	if err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "FAILED:", err)
	}
}

type implResult struct {
	Name   string    `json:"name"`
	NsOp   summary   `json:"ns_op"`
	Slices []float64 `json:"-"`
}

// primResult is one cell's outcome. Impls[0] is the reactive primitive.
type primResult struct {
	Prim        string       `json:"prim"`
	Impls       []implResult `json:"impls"`
	BestStatic  string       `json:"best_static"`
	VsStatic    float64      `json:"vs_static"` // reactive ÷ best static, midmeans over slices
	SwitchesPS  float64      `json:"switches_per_s"`
	FinalMode   float64      `json:"final_mode"`
	Graces      uint64       `json:"graces"`
	QuietGraces uint64       `json:"quiet_graces"`
}

// switchCount is every protocol change a primitive has committed, on
// either of RWMutex's engines.
func switchCount(s reactive.Stats) uint64 {
	n := s.Switches
	if s.Readers != nil {
		n += s.Readers.Switches
	}
	return n
}

// modeIndex is the position of the current mode on the primitive's own
// chain (for RWMutex: the reader registration chain, the one that moves).
func modeIndex(s reactive.Stats) float64 {
	m := s.Mode
	if s.Readers != nil {
		m = s.Readers.Mode
	}
	switch m {
	case reactive.ModeSpin, reactive.ModeCAS, reactive.ModeLocked:
		return 0
	case reactive.ModePark, reactive.ModeSharded:
		return 1
	case reactive.ModeCombining, reactive.ModeEpoch:
		return 2
	}
	return -1
}

// cellRun accumulates the slices of a set of cells over the run's rounds.
type cellRun struct {
	cells         []*cell
	g             int
	out           []primResult
	reactiveWall  []time.Duration
	startSwitches []uint64
}

func newCellRun(cells []*cell, g int) *cellRun {
	cr := &cellRun{cells: cells, g: g, out: make([]primResult, len(cells)),
		reactiveWall: make([]time.Duration, len(cells)), startSwitches: make([]uint64, len(cells))}
	for ci, c := range cells {
		cr.out[ci].Prim = c.prim
		cr.out[ci].Impls = make([]implResult, len(c.impls))
		for ii, im := range c.impls {
			cr.out[ci].Impls[ii].Name = im.name
		}
		cr.startSwitches[ci] = switchCount(c.impls[0].stats())
	}
	return cr
}

// implSlices is how many slices one round of cells runs.
func implSlices(cells []*cell) (n int) {
	for _, c := range cells {
		n += len(c.impls)
	}
	return n
}

// round runs one slice of every implementation of every cell, interleaved
// (reactive, static, reactive, ...) so host drift lands on all alike. An
// unrecorded round lets each primitive settle into the protocol its
// detection picks for the stream.
func (cr *cellRun) round(slice time.Duration, record bool, tr *tracer, tl *tally) {
	for ci, c := range cr.cells {
		for ii, im := range c.impls {
			end := tr.span("slice:" + c.prim + "/" + im.name)
			ops, wall := runSlice(cr.g, slice, tr, batchLoop(c.streams, im.batch))
			end()
			tl.attempted += ops
			if !record {
				continue
			}
			res := &cr.out[ci].Impls[ii]
			res.Slices = append(res.Slices, nsPerOp(ops, wall))
			if ii == 0 {
				cr.reactiveWall[ci] += wall
			}
		}
	}
}

// finish summarizes the recorded slices and checks every implementation's
// outputs. The check comes once, after the last slice: it reads the
// primitive (Counter.Load, FetchOp.Value), a read is a detection event,
// and checking between slices would steer the protocol under test.
func (cr *cellRun) finish(tl *tally) []primResult {
	for ci, c := range cr.cells {
		res := &cr.out[ci]
		for ii, im := range c.impls {
			res.Impls[ii].NsOp = summarize(res.Impls[ii].Slices)
			tl.fail(im.check())
		}
		best := 1
		for ii := 2; ii < len(res.Impls); ii++ {
			if res.Impls[ii].NsOp.Mid < res.Impls[best].NsOp.Mid {
				best = ii
			}
		}
		res.BestStatic = res.Impls[best].Name
		if d := res.Impls[best].NsOp.Mid; d > 0 {
			res.VsStatic = res.Impls[0].NsOp.Mid / d
		}
		st := c.impls[0].stats()
		if s := cr.reactiveWall[ci].Seconds(); s > 0 {
			res.SwitchesPS = float64(switchCount(st)-cr.startSwitches[ci]) / s
		}
		res.FinalMode = modeIndex(st)
		if c.impls[0].extra != nil {
			res.Graces, res.QuietGraces = c.impls[0].extra()
		}
	}
	return cr.out
}

// buildCells constructs the regime's five cells for g goroutines: op
// streams drawn, primitives built, maps seeded. It is part of set-up.
func buildCells(rg regime, seed uint64, g int) []*cell {
	return []*cell{
		mutexCell(seed, g, rg.mutexCS),
		rwmutexCell(seed, g, rg.rw),
		counterCell(seed, g, rg.counter),
		fetchopCell(seed, g, rg.fetchop),
		mapCell(seed, g, rg.kv),
	}
}
