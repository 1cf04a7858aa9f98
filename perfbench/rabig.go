package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/parser"
)

// ra-big: one large robustness check, where the per-transition kernel
// does nearly all the work. The generated ticket lock with 5 threads and
// 2 rounds is robust against RA; the Workers: 1 path explores in a
// deterministic BFS order.

// raBigSource is the ra-big input program.
func raBigSource() string { return litmus.TicketlockSrc(5, 2) }

// raBigOptions are the rocker CLI defaults (abstract values, partial-order
// reduction) on the sequential engine.
func raBigOptions() core.Options {
	return core.Options{AbstractVals: true, Reduce: true, Workers: 1}
}

// raBigRobust is the known verdict of the ra-big program; the generated
// program has no litmus entry carrying it.
const raBigRobust = true

type raBig struct {
	program *lang.Program
}

func setupRABig(uint64) (instance, error) {
	p, err := parser.Parse(raBigSource())
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &raBig{program: p}, nil
}

func (w *raBig) close() {}

func (w *raBig) pass(tr *tracer, root int32) passResult {
	var r passResult
	start := time.Now()
	id := tr.begin(root, "core.Verify")
	v, err := core.Verify(w.program, raBigOptions())
	tr.end(id)
	r.wall = time.Since(start)
	r.attempted = 1
	switch {
	case err != nil:
		r.fail("ra-big: %v", err)
	case v.Robust != raBigRobust:
		r.fail("ra-big: robust = %v, want %v", v.Robust, raBigRobust)
	default:
		r.states = int64(v.States)
	}
	if tr != nil {
		r.layer = map[string]metric{
			"core.states":   {float64(r.states), "count"},
			"core.verify_s": {tr.dur(id).Seconds(), "s"},
		}
	}
	return r
}
