package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/parser"
)

// The traced run: one traced pass of every workload (so every per-layer
// metric comes out whichever workload is named), the kernel replay of the
// ra-big state graph, and a few direct layer measurements. The named
// workload also runs one untraced pass, and the traced/untraced ratio of
// its pass times is the tracing overhead.

// layers are the repository modules the spans and self times are named
// after.
var layers = []string{
	"parser", "prog", "analysis", "scm", "explore", "core",
	"fence", "frontend", "model", "staterobust", "verkey", "service",
}

// fidelityRow is the small robust row on which the kernel replay's state
// count must equal core.Verify's without reduction.
const fidelityRow = "lamport2-ra"

func runTraced(sel workload, seed uint64, spansPath string) (*result, error) {
	res := &result{Correct: true}
	m := map[string]metric{}
	tr := newTracer()

	// The untraced pass of the named workload, for the overhead figure.
	inst, err := sel.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", sel.name, err)
	}
	plain := measuredPass(inst, nil, -1)
	inst.close()
	tally(res, plain)

	var selTraced passResult
	var raBigWall time.Duration
	for _, w := range workloads {
		inst, err := w.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		root := tr.begin(-1, "bench."+w.name)
		r := measuredPass(inst, tr, root)
		tr.end(root)
		inst.close()
		tally(res, r)
		for k, v := range r.layer {
			m[k] = v
		}
		if w.name == "ra-big" {
			raBigWall = r.wall
			if r.states > 0 {
				m["core.bytes_per_state"] = metric{float64(r.peak) / float64(r.states), "B"}
			}
		}
		if w.name == sel.name {
			selTraced = r
		}
	}
	// Passes may differ in size (the traced service pass is longer), so
	// compare time per operation.
	m["trace.overhead_frac"] = metric{perOp(selTraced)/perOp(plain) - 1, "frac"}

	// ra-big at two engine workers against the one-worker traced pass.
	p := parser.MustParse(raBigSource())
	opts := raBigOptions()
	opts.Workers = 2
	id := tr.begin(-1, "core.Verify")
	v, err := core.Verify(p, opts)
	tr.end(id)
	res.Attempted++
	if err != nil || !v.Robust {
		res.Failed++
		res.Correct = false
		fmt.Fprintf(os.Stderr, "  FAIL ra-big at 2 workers: %v\n", err)
	}
	m["core.scaling_w2"] = metric{raBigWall.Seconds() / tr.dur(id).Seconds(), "x"}

	kernel, ok := kernelMetrics(p, m)
	res.Attempted += 2
	if !ok {
		res.Failed++
		res.Correct = false
	}
	if !replayFidelity() {
		res.Failed++
		res.Correct = false
	}

	setupPerCall, analyzeUs, err := smallCallCosts(tr)
	if err != nil {
		return nil, err
	}
	m["core.setup_us_per_call"] = metric{setupPerCall, "us"}
	m["analysis.analyze_us"] = metric{analyzeUs, "us"}

	spans := tr.snapshot()
	self := selfTimes(spans)
	for k, ns := range kernel.ns {
		self[span{Name: kernelNames[k]}.layer()] += time.Duration(ns)
	}
	for _, l := range layers {
		m[l+".self_s"] = metric{self[l].Seconds(), "s"}
	}
	m["trace.spans"] = metric{float64(len(spans)), "count"}
	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	res.Metrics = m
	fmt.Fprintf(os.Stderr, "perfbench traced run (%s, seed %d): %d spans written to %s\n", sel.name, seed, len(spans), spansPath)
	printMetrics(m)
	return res, nil
}

func perOp(r passResult) float64 { return r.wall.Seconds() / float64(r.attempted) }

// kernelMetrics replays the ra-big state graph and records the kernel
// figures into m. It reports false if the replay stopped early (ra-big is
// robust, so it must not).
func kernelMetrics(p *lang.Program, m map[string]metric) (*replayStats, bool) {
	timer := timerOverhead()
	st, err := replayKernel(p)
	if err != nil || st.stopped {
		fmt.Fprintf(os.Stderr, "  FAIL kernel replay of ra-big stopped early: %v\n", err)
		return &replayStats{}, false
	}
	for k := 0; k < nKernel; k++ {
		m[kernelNames[k]+"_ns"] = metric{st.nsPerCall(k, timer), "ns"}
		m[kernelNames[k]+"_per_state"] = metric{float64(st.calls[k]) / float64(st.expanded), "count"}
	}
	m["explore.key_bytes"] = metric{float64(st.keyBytes) / float64(st.states), "B"}
	m["explore.replay_states"] = metric{float64(st.states), "count"}
	m["trace.timer_ns"] = metric{timer, "ns"}
	return st, true
}

// replayFidelity checks that the kernel replay walks the same graph as
// the real engine: on an uncapped small robust row, its state count must
// equal core.Verify's without reduction on the sequential engine.
func replayFidelity() bool {
	e, err := litmus.Get(fidelityRow)
	if err != nil {
		fmt.Fprintln(os.Stderr, "  FAIL replay fidelity:", err)
		return false
	}
	p := e.Program()
	st, err := replayKernel(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "  FAIL replay fidelity:", err)
		return false
	}
	v, err := core.Verify(p, core.Options{AbstractVals: true, Workers: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "  FAIL replay fidelity:", err)
		return false
	}
	if st.stopped || st.states != v.States {
		fmt.Fprintf(os.Stderr, "  FAIL replay fidelity on %s: replay %d states (stopped %v), core.Verify %d\n",
			fidelityRow, st.states, st.stopped, v.States)
		return false
	}
	fmt.Fprintf(os.Stderr, "  replay fidelity on %s: %d states, as core.Verify\n", fidelityRow, st.states)
	return true
}

// smallCallCosts measures the fixed cost of one oracle-sized core.Verify
// call (set-up plus the root expansion: a one-state bound stops it right
// after) and of analysis.Analyze, as medians over the lint-repair rows.
func smallCallCosts(tr *tracer) (setupUs, analyzeUs float64, err error) {
	inst, err := setupLintRepair(0)
	if err != nil {
		return 0, 0, err
	}
	w := inst.(*lintRepair)
	const reps = 20
	var setups, analyses []float64
	opts := core.Options{AbstractVals: true, Workers: 1, MaxStates: 1}
	for _, row := range w.rows {
		for i := 0; i < reps; i++ {
			id := tr.begin(-1, "core.Verify")
			_, _ = core.Verify(row.program, opts) // a state-bound error is the expected outcome
			tr.end(id)
			setups = append(setups, float64(tr.dur(id))/1e3)
			id = tr.begin(-1, "analysis.Analyze")
			_ = analysis.Analyze(row.program)
			tr.end(id)
			analyses = append(analyses, float64(tr.dur(id))/1e3)
		}
	}
	return median(setups), median(analyses), nil
}
