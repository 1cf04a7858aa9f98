package main

import (
	"fmt"
	"time"

	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/model"
)

// models: the cross-model matrix on the generic product explorer and the
// staterobust/memtso/memra engines — the other user of the exploration
// machinery. state-ra is left out: it hits the 2M state bound on every row.

var modelRows = []string{
	"ticketlock4", "rcu-offline", "chase-lev-ra", "spinlock4", "chase-lev-sc",
	"lamport2-ra", "peterson-ra", "dekker-tso", "cilk-the-wsq-tso",
}

// modelModes are the modes run on every row, with the layer whose engine
// answers them (the span name prefix).
var modelModes = []struct{ mode, layer string }{
	{model.ModeTSO, "model"},
	{model.ModeStateTSO, "staterobust"},
	{model.ModeStateSRA, "staterobust"},
	{model.ModeSC, "model"},
}

// modelPins are the known verdicts where the litmus entry has no field
// for them: state robustness against SRA, and assertion safety under SC
// (these rows have no failing assertion). tso and state-tso are checked
// against the entry's RobustTSO.
var modelPins = map[string]map[string]bool{
	model.ModeStateSRA: {"chase-lev-sc": false},
}

// modelRunOpts are the rocker -models CLI defaults (reduction on, a 2M
// state bound per cell) on the sequential engines.
func modelRunOpts() model.RunOpts {
	return model.RunOpts{MaxStates: 2_000_000, Workers: 1, Reduce: true}
}

type modelCell struct {
	row, mode, layer string
	program          *lang.Program
	want             bool
}

type models struct {
	cells []modelCell
}

func setupModels(uint64) (instance, error) {
	w := &models{}
	for _, name := range modelRows {
		e, err := litmus.Get(name)
		if err != nil {
			return nil, err
		}
		p := e.Program()
		for _, m := range modelModes {
			want := true
			switch m.mode {
			case model.ModeTSO, model.ModeStateTSO:
				want = e.RobustTSO
			default:
				if v, ok := modelPins[m.mode][name]; ok {
					want = v
				}
			}
			w.cells = append(w.cells, modelCell{name, m.mode, m.layer, p, want})
		}
	}
	return w, nil
}

func (w *models) close() {}

func (w *models) pass(tr *tracer, root int32) passResult {
	var r passResult
	perMode := map[string]time.Duration{}
	states := map[string]int64{}
	start := time.Now()
	for _, c := range w.cells {
		t := time.Now()
		id := tr.begin(root, c.layer+"."+c.mode)
		res, err := model.Run(c.mode, c.program, modelRunOpts())
		tr.end(id)
		d := time.Since(t)
		r.attempted++
		switch {
		case err != nil:
			r.fail("models %s %s: %v", c.row, c.mode, err)
		case res.Robust != c.want:
			r.fail("models %s %s: robust = %v, want %v", c.row, c.mode, res.Robust, c.want)
		default:
			r.states += int64(res.States)
			states[c.mode] += int64(res.States)
		}
		perMode[c.mode] += d
	}
	r.wall = time.Since(start)
	if tr != nil {
		r.layer = map[string]metric{}
		for _, m := range modelModes {
			key := fmt.Sprintf("%s.%s", m.layer, m.mode)
			r.layer[key+".check_s"] = metric{perMode[m.mode].Seconds(), "s"}
			r.layer[key+".states"] = metric{float64(states[m.mode]), "count"}
		}
	}
	return r
}
