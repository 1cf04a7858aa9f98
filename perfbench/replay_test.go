package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/litmus"
)

// The kernel replay must walk the same state graph as the sequential
// engine without reduction, or its per-call figures describe some other
// loop. Robust rows explore fully; a non-robust row stops at its first
// violation, as core.Verify does.
func TestReplayMatchesEngine(t *testing.T) {
	for _, name := range []string{fidelityRow, "peterson-ra", "MP", "SB"} {
		e, err := litmus.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		p := e.Program()
		st, err := replayKernel(p)
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		if st.stopped == e.RobustRA {
			t.Errorf("%s: replay stopped = %v, want %v", name, st.stopped, !e.RobustRA)
		}
		if !e.RobustRA {
			continue
		}
		v, err := core.Verify(p, core.Options{AbstractVals: true, Workers: 1})
		if err != nil {
			t.Fatalf("%s: verify: %v", name, err)
		}
		if st.states != v.States {
			t.Errorf("%s: replay %d states, core.Verify %d", name, st.states, v.States)
		}
		for k := 0; k < nKernel; k++ {
			if st.calls[k] == 0 {
				t.Errorf("%s: no %s calls", name, kernelNames[k])
			}
		}
	}
}
