package staterobust

import (
	"fmt"

	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/prog"
)

// ReplayWitness validates a WitnessTrace returned by CheckRA (sra false)
// or CheckSRA (sra true): the trace must be a feasible run of the §3
// timestamp machine, and the program state it ends in must not be
// SC-reachable. Returns nil when the witness checks out; ErrBound if the
// SC exploration needed for the final check exceeds lim.
//
// A trace records thread ids and labels but not timestamps, and the
// machine is not label-deterministic — a write label says nothing about
// the slot picked, a read label may be served by several messages with the
// same value. Program state, by contrast, IS label-deterministic. The
// replay therefore advances one program state and a *set* of candidate
// memory states: at each step every candidate is expanded by the RA
// adapter's successors carrying the recorded label (the enumeration
// checkWeakRA repeats, with the same headroom and canonicalization, so
// feasibility here means feasibility there). An empty candidate set means
// the trace is infeasible — the reported run cannot happen.
//
// The candidate set can blow up on write-heavy traces (every write
// multiplies each candidate by up to headroom slots before dedup), so the
// replay carries a work budget derived from lim and gives up with ErrBound
// rather than deciding — a skipped validation, never a wrong one.
func ReplayWitness(program *lang.Program, trace []explore.Step, sra bool, lim Limits) error {
	p := prog.New(program)
	scSet, err := reachableSC(p, program, lim)
	if err != nil {
		return err
	}
	mm := NewRA(program, lim.RAHeadroom)
	if sra {
		mm = NewSRA(program, lim.RAHeadroom)
	}

	ps := p.InitStateRaw()
	cands := []State{mm.Init()}
	var succs []Succ
	var key []byte
	work := 0
	budget := lim.maxStates()
	for i, st := range trace {
		t := int(st.Tid)
		if t < 0 || t >= len(p.Threads) {
			return fmt.Errorf("step %d: thread %d out of range", i, t)
		}
		th := &p.Threads[t]
		ts := ps.Threads[t]
		if th.Terminated(ts) {
			return fmt.Errorf("step %d: thread %d has terminated", i, t)
		}
		if st.Internal == explore.IntEps {
			if !th.AtEps(ts) {
				return fmt.Errorf("step %d: ε step but thread %d is at a memory operation", i, t)
			}
			nts, afail := th.StepEps(ts)
			if afail != nil {
				return fmt.Errorf("step %d: ε step fails an assertion (such states have no successors)", i)
			}
			ps.Threads[t] = nts
			continue
		}
		if st.Internal != explore.IntNone {
			return fmt.Errorf("step %d: unexpected internal tag %d in an RA trace", i, st.Internal)
		}
		if th.AtEps(ts) {
			return fmt.Errorf("step %d: memory step but thread %d is at a local instruction", i, t)
		}
		op := th.Op(ts)
		next := map[string]State{}
		for _, m := range cands {
			succs = mm.Steps(succs[:0], m, st.Tid, op)
			for _, sc := range succs {
				if sc.Lab != st.Lab {
					continue
				}
				work++
				mm.Canon(sc.M)
				key = sc.M.Encode(key[:0])
				if _, ok := next[string(key)]; !ok {
					next[string(key)] = sc.M
				}
			}
		}
		if len(next) == 0 {
			return fmt.Errorf("step %d: no reachable %s memory supports label %v (infeasible trace)", i, mm.Name(), st.Lab)
		}
		if work > budget {
			return fmt.Errorf("%w (replay candidate set at step %d)", ErrBound, i)
		}
		cands = cands[:0]
		for _, m := range next {
			cands = append(cands, m)
		}
		ps.Threads[t] = th.ApplyRaw(ts, st.Lab)
	}
	if _, ok := scSet[string(newProjector(p, lim).key(ps))]; ok {
		return fmt.Errorf("final program state is SC-reachable — not a robustness witness")
	}
	return nil
}
