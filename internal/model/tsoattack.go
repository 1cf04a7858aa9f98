package model

import (
	"repro/internal/lang"
	"repro/internal/staterobust"
)

// CheckTSO decides state robustness against x86-TSO with a polynomial
// attack-based instrumentation, following the shape of "Checking
// Robustness against TSO" (Bouajjani–Derevenetc–Meyer): instead of
// exploring the product with every store buffer live — whose state space
// grows exponentially with the number of concurrently buffering threads
// — it runs one reachability query over the *lazy single-delayer*
// machine (staterobust.NewTSOLazy), in which at most one buffer is ever
// non-empty: an attack is the nondeterministic choice, made at any point
// where all buffers are drained, of one candidate thread that starts
// delaying its stores while everyone else writes through. The program is
// non-robust iff the query reaches a program state outside the
// SC-reachable set.
//
// Soundness is immediate: every run of the lazy machine is a genuine TSO
// run (write-through is a store immediately followed by its flush), so a
// non-SC state found here is TSO-reachable. Completeness is the locality
// argument of "Locality and Singularity for Store-Atomic Memory Models"
// (PAPERS.md): a minimal robustness violation under a store-atomic model
// needs only one thread deviating from SC at a time — the delayed writes
// of any second thread can be committed eagerly without losing the
// violating state. The exhaustive staterobust.CheckTSO — the same
// explorer over the full store-buffer machine — is the oracle: the
// Figure-7 corpus parity test and the diffcheck fuzz leg cross-check the
// two checkers on every row and on generated programs.
//
// The state space is a subset of the exhaustive product's by
// construction (every lazy state is a full-product state whose
// non-delaying buffers are empty), so Explored never exceeds the
// exhaustive checker's count and is strictly smaller whenever full TSO
// reaches a state with two live buffers. DelayerCandidates shrinks it
// further by never letting a thread that could not possibly profit from
// delaying open an episode.
func CheckTSO(program *lang.Program, lim staterobust.Limits) (*staterobust.Result, error) {
	cands := DelayerCandidates(program)
	if len(cands) == 0 {
		// No thread can profit from delaying: with every buffer pinned
		// empty the lazy machine is the SC machine, so the program is
		// robust with no weak exploration at all (Explored and WeakStates
		// stay 0).
		scSet, err := staterobust.ReachableSC(program, lim)
		if err != nil {
			return nil, err
		}
		return &staterobust.Result{Robust: true, SCStates: len(scSet)}, nil
	}
	return staterobust.CheckState(program, staterobust.NewTSOLazy(program, lim.TSOBufCap, cands), lim)
}

// DelayerCandidates returns the threads worth letting open a delay
// episode: those containing at least one store and at least one plain
// load or wait. A thread with no store has nothing to delay; a thread
// with no plain load between a delayed store and its flush cannot
// observe its own delay, so the store commutes forward to its flush
// point (every intermediate action is thread-local or belongs to a
// thread that cannot see the buffered value, and the thread's own RMWs —
// which do read — require an empty buffer, closing the episode first),
// yielding an SC run through the same program states. The filter is a
// static superset of the useful delayers; shrinking it further — e.g.
// demanding a load *reachable after* a store in the thread's control
// flow — would stay sound but buys little on the corpus.
func DelayerCandidates(program *lang.Program) []lang.Tid {
	var out []lang.Tid
	for ti := range program.Threads {
		var store, load bool
		for ii := range program.Threads[ti].Insts {
			switch program.Threads[ti].Insts[ii].Kind {
			case lang.IWrite:
				store = true
			case lang.IRead, lang.IWait:
				load = true
			}
		}
		if store && load {
			out = append(out, lang.Tid(ti))
		}
	}
	return out
}
