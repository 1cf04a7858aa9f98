package core

import (
	"sync"

	"repro/internal/explore"
	"repro/internal/prog"
)

// runParallel is the multi-worker driver: the workers run the shared
// per-state body concurrently against a sharded visited set (the kernel is
// read-only after construction, so they share it), with frontier hand-off
// batched through per-worker local buffers (see explore.RunParallelOpts),
// keeping the shared lock off the per-state hot path.
//
// The frontier is zero-copy as in runSeq: exact-mode items carry only the
// store id — the key is re-materialized from the shard's arena into
// per-worker scratch on expansion; hash-compact payload buffers are
// recycled through per-worker free lists (a buffer pushed by one worker
// and expanded by another simply migrates to the expander's list). A
// sleep-mask shrink re-queues the state under its complemented id. The
// final masks are the greatest fixpoint of a monotone intersection system,
// reached by chaotic iteration in any order, so the explored state set —
// and hence the state count — stays worker-count-independent.
//
// Determinism: on robust programs the full state space is explored, so
// verdict and state count match the sequential driver exactly. On
// violations, any worker finding one cancels the search cooperatively;
// which violating state is reported first (and hence the trace and the
// partial state count) depends on scheduling, but whether a violation
// exists does not, and the per-shard parent/step links always rebuild a
// valid (not necessarily shortest) SC run to the reported state.
func (k *kernel) runParallel(ps0 prog.State, opts Options) outcome {
	ws := make([]*worker, opts.workerCount())
	for i := range ws {
		ws[i] = k.newWorker()
	}
	root := ws[0].rootKey(ps0)
	store := explore.NewSharded(opts.HashCompact)
	rootID, _ := store.Add(root, -1, explore.Step{})
	roots := []explore.Item[[]byte]{{ID: rootID, St: ws[0].pushPayload(opts.HashCompact, root)}}

	// Shared result slots, written under the lock by whichever worker
	// finds a violation / assertion failure / bound overrun first (one
	// variable, so the closure captures one heap cell).
	var sh struct {
		sync.Mutex
		outcome
		violID, afailID int64
		afailStep       explore.Step
	}
	expand := func(wi int, it explore.Item[[]byte], push func(explore.Item[[]byte])) bool {
		if opts.MaxStates > 0 && store.Len() > opts.MaxStates {
			sh.Lock()
			sh.bound = true
			sh.Unlock()
			return false
		}
		w := ws[wi]
		requeued := it.ID < 0
		if requeued {
			it.ID = ^it.ID
		}
		key := it.St
		if !opts.HashCompact {
			w.popBuf = store.AppendKey(w.popBuf[:0], it.ID)
			key = w.popBuf
		}
		var sleepZ uint64
		if k.useSleep {
			sleepZ = store.Sleep(it.ID)
		}
		more := w.expand(key, sleepZ, requeued)
		from := 0
		for _, s := range w.succs {
			key := w.keys[from:s.end]
			from = s.end
			if k.useSleep {
				// Exact mode: payloads are nil, so markers carry no state.
				id, isNew, shrunk := store.AddSleep(key, it.ID, s.step, s.sleep)
				if isNew {
					push(explore.Item[[]byte]{ID: id})
				} else if shrunk {
					push(explore.Item[[]byte]{ID: ^id})
				}
			} else if id, isNew := store.Add(key, it.ID, s.step); isNew {
				push(explore.Item[[]byte]{ID: id, St: w.pushPayload(opts.HashCompact, key)})
			}
		}
		if len(w.viols) > 0 || w.afail != nil {
			sh.Lock()
			if len(w.viols) > 0 {
				if len(sh.viols) == 0 {
					sh.violID = it.ID
				}
				sh.viols = append(sh.viols, w.viols...)
			}
			if w.afail != nil && sh.afail == nil {
				sh.afail, sh.afailID, sh.afailStep = w.afail, it.ID, w.afailStep
			}
			sh.Unlock()
		}
		w.recycle(it.St)
		return more
	}

	ro := explore.RunOpts{Ctx: opts.Ctx, ProgressEvery: int64(opts.ProgressEvery)}
	if opts.Progress != nil {
		ro.Progress = func(expanded int64) {
			opts.Progress(Progress{States: store.Len(), Expanded: expanded})
		}
	}
	explore.RunParallelOpts(len(ws), roots, expand, ro)
	// Workers have quiesced: the shared slots and the store are stable.
	o := sh.outcome
	o.states = store.Len()
	for _, w := range ws {
		o.ample += w.cAmple
		o.sleep += w.cSleep
		o.sym += w.cSym
	}
	if len(o.viols) > 0 {
		o.violTrace = store.Trace(sh.violID)
	}
	if o.afail != nil {
		o.afailTrace = append(store.Trace(sh.afailID), sh.afailStep)
	}
	return o
}
