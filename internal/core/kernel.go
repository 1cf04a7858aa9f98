package core

import (
	"fmt"
	"time"

	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/memsc"
	"repro/internal/prog"
	"repro/internal/scm"
)

// kernel is the immutable per-run expansion machinery, shared read-only by
// every worker: the compiled program, the memory half of the product and
// the reduction oracle. Verify and VerifySC differ only in the memory half.
// With a monitor it is the SCM state of §5, whose Theorem 5.3 and §6
// racy-state checks run at every state; with mon == nil it is the plain SC
// memory of §2.3, held as the M component of an scm.State, and the checks
// are skipped. The per-state body (worker.expand) branches on mon instead
// of calling through an interface, so every call per transition is direct.
type kernel struct {
	p        *prog.P
	mon      *scm.Monitor // nil: plain SC memory (VerifySC)
	init     scm.State    // the initial memory half
	vc       int
	hasNA    bool
	keepAll  bool
	red      *reducer // nil unless Options.Reduce
	useSleep bool
}

func newKernel(program *lang.Program, p *prog.P, mon *scm.Monitor, opts Options) *kernel {
	k := &kernel{p: p, mon: mon, vc: program.ValCount, keepAll: opts.KeepAllViolations}
	if mon != nil {
		k.init = *mon.Init()
	} else {
		k.init.M = make([]lang.Val, program.NumLocs())
	}
	for _, li := range program.Locs {
		k.hasNA = k.hasNA || li.NA
	}
	if opts.Reduce {
		k.red = newReducer(program, p, mon)
		// Sleep sets need the exact store (re-expansion re-materializes
		// keys, which hash-compacted stores cannot) and per-state uint64
		// masks.
		k.useSleep = !opts.HashCompact && k.red.nT <= maxSleepThreads
	}
	return k
}

func (k *kernel) symm() bool { return k.red != nil && k.red.symm() }

// decodeMem decodes the memory half of a state key into s.
func (k *kernel) decodeMem(data []byte, s *scm.State) {
	if k.mon != nil {
		k.mon.Decode(data, s)
		return
	}
	for i := range s.M {
		s.M[i] = lang.Val(data[i])
	}
}

// encode appends the key of the product state (ps, ms) to dst; a non-nil
// perm encodes it with the threads permuted (thread symmetry). The plain
// SC memory is not thread-indexed, so it is encoded as is.
func (k *kernel) encode(dst []byte, ps prog.State, ms *scm.State, perm []uint8) []byte {
	if perm == nil {
		dst = k.p.EncodeState(dst, ps)
	} else {
		dst = k.p.EncodeStatePerm(dst, ps, perm)
	}
	switch {
	case k.mon == nil:
		return memsc.Memory(ms.M).Encode(dst)
	case perm == nil:
		return k.mon.Encode(dst, ms)
	}
	return k.mon.EncodePerm(dst, ms, perm)
}

// succ is one successor emitted by worker.expand: its key ends at offset
// end of worker.keys (and starts where the previous one ended), with the
// trace step leading to it and the sleep mask the edge hands it.
type succ struct {
	end   int
	step  explore.Step
	sleep uint64
}

// worker is the per-worker mutable expansion state: reusable current and
// successor program and memory states (register slices included, for the
// clone-free ApplyInto kernel), the pending-operation buffer, the
// successor list of the last expansion, a buffer for re-materializing
// parallel exact-mode frontier keys, the free list of recycled
// hash-compact frontier payloads, and the reduction scratch and counters
// (summed into the verdict after the run). Steady-state expansion
// performs no heap allocation.
type worker struct {
	k            *kernel
	cur, nxt     prog.State
	curMS, nxtMS scm.State
	saved        lang.Val // the plain SC value stepMem overwrote
	ops          []prog.MemOp
	perm         []uint8
	keys         []byte
	succs        []succ
	viols        []*scm.Violation
	afail        *prog.AssertFailure
	afailStep    explore.Step
	popBuf       []byte
	free         [][]byte

	cAmple, cSleep, cSym int64
}

func (k *kernel) newWorker() *worker {
	nT := len(k.p.Threads)
	w := &worker{k: k, cur: k.p.InitStateRaw(), nxt: k.p.InitStateRaw(),
		ops: make([]prog.MemOp, nT), succs: make([]succ, 0, nT)}
	nM, nB := len(k.init.M), len(k.init.B)
	m, b := make([]lang.Val, 2*nM), make([]uint64, 2*nB)
	w.curMS = scm.State{M: m[:nM:nM], B: b[:nB:nB]}
	w.nxtMS = scm.State{M: m[nM:], B: b[nB:]}
	memLen := nM
	if k.mon != nil {
		memLen = k.mon.EncodedLen()
	}
	// An expansion emits at most one successor per thread.
	w.keys = make([]byte, 0, nT*(k.p.EncodedLen()+memLen))
	if k.red != nil {
		w.perm = make([]uint8, k.red.nT)
	}
	return w
}

// stepMem returns the memory half after thread t's SC-enabled label l.
// The SCM successor is written to w.nxtMS; the plain SC memory is stepped
// in place, and undoMem restores it once the successor is encoded.
func (w *worker) stepMem(t int, l lang.Label) *scm.State {
	if w.k.mon != nil {
		w.nxtMS.CopyFrom(&w.curMS)
		w.k.mon.Step(&w.nxtMS, lang.Tid(t), l)
		return &w.nxtMS
	}
	w.saved = w.curMS.M[l.Loc]
	memsc.Memory(w.curMS.M).Step(l)
	return &w.curMS
}

func (w *worker) undoMem(l lang.Label) {
	if w.k.mon == nil {
		w.curMS.M[l.Loc] = w.saved
	}
}

// rootKey encodes the initial product state into w's key buffer.
func (w *worker) rootKey(ps0 prog.State) []byte {
	w.keys = w.k.encode(w.keys[:0], ps0, &w.k.init, nil)
	return w.keys
}

// pushPayload returns the frontier payload for a newly interned state: nil
// in exact mode (the frontier carries only the id; bytes are
// re-materialized from the store's arena on expansion) and a recycled copy
// of key in hash-compact mode, where the store keeps no key bytes.
func (w *worker) pushPayload(hashCompact bool, key []byte) []byte {
	if !hashCompact {
		return nil
	}
	var buf []byte
	if n := len(w.free); n > 0 {
		buf = w.free[n-1][:0]
		w.free = w.free[:n-1]
	}
	return append(buf, key...)
}

// recycle takes back an expanded hash-compact frontier payload.
func (w *worker) recycle(buf []byte) {
	if buf != nil {
		w.free = append(w.free, buf)
	}
}

// expand is the per-state body every driver runs: decode the state key,
// evaluate the Theorem 5.3 conditions for every thread's pending operation
// and the Definition 6.1 racy-state condition (SCM half only), then emit
// the successors into w.succs/w.keys in thread order: every SC-enabled
// thread action — or, with Reduce, a single ample representative when one
// qualifies, minus any edges the state's sleep mask sleepZ proves
// redundant (ample states ignore the sleep set: the one representative is
// always expanded) — stepped, canonicalized under thread symmetry and
// encoded. requeued marks a re-expansion after the state's sleep mask
// shrank: only edges are re-explored, checks and counters are not
// repeated.
//
// It reports false when the search must stop at this state: on a
// violation (left in w.viols, unless KeepAllViolations collects them and
// goes on) or a failed assertion (w.afail, reached by w.afailStep; the
// successors of lower-numbered threads are still emitted).
func (w *worker) expand(key []byte, sleepZ uint64, requeued bool) bool {
	k := w.k
	w.keys, w.succs, w.viols, w.afail = w.keys[:0], w.succs[:0], w.viols[:0], nil
	n := k.p.DecodeState(key, w.cur)
	k.decodeMem(key[n:], &w.curMS)
	ops := w.ops
	k.p.OpsInto(ops, w.cur)

	if k.mon != nil && !requeued {
		for t := range ops {
			if viol := k.mon.CheckOp(&w.curMS, lang.Tid(t), ops[t]); viol != nil {
				w.viols = append(w.viols, viol)
				if !k.keepAll {
					return false
				}
			}
		}
		if k.hasNA {
			if viol := k.mon.CheckRace(ops); viol != nil {
				w.viols = append(w.viols, viol)
				if !k.keepAll {
					return false
				}
			}
		}
	}

	ampleT := -1
	if k.red != nil {
		ampleT = k.red.ample(w.curMS.M, w.cur, w.nxt, ops)
		if ampleT >= 0 && !requeued {
			w.cAmple++
		}
	}
	var expandedSoFar uint64
	for t, op := range ops {
		if op.Kind == prog.OpNone {
			continue
		}
		if ampleT >= 0 {
			if t != ampleT {
				continue
			}
		} else if k.useSleep && sleepZ>>t&1 != 0 {
			if !requeued {
				w.cSleep++
			}
			continue
		}
		label, enabled := prog.SCLabel(op, w.curMS.M[op.Loc], k.vc)
		if !enabled {
			continue // blocked wait/BCAS
		}
		step := explore.Step{Tid: lang.Tid(t), Lab: label}
		if afail := k.p.Threads[t].ApplyInto(w.cur.Threads[t], label, &w.nxt.Threads[t]); afail != nil {
			w.afail, w.afailStep = afail, step
			return false
		}
		var cz uint64
		if k.useSleep {
			cz = childSleep(ops, t, sleepZ|expandedSoFar)
		}
		expandedSoFar |= uint64(1) << t
		savedTS := w.cur.Threads[t]
		w.cur.Threads[t] = w.nxt.Threads[t]
		ms := w.stepMem(t, label)
		var perm []uint8
		if k.symm() && !k.red.canonPerm(w.cur, ms, w.perm) {
			if !requeued {
				w.cSym++
			}
			perm = w.perm
			step.Perm = packPerm(perm)
			cz = permuteMask(cz, perm)
		}
		w.keys = k.encode(w.keys, w.cur, ms, perm)
		w.cur.Threads[t] = savedTS
		w.undoMem(label)
		w.succs = append(w.succs, succ{end: len(w.keys), step: step, sleep: cz})
	}
	return true
}

// outcome is what a driver reports back to kernel.run: the interned-state
// count and the workers' summed reduction counters, the violations with
// the trace to the first violating state, the first failed assertion with
// the trace ending in its failing step, and whether the state bound
// stopped the search.
type outcome struct {
	states            int
	ample, sleep, sym int64
	viols             []*scm.Violation
	violTrace         []explore.Step
	afail             *prog.AssertFailure
	afailTrace        []explore.Step
	bound             bool
}

// run explores the product from its initial state — with the sequential
// driver when opts resolves to one worker, the parallel one otherwise —
// and assembles the verdict.
func (k *kernel) run(opts Options, start time.Time) (Verdict, error) {
	v := Verdict{Robust: true}
	ps0, fail := k.p.InitState()
	var o outcome
	switch {
	case fail != nil:
		v.Robust, v.AssertFail = false, fail
	case opts.workerCount() == 1:
		o = k.runSeq(ps0, opts)
	default:
		o = k.runParallel(ps0, opts)
	}
	// A canceled run never reports a verdict, even if exploration happened
	// to finish before the poll noticed: the caller asked for
	// cancellation, and a deterministic ErrCanceled is what the service
	// layer's "canceled, not a verdict" contract needs.
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		return v, canceled(opts.Ctx)
	}
	if o.bound {
		return v, fmt.Errorf("%w (%d states)", ErrStateBound, o.states)
	}
	v.States, v.AmpleHits, v.SleepSkips, v.SymmetryFolds = o.states, o.ample, o.sleep, o.sym
	// Traces and violations are recorded on the symmetry quotient;
	// concretize them back into the original program's thread names.
	// Violations after the first (KeepAllViolations) stay canonical: each
	// names a thread of the same class, which is truthful by symmetry.
	if o.afail != nil {
		v.Robust, v.Trace, v.AssertFail = false, o.afailTrace, o.afail
		if k.symm() {
			k.red.concretize(v.Trace)
			af := *o.afail
			af.Tid = v.Trace[len(v.Trace)-1].Tid
			v.AssertFail = &af
		}
	}
	if len(o.viols) > 0 {
		v.Robust, v.Violations = false, o.viols
		if k.symm() {
			o.viols[0] = concretizeViolation(o.viols[0], k.red.concretize(o.violTrace))
		}
		if v.Trace == nil {
			v.Trace = o.violTrace
		}
	}
	v.Elapsed = time.Since(start)
	return v, nil
}

// runSeq is the sequential reference driver: exact BFS over an
// explore.Store, so a reported trace is a shortest one and the state count
// at a violation is deterministic. The frontier is zero-copy. In exact
// mode it is implicit: BFS interns states in exactly the order it pops
// them, so the dense id sequence 0, 1, 2, ... IS the FIFO frontier — no
// queue exists, the visited store doubles as the frontier, and keys are
// re-materialized from the store's arena on expansion. In hash-compact
// mode, where the store keeps no key bytes, a real queue carries payload
// copies whose buffers are recycled through the worker's free list.
func (k *kernel) runSeq(ps0 prog.State, opts Options) outcome {
	w := k.newWorker()
	root := w.rootKey(ps0)
	var store *explore.Store
	if opts.HashCompact {
		store = explore.NewHashCompactStore()
	} else {
		store = explore.NewStore()
	}
	var queue explore.Queue[[]byte]
	rootID, _ := store.AddBytes(root, -1, explore.Step{})
	if opts.HashCompact {
		queue.Push(rootID, w.pushPayload(true, root))
	}
	every := int64(opts.ProgressEvery)
	if every <= 0 {
		every = 4096
	}
	var o outcome
	violID := int32(-1)
	expanded := int64(0)
	next := int32(0)
	// requeue holds already-expanded states whose sleep mask strictly
	// shrank on a revisit: they are re-expanded so edges the larger mask
	// elided get explored.
	var requeue []int32
	for {
		var item explore.QItem[[]byte]
		requeued := false
		if opts.HashCompact {
			var ok bool
			if item, ok = queue.Pop(); !ok {
				break
			}
		} else if int(next) < store.Len() {
			item = explore.QItem[[]byte]{ID: next, St: store.KeyBytes(next)}
			next++
		} else if n := len(requeue); n > 0 {
			id := requeue[n-1]
			requeue = requeue[:n-1]
			item = explore.QItem[[]byte]{ID: id, St: store.KeyBytes(id)}
			requeued = true
		} else {
			break
		}
		if opts.MaxStates > 0 && store.Len() > opts.MaxStates {
			o.bound = true
			break
		}
		if opts.Ctx != nil && expanded&ctxPollMask == 0 && opts.Ctx.Err() != nil {
			break
		}
		expanded++
		if opts.Progress != nil && expanded%every == 0 {
			opts.Progress(Progress{States: store.Len(), Expanded: expanded})
		}
		var sleepZ uint64
		if k.useSleep {
			sleepZ = store.Sleep(item.ID)
		}
		more := w.expand(item.St, sleepZ, requeued)
		from := 0
		for _, s := range w.succs {
			key := w.keys[from:s.end]
			from = s.end
			if k.useSleep {
				if id, _, shrunk := store.AddBytesSleep(key, item.ID, s.step, s.sleep); shrunk && id < next {
					requeue = append(requeue, id)
				}
			} else if id, isNew := store.AddBytes(key, item.ID, s.step); isNew && opts.HashCompact {
				queue.Push(id, w.pushPayload(true, key))
			}
		}
		if len(w.viols) > 0 {
			if len(o.viols) == 0 {
				violID = item.ID
			}
			o.viols = append(o.viols, w.viols...)
		}
		if w.afail != nil {
			o.afail, o.afailTrace = w.afail, append(store.Trace(item.ID), w.afailStep)
		}
		if !more {
			break
		}
		if opts.HashCompact {
			w.recycle(item.St)
		}
	}
	o.states, o.ample, o.sleep, o.sym = store.Len(), w.cAmple, w.cSleep, w.cSym
	if violID >= 0 {
		o.violTrace = store.Trace(violID)
	}
	return o
}
