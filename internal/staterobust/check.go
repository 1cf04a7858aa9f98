package staterobust

import (
	"slices"

	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/prog"
)

// This file is the sequential product explorer: one breadth-first walk of
// the ε-granular product of a program with a MemoryModel, with a hook on
// every newly interned state. The SC set (ReachableSC), the state
// robustness checks (CheckState, CheckTSO, and the instrumented
// model.CheckTSO) and outcome enumeration (FinalOutcomes) are hooks over
// it; the parallel RA engine (ra.go) is the one other exploration loop.

// walk explores the product of the program with mm breadth-first. The
// exploration is ε-granular: thread-local instructions are interleaved
// transitions of their own, exactly as in §2.2, so partially-closed states
// (a thread stopped between its read and the branch consuming it) are
// enumerated. State robustness is sensitive to them — the paper's §2.3
// barrier discussion hinges on a state where both threads hold stale
// zeroes on their loop branches.
//
// visit is called with the store id and program state of the root and of
// every newly interned state reached by a program step; returning true
// stops the walk. Memory-internal successors (TSO flushes) keep their
// parent's program state, so they are interned without a visit. The
// returned store holds every interned compound state with its trace link.
// Exceeding lim's state bound returns ErrBound; a cancelled lim.Ctx
// returns ErrCanceled, never a partial result.
func walk(p *prog.P, mm MemoryModel, lim Limits, visit func(id int32, ps prog.State) bool) (*explore.Store, error) {
	type node struct {
		ps prog.State
		m  State
	}
	store := explore.NewStore()
	var queue explore.Queue[node]
	var buf []byte
	key := func(ps prog.State, m State) []byte {
		buf = m.Encode(p.EncodeStateRaw(buf[:0], ps))
		return buf
	}

	ps0 := p.InitStateRaw()
	m0 := mm.Init()
	root, _ := store.AddBytes(key(ps0, m0), -1, explore.Step{})
	if visit(root, ps0) {
		return store, nil
	}
	queue.Push(root, node{ps0, m0})

	// Queued states are never mutated, so a successor shares its parent's
	// memory state across ε steps, its program state across internal
	// steps, and every thread state but the one that moved. The moved
	// thread is stepped into scratch (step[t], spliced into next for the
	// key) and copied out only when the successor is new.
	step := make([]prog.ThreadState, len(ps0.Threads))
	for t := range step {
		step[t].Regs = make([]lang.Val, len(ps0.Threads[t].Regs))
	}
	next := prog.State{Threads: make([]prog.ThreadState, len(ps0.Threads))}
	// add interns the successor of n in which thread t (-1: none) moved
	// to step[t] and the memory is m, and reports whether visit stopped
	// the walk.
	add := func(from int32, n node, t int, m State, st explore.Step) bool {
		ps := n.ps
		if t >= 0 {
			copy(next.Threads, n.ps.Threads)
			next.Threads[t] = step[t]
			ps = next
		}
		id, isNew := store.AddBytes(key(ps, m), from, st)
		if !isNew {
			return false
		}
		if t >= 0 {
			ps = prog.State{Threads: slices.Clone(n.ps.Threads)}
			ps.Threads[t] = step[t].Clone()
			if visit(id, ps) {
				return true
			}
		}
		queue.Push(id, node{ps, m})
		return false
	}

	var succs []Succ
	popped := 0
	for {
		item, ok := queue.Pop()
		if !ok {
			break
		}
		if store.Len() > lim.maxStates() {
			return nil, ErrBound
		}
		if popped&ctxPollMask == 0 && lim.ctxDone() {
			return nil, lim.canceled()
		}
		popped++
		if lim.Progress != nil && popped%progressEvery == 0 {
			lim.Progress(store.Len())
		}
		n := item.St
		for t := range p.Threads {
			th := &p.Threads[t]
			ts := n.ps.Threads[t]
			tid := lang.Tid(t)
			if th.Terminated(ts) {
				continue
			}
			if th.AtEps(ts) {
				if th.StepEpsInto(ts, &step[t]) != nil {
					continue // a failed assert has no successors
				}
				if add(item.ID, n, t, n.m, explore.Step{Tid: tid, Internal: explore.IntEps}) {
					return store, nil
				}
				continue
			}
			succs = mm.Steps(succs[:0], n.m, tid, th.Op(ts))
			for _, sc := range succs {
				mm.Canon(sc.M)
				th.ApplyRawInto(ts, sc.Lab, &step[t])
				if add(item.ID, n, t, sc.M, explore.Step{Tid: tid, Lab: sc.Lab}) {
					return store, nil
				}
			}
		}
		for t := range p.Threads {
			tid := lang.Tid(t)
			succs = mm.Internal(succs[:0], n.m, tid)
			for _, sc := range succs {
				mm.Canon(sc.M)
				add(item.ID, n, -1, sc.M, explore.Step{Tid: tid, Internal: explore.IntFlush})
			}
		}
	}
	if lim.ctxDone() {
		return nil, lim.canceled()
	}
	return store, nil
}

// projector builds the program-state keys the SC and weak sets are
// compared on: the raw state encoding or, with Limits.Reduce, its
// canonical representative under thread symmetry.
type projector struct {
	p   *prog.P
	sy  *prog.Symmetry
	buf []byte
}

func newProjector(p *prog.P, lim Limits) *projector {
	return &projector{p: p, sy: lim.symmetry(p)}
}

// key returns the projection key of ps in scratch storage that the next
// call overwrites.
func (pr *projector) key(ps prog.State) []byte {
	pr.buf = pr.p.EncodeStateRaw(pr.buf[:0], ps)
	if pr.sy == nil {
		return pr.buf
	}
	return pr.sy.CanonRaw(pr.buf)
}

// insert adds k to set and reports whether it was absent; the key string
// is only materialized on insertion.
func insert(set map[string]struct{}, k []byte) bool {
	if _, ok := set[string(k)]; ok {
		return false
	}
	set[string(k)] = struct{}{}
	return true
}

// ReachableSC returns the set of program-state keys reachable under SC
// (Definition 2.5 with M = SC): the projections of the ε-granular product
// with the SC memory. With lim.Reduce the keys are canonical
// representatives under thread symmetry. lim.Progress is not called; it
// reports the weak-model exploration that follows.
func ReachableSC(program *lang.Program, lim Limits) (map[string]struct{}, error) {
	return reachableSC(prog.New(program), program, lim)
}

func reachableSC(p *prog.P, program *lang.Program, lim Limits) (map[string]struct{}, error) {
	lim.Progress = nil
	pr := newProjector(p, lim)
	reach := map[string]struct{}{}
	_, err := walk(p, NewSC(program), lim, func(_ int32, ps prog.State) bool {
		insert(reach, pr.key(ps))
		return false
	})
	if err != nil {
		return nil, err
	}
	return reach, nil
}

// CheckState decides state robustness (Definition 2.6) of the program
// against mm: it walks the product of the program with mm and reports the
// first program state not reachable under SC, if any. Explored counts
// compound states, SCStates/WeakStates count program-state projections,
// and BufBoundHit comes from mm.BoundHit.
func CheckState(program *lang.Program, mm MemoryModel, lim Limits) (*Result, error) {
	p := prog.New(program)
	scSet, err := reachableSC(p, program, lim)
	if err != nil {
		return nil, err
	}
	pr := newProjector(p, lim)
	weak := map[string]struct{}{}
	witness := int32(-1)
	store, err := walk(p, mm, lim, func(id int32, ps prog.State) bool {
		k := pr.key(ps)
		if !insert(weak, k) {
			return false
		}
		if _, ok := scSet[string(k)]; ok {
			return false
		}
		witness = id
		return true
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Robust:      witness < 0,
		SCStates:    len(scSet),
		WeakStates:  len(weak),
		Explored:    store.Len(),
		BufBoundHit: mm.BoundHit(),
	}
	if witness >= 0 {
		res.WitnessTrace = store.Trace(witness)
	}
	return res, nil
}

// CheckTSO decides state robustness of the program against x86-TSO with
// store buffers bounded by lim.TSOBufCap, by exploring the product of the
// program with the full store-buffer machine (NewTSO).
//
// Semantics of the instruction set on TSO: writes enter the thread's
// buffer; reads forward from the thread's own buffer; all RMWs (FADD, CAS
// — successful or failed —, BCAS, XCHG) are locked instructions requiring
// an empty buffer, which is what makes the paper's FADD-encoded fences
// full fences on TSO; a blocking wait reads like a load. A per-thread
// internal flush action commits buffered writes in FIFO order.
func CheckTSO(program *lang.Program, lim Limits) (*Result, error) {
	return CheckState(program, NewTSO(program, lim.TSOBufCap), lim)
}
