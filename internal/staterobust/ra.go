package staterobust

import (
	"runtime"
	"sync"

	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/memra"
	"repro/internal/prog"
)

// raHeadroom returns the write-slot headroom of the RA/SRA machines:
// lim.RAHeadroom when set, else two plus the number of write and RMW
// instructions in the program, capped at 12. That is exact for programs
// whose runs perform no more writes per location than they have write
// instructions (see memra's package comment); for loopy programs the cap
// keeps branching bounded and the state bound guards the exploration.
func raHeadroom(program *lang.Program, lim Limits) int {
	if lim.RAHeadroom > 0 {
		return lim.RAHeadroom
	}
	n := 2
	for ti := range program.Threads {
		for ii := range program.Threads[ti].Insts {
			switch program.Threads[ti].Insts[ii].Kind {
			case lang.IWrite, lang.IFADD, lang.ICAS, lang.IBCAS, lang.IXCHG:
				n++
			}
		}
	}
	if n > 12 {
		n = 12 // keep branching bounded; the state bound guards precision
	}
	return n
}

// CheckRA decides state robustness of the program against RA by exploring
// the product of the program with the §3 timestamp machine
// (timestamp-canonicalized, see memra). Intended for litmus-sized
// programs: it exists to cross-validate the SCM-based decision procedure,
// not to replace it — that reversal of roles is exactly the paper's point
// (the RA machine is infinite-state in general; SCM is finite always).
func CheckRA(program *lang.Program, lim Limits) (*Result, error) {
	return checkWeakRA(program, lim, false)
}

// CheckSRA is CheckRA for the SRA model (writes and RMW-writes must pick
// globally maximal timestamps; see memra.WriteSlotSRA). SRA sits between
// RA and SC: per the paper's Example 3.4, 2+2W is robust against SRA but
// not against RA.
func CheckSRA(program *lang.Program, lim Limits) (*Result, error) {
	return checkWeakRA(program, lim, true)
}

// raScratch is the per-worker expansion state of checkWeakRA: the encode
// buffer, candidate/slot buffers for the memra Append* enumerators, and
// free lists of product states. Successor states are drawn from the pools
// (CopyFrom into recycled storage) instead of cloned, and return to the
// expanding worker's pool when the store reports a duplicate or when their
// node has been fully expanded; a state pushed by one worker and expanded
// by another simply migrates pools, with the engine's batch hand-off lock
// providing the happens-before edge.
type raScratch struct {
	buf    []byte
	cands  []memra.Msg
	slots  []memra.Time
	psPool []prog.State
	mPool  []*memra.State
}

func (ws *raScratch) takePS(from prog.State) prog.State {
	if n := len(ws.psPool); n > 0 {
		ps := ws.psPool[n-1]
		ws.psPool = ws.psPool[:n-1]
		ps.CopyFrom(from)
		return ps
	}
	return from.Clone()
}

func (ws *raScratch) takeM(from *memra.State) *memra.State {
	if n := len(ws.mPool); n > 0 {
		m := ws.mPool[n-1]
		ws.mPool = ws.mPool[:n-1]
		m.CopyFrom(from)
		return m
	}
	return from.Clone()
}

// checkWeakRA runs on the shared parallel engine (explore.RunParallel over
// an explore.Sharded visited set): frontier items carry the decoded
// product state ⟨program state, RA memory⟩, workers share the read-only
// compiled program and SC-reachable set, and the weak program-state set is
// the only mutable shared structure beyond the store (a mutex-guarded map;
// it is touched once per new compound state, so contention is off the
// expansion hot path).
func checkWeakRA(program *lang.Program, lim Limits, sra bool) (*Result, error) {
	p := prog.New(program)
	scSet, err := reachableSC(p, program, lim)
	if err != nil {
		return nil, err
	}
	res := &Result{Robust: true, SCStates: len(scSet)}
	headroom := raHeadroom(program, lim)
	gapCap := headroom + 1

	type node struct {
		ps prog.State
		m  *memra.State
	}
	workers := lim.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	store := explore.NewSharded(false)
	scratches := make([]*raScratch, workers)
	for w := range scratches {
		scratches[w] = &raScratch{buf: make([]byte, 0, 64)}
	}
	key := func(ws *raScratch, ps prog.State, m *memra.State) []byte {
		buf := ws.buf[:0]
		buf = p.EncodeStateRaw(buf, ps)
		buf = m.Encode(buf)
		ws.buf = buf
		return buf
	}

	var (
		mu        sync.Mutex
		weak      = map[string]struct{}{}
		witnessID = int64(-1)
		bound     bool
		sy        = lim.symmetry(p)
		symBuf    []byte
	)
	// check records the program state of a newly interned compound state
	// and reports whether it witnesses non-robustness (reachable weakly
	// but not under SC). The symmetry canonicalizer's scratch is shared, so
	// with Reduce the projection key is built under the mutex.
	check := func(id int64, ps prog.State) bool {
		var pk string
		if sy == nil {
			pk = p.StateKeyRaw(ps)
		}
		mu.Lock()
		defer mu.Unlock()
		if sy != nil {
			symBuf = p.EncodeStateRaw(symBuf[:0], ps)
			pk = string(sy.CanonRaw(symBuf))
		}
		if _, ok := weak[pk]; ok {
			return false
		}
		weak[pk] = struct{}{}
		if _, ok := scSet[pk]; !ok {
			if witnessID < 0 {
				witnessID = id
			}
			return true
		}
		return false
	}

	ps0 := p.InitStateRaw()
	m0 := memra.New(program.NumLocs(), program.NumThreads())
	rootID, _ := store.Add(key(scratches[0], ps0, m0), -1, explore.Step{})
	if check(rootID, ps0) {
		res.Robust = false
		res.WitnessTrace = store.Trace(rootID)
		res.Explored = store.Len()
		res.WeakStates = len(weak)
		return res, nil
	}

	expand := func(w int, it explore.Item[node], push func(explore.Item[node])) bool {
		if store.Len() > lim.maxStates() {
			mu.Lock()
			bound = true
			mu.Unlock()
			return false
		}
		ws := scratches[w]
		n := it.St
		// emit interns one successor reached by a program step with the
		// given label and RA memory effect (already performed on nextM, a
		// pooled state owned by this call); it reports whether the
		// successor witnesses non-robustness. Duplicates return nextM (and
		// the pooled program state) to the worker's free lists.
		emit := func(t int, label lang.Label, nextM *memra.State) bool {
			nextPS := ws.takePS(n.ps)
			p.Threads[t].ApplyRawInto(n.ps.Threads[t], label, &nextPS.Threads[t])
			nextM.Canonicalize(gapCap)
			id, isNew := store.Add(key(ws, nextPS, nextM), it.ID, explore.Step{Tid: lang.Tid(t), Lab: label})
			if !isNew {
				ws.psPool = append(ws.psPool, nextPS)
				ws.mPool = append(ws.mPool, nextM)
				return false
			}
			if check(id, nextPS) {
				return true
			}
			push(explore.Item[node]{ID: id, St: node{nextPS, nextM}})
			return false
		}
		for t := range p.Threads {
			th := &p.Threads[t]
			ts := n.ps.Threads[t]
			tid := lang.Tid(t)
			if th.Terminated(ts) {
				continue
			}
			if th.AtEps(ts) {
				nextPS := ws.takePS(n.ps)
				if afail := th.StepEpsInto(ts, &nextPS.Threads[t]); afail != nil {
					ws.psPool = append(ws.psPool, nextPS)
					continue
				}
				id, isNew := store.Add(key(ws, nextPS, n.m), it.ID,
					explore.Step{Tid: tid, Internal: explore.IntEps})
				if !isNew {
					ws.psPool = append(ws.psPool, nextPS)
					continue
				}
				if check(id, nextPS) {
					return false
				}
				push(explore.Item[node]{ID: id, St: node{nextPS, ws.takeM(n.m)}})
				continue
			}
			op := th.Op(ts)
			switch op.Kind {
			case prog.OpWrite:
				if sra {
					ws.slots = append(ws.slots[:0], n.m.WriteSlotSRA(op.Loc))
				} else {
					ws.slots = n.m.AppendWriteSlots(ws.slots[:0], tid, op.Loc, headroom)
				}
				for _, slot := range ws.slots {
					nextM := ws.takeM(n.m)
					nextM.Write(tid, op.Loc, op.WVal, slot)
					if emit(t, lang.WriteLab(op.Loc, op.WVal), nextM) {
						return false
					}
				}
			case prog.OpRead, prog.OpWait:
				ws.cands = n.m.AppendReadCandidates(ws.cands[:0], tid, op.Loc)
				for _, msg := range ws.cands {
					if op.Kind == prog.OpWait && msg.Val != op.WVal {
						continue
					}
					nextM := ws.takeM(n.m)
					nextM.Read(tid, msg)
					if emit(t, lang.ReadLab(op.Loc, msg.Val), nextM) {
						return false
					}
				}
			case prog.OpFADD, prog.OpXCHG, prog.OpCAS, prog.OpBCAS:
				if sra {
					ws.cands = n.m.AppendRMWCandidatesSRA(ws.cands[:0], tid, op.Loc)
				} else {
					ws.cands = n.m.AppendRMWCandidates(ws.cands[:0], tid, op.Loc)
				}
				for _, msg := range ws.cands {
					var vW lang.Val
					switch op.Kind {
					case prog.OpFADD:
						vW = lang.Val((int(msg.Val) + int(op.Add)) % program.ValCount)
					case prog.OpXCHG:
						vW = op.New
					case prog.OpCAS, prog.OpBCAS:
						if msg.Val != op.Exp {
							continue // handled as plain read below for CAS
						}
						vW = op.New
					}
					nextM := ws.takeM(n.m)
					nextM.RMW(tid, msg, vW)
					if emit(t, lang.RMWLab(op.Loc, msg.Val, vW), nextM) {
						return false
					}
				}
				if op.Kind == prog.OpCAS {
					// Failed CAS: a plain read of any value ≠ Exp
					// (Figure 2). Unlike the RMW case, any readable
					// message qualifies.
					ws.cands = n.m.AppendReadCandidates(ws.cands[:0], tid, op.Loc)
					for _, msg := range ws.cands {
						if msg.Val == op.Exp {
							continue
						}
						nextM := ws.takeM(n.m)
						nextM.Read(tid, msg)
						if emit(t, lang.ReadLab(op.Loc, msg.Val), nextM) {
							return false
						}
					}
				}
			}
		}
		// The node is fully expanded; its states feed the free lists.
		ws.psPool = append(ws.psPool, n.ps)
		ws.mPool = append(ws.mPool, n.m)
		return true
	}

	ro := explore.RunOpts{Ctx: lim.Ctx, ProgressEvery: progressEvery}
	if lim.Progress != nil {
		ro.Progress = func(int64) { lim.Progress(store.Len()) }
	}
	explore.RunParallelOpts(workers, []explore.Item[node]{{ID: rootID, St: node{ps0, m0}}}, expand, ro)
	if lim.ctxDone() {
		return nil, lim.canceled()
	}
	res.Explored = store.Len()
	res.WeakStates = len(weak)
	if bound {
		return nil, ErrBound
	}
	if witnessID >= 0 {
		res.Robust = false
		res.WitnessTrace = store.Trace(witnessID)
	}
	return res, nil
}
