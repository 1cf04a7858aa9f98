package main

import (
	"time"

	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/prog"
	"repro/internal/scm"
)

// The kernel replay walks a program's state graph the way core.Verify's
// sequential engine does without reduction — breadth-first over
// ⟨program, SCM⟩ states in the visited store — but through the kernel's
// public functions, timing each call. A span per call would mean tens of
// millions of spans, so the replay sums time and calls per kernel
// function group instead.

// Kernel function groups, each reported as <name>_ns (mean time per call)
// and <name>_per_state (calls per expanded state).
const (
	kProgStep  = iota // prog: OpsInto, SCLabel, Thread.ApplyInto
	kProgCodec        // prog: EncodeState, DecodeState
	kSCMStep          // scm: State.CopyFrom + Monitor.Step
	kSCMCheck         // scm: Monitor.CheckOp, Monitor.CheckRace
	kSCMEncode        // scm: Monitor.Encode
	kSCMDecode        // scm: Monitor.Decode
	kHash             // explore: Hash128
	kIntern           // explore: Store.AddBytes (hashes the key again)
	nKernel
)

var kernelNames = [nKernel]string{
	"prog.step", "prog.codec", "scm.step", "scm.check",
	"scm.encode", "scm.decode", "explore.hash", "explore.intern",
}

type replayStats struct {
	states   int // distinct states stored
	expanded int
	keyBytes int64 // bytes of all stored keys
	calls    [nKernel]int64
	ns       [nKernel]int64
	// stopped reports that the walk ended early at a robustness
	// violation or a failed assertion (where core.Verify stops too).
	stopped bool
	sink    uint64 // keeps the Hash128 results live
}

// nsPerCall returns the mean time per call of group k, less the timer's
// own cost (timerNs per timed region).
func (s *replayStats) nsPerCall(k int, timerNs float64) float64 {
	if s.calls[k] == 0 {
		return 0
	}
	return float64(s.ns[k])/float64(s.calls[k]) - timerNs
}

// clockBase anchors the replay's monotonic clock.
var clockBase = time.Now()

// now reads the monotonic clock (time.Since takes the monotonic fast path).
func now() int64 { return int64(time.Since(clockBase)) }

// timerOverhead measures the mean cost of one empty timed region, to be
// subtracted from the replay's per-call means.
func timerOverhead() float64 {
	const n = 1 << 20
	var total int64
	for i := 0; i < n; i++ {
		t := now()
		total += now() - t
	}
	return float64(total) / n
}

// replayKernel walks the state graph of program with the abstract-value
// monitor (the core.Verify default), without reduction and without a
// state bound.
func replayKernel(program *lang.Program) (*replayStats, error) {
	if err := program.Validate(); err != nil {
		return nil, err
	}
	st := &replayStats{}
	p := prog.New(program)
	na := make([]bool, len(program.Locs))
	hasNA := false
	for i, li := range program.Locs {
		na[i] = li.NA
		hasNA = hasNA || li.NA
	}
	mon := scm.NewMonitor(program.NumThreads(), program.NumLocs(), program.ValCount, prog.CriticalVals(program), na)
	nT := len(p.Threads)
	cur := prog.State{Threads: make([]prog.ThreadState, nT)}
	nxt := prog.State{Threads: make([]prog.ThreadState, nT)}
	for i := range p.Threads {
		cur.Threads[i].Regs = make([]lang.Val, program.Threads[i].NumRegs)
		nxt.Threads[i].Regs = make([]lang.Val, program.Threads[i].NumRegs)
	}
	ops := make([]prog.MemOp, nT)
	var curMS scm.State
	nextMS := mon.Init()

	ps0, fail := p.InitState()
	if fail != nil {
		st.stopped = true
		return st, nil
	}
	store := explore.NewStore()
	key := p.EncodeState(nil, ps0)
	key = mon.Encode(key, mon.Init())
	store.AddBytes(key, -1, explore.Step{})
	st.keyBytes += int64(len(key))

	var t int64
	for id := int32(0); int(id) < store.Len(); id++ {
		k := store.KeyBytes(id)
		t = now()
		n := p.DecodeState(k, cur)
		st.ns[kProgCodec] += now() - t
		t = now()
		mon.Decode(k[n:], &curMS)
		st.ns[kSCMDecode] += now() - t
		t = now()
		p.OpsInto(ops, cur)
		st.ns[kProgStep] += now() - t
		st.calls[kProgCodec]++
		st.calls[kSCMDecode]++
		st.calls[kProgStep]++
		st.expanded++

		for tid := range ops {
			t = now()
			viol := mon.CheckOp(&curMS, lang.Tid(tid), ops[tid])
			st.ns[kSCMCheck] += now() - t
			st.calls[kSCMCheck]++
			if viol != nil {
				st.stopped = true
				st.states = store.Len()
				return st, nil
			}
		}
		if hasNA {
			t = now()
			viol := mon.CheckRace(ops)
			st.ns[kSCMCheck] += now() - t
			st.calls[kSCMCheck]++
			if viol != nil {
				st.stopped = true
				st.states = store.Len()
				return st, nil
			}
		}

		for tid, op := range ops {
			if op.Kind == prog.OpNone {
				continue
			}
			t = now()
			label, enabled := prog.SCLabel(op, curMS.M[op.Loc], program.ValCount)
			st.ns[kProgStep] += now() - t
			st.calls[kProgStep]++
			if !enabled {
				continue
			}
			t = now()
			afail := p.Threads[tid].ApplyInto(cur.Threads[tid], label, &nxt.Threads[tid])
			st.ns[kProgStep] += now() - t
			st.calls[kProgStep]++
			if afail != nil {
				st.stopped = true
				st.states = store.Len()
				return st, nil
			}
			saved := cur.Threads[tid]
			cur.Threads[tid] = nxt.Threads[tid]

			t = now()
			nextMS.CopyFrom(&curMS)
			mon.Step(nextMS, lang.Tid(tid), label)
			st.ns[kSCMStep] += now() - t
			t = now()
			key = p.EncodeState(key[:0], cur)
			st.ns[kProgCodec] += now() - t
			t = now()
			key = mon.Encode(key, nextMS)
			st.ns[kSCMEncode] += now() - t
			t = now()
			h := explore.Hash128(key)
			st.ns[kHash] += now() - t
			t = now()
			_, isNew := store.AddBytes(key, id, explore.Step{Tid: lang.Tid(tid), Lab: label})
			st.ns[kIntern] += now() - t
			st.calls[kSCMStep]++
			st.calls[kProgCodec]++
			st.calls[kSCMEncode]++
			st.calls[kHash]++
			st.calls[kIntern]++
			st.sink ^= h[0]
			if isNew {
				st.keyBytes += int64(len(key))
			}
			cur.Threads[tid] = saved
		}
	}
	st.states = store.Len()
	return st, nil
}
