// Package memra implements the operational release/acquire memory
// subsystem of §3 (Figure 3), due to Kang et al.'s timestamp machine: the
// memory is a set of timestamped messages carrying views, and each thread
// maintains a view placing lower bounds on the messages it may read and the
// timestamps it may pick for new messages.
//
// Timestamps make the raw machine infinite-state. For exhaustive
// exploration the package provides an exact finite canonicalization
// (Canonicalize): per location, timestamps are re-ranked preserving order
// while clamping gaps at a configurable cap. Order determines mo;
// adjacency (t and t+1) determines where RMWs may land; and a gap of size g
// can absorb at most g-1 future writes — so clamping gaps at one more than
// the number of writes the program can still perform is behaviour-
// preserving. Two canonical states are bisimilar in the raw machine.
package memra

import (
	"sort"

	"repro/internal/lang"
)

// Time is a timestamp (§3: Time ≜ ℕ).
type Time uint16

// View is a thread or message view: Loc → Time.
type View []Time

// Clone returns a deep copy.
func (v View) Clone() View {
	c := make(View, len(v))
	copy(c, v)
	return c
}

// Join computes the pointwise maximum v ⊔ w in place on v.
func (v View) Join(w View) {
	for i := range v {
		if w[i] > v[i] {
			v[i] = w[i]
		}
	}
}

// Msg is a message ⟨x=v@t, view⟩ in the RA memory.
type Msg struct {
	Loc  lang.Loc
	Val  lang.Val
	T    Time
	View View
}

// State is a state of the RA memory subsystem: the message pool and the
// per-thread views. Messages are kept sorted by (Loc, T); there is never
// more than one message per (Loc, T) pair.
type State struct {
	Msgs  []Msg
	Views []View

	// remap is Canonicalize's per-location timestamp translation table,
	// kept on the state so pooled scratch states canonicalize without
	// allocating. Not part of the state proper (ignored by Clone, CopyFrom
	// and Encode).
	remap []Time
}

// New returns the initial RA state for the given numbers of locations and
// threads: one initialization message ⟨x=0@0, ⊥⟩ per location and all-zero
// thread views.
func New(numLocs, numThreads int) *State {
	s := &State{}
	for x := 0; x < numLocs; x++ {
		s.Msgs = append(s.Msgs, Msg{Loc: lang.Loc(x), Val: 0, T: 0, View: make(View, numLocs)})
	}
	for i := 0; i < numThreads; i++ {
		s.Views = append(s.Views, make(View, numLocs))
	}
	return s
}

// Clone returns a deep copy.
func (s *State) Clone() *State {
	c := &State{
		Msgs:  make([]Msg, len(s.Msgs)),
		Views: make([]View, len(s.Views)),
	}
	for i, m := range s.Msgs {
		c.Msgs[i] = Msg{Loc: m.Loc, Val: m.Val, T: m.T, View: m.View.Clone()}
	}
	for i, v := range s.Views {
		c.Views[i] = v.Clone()
	}
	return c
}

// CopyFrom overwrites s with o, reusing s's message and view storage where
// the shapes match — the pooled-scratch counterpart of Clone. Shrinking
// reslices within capacity, so the View backing arrays of dropped messages
// stay available for later regrowth and inserts.
func (s *State) CopyFrom(o *State) {
	for len(s.Msgs) < len(o.Msgs) {
		if len(s.Msgs) < cap(s.Msgs) {
			s.Msgs = s.Msgs[:len(s.Msgs)+1]
		} else {
			s.Msgs = append(s.Msgs, Msg{})
		}
	}
	s.Msgs = s.Msgs[:len(o.Msgs)]
	for i := range o.Msgs {
		om := &o.Msgs[i]
		m := &s.Msgs[i]
		m.Loc, m.Val, m.T = om.Loc, om.Val, om.T
		if len(m.View) != len(om.View) {
			m.View = make(View, len(om.View))
		}
		copy(m.View, om.View)
	}
	if len(s.Views) != len(o.Views) {
		s.Views = make([]View, len(o.Views))
	}
	for i := range o.Views {
		if len(s.Views[i]) != len(o.Views[i]) {
			s.Views[i] = make(View, len(o.Views[i]))
		}
		copy(s.Views[i], o.Views[i])
	}
}

// hasMsgAt reports whether a message of x with timestamp t exists.
func (s *State) hasMsgAt(x lang.Loc, t Time) bool {
	for i := range s.Msgs {
		if s.Msgs[i].Loc == x && s.Msgs[i].T == t {
			return true
		}
	}
	return false
}

// maxT returns the maximal timestamp of a message of x.
func (s *State) maxT(x lang.Loc) Time {
	var m Time
	for i := range s.Msgs {
		if s.Msgs[i].Loc == x && s.Msgs[i].T > m {
			m = s.Msgs[i].T
		}
	}
	return m
}

// insertCopy inserts a message ⟨x=v@t⟩ whose view is a copy of view,
// keeping the pool sorted by (Loc, T). When the Msgs slice has spare
// capacity from an earlier shrink (see CopyFrom), the vacated slot's View
// backing is reused for the copy, so pooled states write without
// allocating in steady state.
func (s *State) insertCopy(x lang.Loc, v lang.Val, t Time, view View) {
	i := sort.Search(len(s.Msgs), func(i int) bool {
		mi := &s.Msgs[i]
		return mi.Loc > x || (mi.Loc == x && mi.T > t)
	})
	var spare View
	if len(s.Msgs) < cap(s.Msgs) {
		s.Msgs = s.Msgs[:len(s.Msgs)+1]
		spare = s.Msgs[len(s.Msgs)-1].View
	} else {
		s.Msgs = append(s.Msgs, Msg{})
	}
	copy(s.Msgs[i+1:], s.Msgs[i:])
	if len(spare) != len(view) {
		spare = make(View, len(view))
	}
	copy(spare, view)
	s.Msgs[i] = Msg{Loc: x, Val: v, T: t, View: spare}
}

// AppendReadCandidates appends to dst the messages of x thread tid may
// read: those with timestamp ≥ the thread's view of x (Figure 3, read
// rule). The appended Msgs alias s's views and stay valid while s is
// unmodified.
func (s *State) AppendReadCandidates(dst []Msg, tid lang.Tid, x lang.Loc) []Msg {
	min := s.Views[tid][x]
	for i := range s.Msgs {
		if s.Msgs[i].Loc == x && s.Msgs[i].T >= min {
			dst = append(dst, s.Msgs[i])
		}
	}
	return dst
}

// Read performs the read transition of thread tid from message m
// (incorporating m's view into the thread view). The caller must pass a
// message returned by AppendReadCandidates.
func (s *State) Read(tid lang.Tid, m Msg) {
	s.Views[tid].Join(m.View)
	if s.Views[tid][m.Loc] < m.T {
		s.Views[tid][m.Loc] = m.T
	}
}

// AppendWriteSlots appends to dst the timestamps thread tid may pick for
// a new message of x: free slots strictly above the thread's view, up to
// headroom slots past the current maximal timestamp. A headroom of 1
// suffices to simulate SC; larger headrooms allow later writes to be
// interleaved mo-before this one (see package comment on exactness).
func (s *State) AppendWriteSlots(dst []Time, tid lang.Tid, x lang.Loc, headroom int) []Time {
	lo := s.Views[tid][x] + 1
	hi := s.maxT(x) + Time(headroom)
	for t := lo; t <= hi; t++ {
		if !s.hasMsgAt(x, t) {
			dst = append(dst, t)
		}
	}
	return dst
}

// Write performs the write transition of thread tid: a new message
// ⟨x=v@t, view⟩ where the view is the thread's updated view (Figure 3,
// write rule). t must come from AppendWriteSlots.
func (s *State) Write(tid lang.Tid, x lang.Loc, v lang.Val, t Time) {
	s.Views[tid][x] = t
	s.insertCopy(x, v, t, s.Views[tid])
}

// WriteSlotSRA returns the timestamp a write must pick under the SRA
// model of Lahav, Giannarakis & Vafeiadis ("Taming release-acquire
// consistency", POPL 2016): writes choose a globally maximal timestamp
// (cf. the paper's Example 3.4, which contrasts RA with SRA on 2+2W).
// Since every SRA write is maximal, gaps never form and the successor of
// the current maximum is the single canonical choice.
func (s *State) WriteSlotSRA(x lang.Loc) Time {
	return s.maxT(x) + 1
}

// AppendRMWCandidatesSRA appends to dst the messages an SRA RMW may read:
// the RMW's write must also be maximal, so only the mo-maximal message
// qualifies (and only if the thread's view permits reading it, which it
// always does for the maximum).
func (s *State) AppendRMWCandidatesSRA(dst []Msg, tid lang.Tid, x lang.Loc) []Msg {
	min := s.Views[tid][x]
	maxT := s.maxT(x)
	for i := range s.Msgs {
		if s.Msgs[i].Loc == x && s.Msgs[i].T >= min && s.Msgs[i].T == maxT {
			dst = append(dst, s.Msgs[i])
		}
	}
	return dst
}

// AppendRMWCandidates appends to dst the messages of x thread tid may read
// in an RMW: readable messages whose successor timestamp is free (Figure
// 3, RMW rule).
func (s *State) AppendRMWCandidates(dst []Msg, tid lang.Tid, x lang.Loc) []Msg {
	min := s.Views[tid][x]
	for i := range s.Msgs {
		if s.Msgs[i].Loc == x && s.Msgs[i].T >= min && !s.hasMsgAt(x, s.Msgs[i].T+1) {
			dst = append(dst, s.Msgs[i])
		}
	}
	return dst
}

// RMW performs the RMW transition of thread tid reading message m and
// writing vW at timestamp m.T+1, with the combined view
// TW = T(τ)[x ↦ t+1] ⊔ TR.
func (s *State) RMW(tid lang.Tid, m Msg, vW lang.Val) {
	tv := s.Views[tid]
	tv.Join(m.View)
	tv[m.Loc] = m.T + 1
	s.insertCopy(m.Loc, vW, m.T+1, tv)
}

// Canonicalize re-ranks timestamps per location: order is preserved, and
// each gap between consecutive message timestamps is clamped at gapCap.
// All views are remapped consistently. gapCap must be at least 2 to keep
// "room below the next message" representable; pass one more than the
// number of writes the program can still perform for exactness.
func (s *State) Canonicalize(gapCap int) {
	if gapCap < 2 {
		gapCap = 2
	}
	numLocs := 0
	maxT := 0
	for i := range s.Msgs {
		if int(s.Msgs[i].Loc) >= numLocs {
			numLocs = int(s.Msgs[i].Loc) + 1
		}
		if int(s.Msgs[i].T) > maxT {
			maxT = int(s.Msgs[i].T)
		}
	}
	// The translation table is a flat [loc][oldT] array (old timestamps
	// are bounded by maxT, which canonicalization keeps small) storing
	// newT+1, with 0 marking an unmapped entry — no per-call maps, and the
	// buffer lives on the state for reuse across calls.
	stride := maxT + 1
	need := numLocs * stride
	if cap(s.remap) < need {
		s.remap = make([]Time, need)
	}
	remap := s.remap[:need]
	clear(remap)
	// Messages are sorted by (Loc, T), so each location is one contiguous
	// run in ascending timestamp order.
	for i := 0; i < len(s.Msgs); {
		x := s.Msgs[i].Loc
		var prevOld, prevNew Time
		for first := true; i < len(s.Msgs) && s.Msgs[i].Loc == x; i++ {
			told := s.Msgs[i].T
			var tnew Time
			if first {
				tnew = told // the initialization message is at 0
				if told != 0 {
					tnew = 1 // cannot happen: init messages persist
				}
				first = false
			} else {
				gap := int(told - prevOld)
				if gap > gapCap {
					gap = gapCap
				}
				tnew = prevNew + Time(gap)
			}
			remap[int(x)*stride+int(told)] = tnew + 1
			prevOld, prevNew = told, tnew
		}
	}
	apply := func(v View) {
		for x := range v {
			// View components are always message timestamps (they are
			// only ever set from message timestamps and joins thereof),
			// so the lookup always succeeds.
			if t := remap[x*stride+int(v[x])]; t != 0 {
				v[x] = t - 1
			}
		}
	}
	for i := range s.Msgs {
		s.Msgs[i].T = remap[int(s.Msgs[i].Loc)*stride+int(s.Msgs[i].T)] - 1
		apply(s.Msgs[i].View)
	}
	for i := range s.Views {
		apply(s.Views[i])
	}
}

// Encode appends a canonical byte encoding of the state to dst. The state
// should be canonicalized first so that bisimilar states encode equally.
func (s *State) Encode(dst []byte) []byte {
	for i := range s.Msgs {
		m := &s.Msgs[i]
		dst = append(dst, byte(m.Loc), byte(m.Val), byte(m.T), byte(m.T>>8))
		for _, t := range m.View {
			dst = append(dst, byte(t), byte(t>>8))
		}
	}
	dst = append(dst, 0xff)
	for _, v := range s.Views {
		for _, t := range v {
			dst = append(dst, byte(t), byte(t>>8))
		}
	}
	return dst
}
