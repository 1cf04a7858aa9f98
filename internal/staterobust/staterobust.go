// Package staterobust implements state robustness (Definition 2.6) checks
// by direct exploration of operational memory subsystems: it enumerates the
// program states reachable under SC, under TSO (bounded store buffers), and
// under RA (the §3 timestamp machine with canonicalized timestamps), and
// compares the resulting sets.
//
// The four machines sit behind one MemoryModel interface (model.go) and
// one sequential product explorer (check.go): the SC set, CheckTSO,
// CheckState, FinalOutcomes and the instrumented TSO checker in
// internal/model are hooks over that explorer. CheckRA and CheckSRA run
// the one specialised engine (ra.go), a pooled parallel explorer of the
// RA product whose step enumeration the RA adapter repeats exactly.
//
// Two roles:
//
//   - The TSO comparison is this repository's stand-in for the Trencher
//     column of the paper's Figure 7 (see DESIGN.md): a precise
//     state-robustness verdict against x86-TSO. Unlike Trencher's
//     trace-based notion, spinning longer on a stale value does not change
//     the set of reachable program states, so the four ✗⋆ rows of Figure 7
//     (spurious violations caused by Trencher's lack of blocking
//     instructions) come out robust here, which the paper argues is the
//     right answer.
//
//   - The RA comparison cross-validates the paper's main theorems on small
//     programs: by Proposition 4.10, execution-graph robustness implies
//     state robustness, so core.Verify saying "robust" must imply the RA
//     machine reaches no extra program states; and for the litmus tests the
//     paper discusses, the specific stale-value outcomes must be reachable
//     under RA and not under SC.
package staterobust

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/explore"
	"repro/internal/prog"
)

// Limits bounds an exploration.
type Limits struct {
	// MaxStates bounds the number of distinct compound states; 0 means
	// 4 million.
	MaxStates int
	// TSOBufCap bounds each TSO store buffer; 0 means 8 entries.
	TSOBufCap int
	// RAHeadroom is the number of free timestamp slots offered above the
	// maximal one for RA writes; 0 derives it from the program (number of
	// write instructions + 2), which is exact for programs whose loops do
	// not grow the write count beyond it (see memra's package comment).
	RAHeadroom int
	// Workers sets the number of parallel exploration workers for the RA
	// checker: 0 uses GOMAXPROCS, 1 explores sequentially. Verdicts and
	// full-run state counts are worker-count-independent; only witness
	// traces (and counts on non-robust early exits) may differ.
	Workers int
	// Ctx, when non-nil, cancels the exploration cooperatively (polled
	// every few hundred expansions at most): a cancelled run returns
	// ErrCanceled, never a partial verdict.
	Ctx context.Context
	// Progress, when non-nil, is called every few thousand explored
	// compound states with the running count. It may be invoked from
	// worker goroutines concurrently and must be cheap and goroutine-safe.
	Progress func(explored int)
	// Reduce folds program states related by thread symmetry (permutations
	// of byte-identical threads, prog.SymClasses) before comparing the SC
	// and weak reachable sets. The verdict is unchanged — both sets are
	// closed under the same permutations — but SCStates and WeakStates then
	// count canonical representatives, not raw program states. Only the
	// projection sets are folded; the compound-state exploration itself is
	// not reduced (the weak memories are thread-indexed and are not
	// canonicalized here).
	Reduce bool
}

// symmetry returns the program's thread symmetry when Reduce is on and at
// least two threads are interchangeable, else nil.
func (l Limits) symmetry(p *prog.P) *prog.Symmetry {
	if !l.Reduce {
		return nil
	}
	return prog.NewSymmetry(p)
}

func (l Limits) maxStates() int {
	if l.MaxStates <= 0 {
		return 4_000_000
	}
	return l.MaxStates
}

// ctxDone reports whether the limits' context has been cancelled.
func (l Limits) ctxDone() bool {
	return l.Ctx != nil && l.Ctx.Err() != nil
}

// canceled wraps the context's cause in ErrCanceled.
func (l Limits) canceled() error {
	return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(l.Ctx))
}

// ErrBound is returned when an exploration exceeds its state bound.
var ErrBound = fmt.Errorf("staterobust: state bound exceeded")

// ErrCanceled is returned (wrapped, with the context's cause) when
// Limits.Ctx is cancelled before the exploration completes.
var ErrCanceled = errors.New("staterobust: exploration canceled")

// ctxPollMask gates the sequential explorer's context polls (checked every
// ctxPollMask+1 expansions).
const ctxPollMask = 255

// progressEvery is the explored-state granularity of Limits.Progress.
const progressEvery = 4096

// Result is the outcome of a state-robustness comparison.
type Result struct {
	// Robust reports that every program state reachable under the weak
	// model is reachable under SC.
	Robust bool
	// WitnessTrace is a weak-memory run reaching a program state that SC
	// cannot reach (when not robust).
	WitnessTrace []explore.Step
	// SCStates and WeakStates count distinct *program* states (not
	// compound states) reached under each model; with Limits.Reduce they
	// count canonical representatives under thread symmetry instead.
	SCStates, WeakStates int
	// Explored counts compound states explored under the weak model.
	Explored int
	// BufBoundHit reports that a TSO write was ever inhibited by the
	// buffer capacity; if false, the bound provably did not limit the
	// exploration.
	BufBoundHit bool
}
