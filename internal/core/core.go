// Package core is the heart of the reproduction: the Rocker verifier. It
// decides execution-graph robustness against the release/acquire memory
// model by exhaustively exploring the program composed with the
// instrumented SC memory SCM of §5 and evaluating the Theorem 5.3
// robustness conditions (plus the §6 racy-state condition and any user
// assertions) at every reachable state — the reduction the paper proves
// sound and precise (Theorems 5.1, 5.3 and 6.2).
//
// By Proposition 4.10, a Robust verdict also establishes state robustness:
// every program state reachable under RA is reachable under SC, so the
// program may be verified with SC-only techniques. A NonRobust verdict
// comes with a counterexample trace: an SC run to a state from which an RA
// execution graph can diverge from all SC ones.
//
// Verify and the plain-SC VerifySC (the paper's "SC" column) are one
// search with two memory halves: both run a single exploration kernel
// (kernel.go), whose per-state body decodes a state, runs the Theorem 5.3
// and racy-state checks (a no-op for plain SC), picks the ample set,
// applies the sleep mask, and steps, canonicalizes and encodes every
// successor. The memory half — the SCM monitor state or the SC memory — is
// the kernel's only parameter. Two drivers feed the body: the sequential
// reference (Workers = 1, exact BFS over explore.Store) and the parallel
// one (explore.RunParallelOpts over a sharded visited set, the default:
// the checks are evaluated per state against the read-only monitor, so
// robustness checking is embarrassingly parallel at the state level). The
// parallel driver's verdicts and full-run state counts are pinned against
// the sequential one by tests.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/prog"
	"repro/internal/scm"
)

// Model selects the weak memory model robustness is checked against.
type Model uint8

// Supported models.
const (
	// ModelRA is the paper's release/acquire model (the default).
	ModelRA Model = iota
	// ModelSRA is the strong release/acquire model of Lahav, Giannarakis
	// & Vafeiadis (POPL 2016) — the §9 extension direction. SRA places
	// writes mo-maximally, so only stale reads can break robustness;
	// e.g. 2+2W is robust against SRA but not against RA (Example 3.4).
	ModelSRA
)

// Options configures verification.
type Options struct {
	// Model selects the weak model (RA by default, or SRA).
	Model Model
	// AbstractVals enables the §5.1 abstract value management (critical
	// values only, with CV/CW summaries). It is the default mode; turning
	// it off tracks every value exactly (the ablation of §5.1).
	AbstractVals bool
	// MaxStates bounds the explored state count; 0 means unbounded.
	// Exceeding the bound yields an error, never a wrong verdict.
	MaxStates int
	// KeepAllViolations collects every violating state instead of
	// stopping at the first (useful for fence inference).
	KeepAllViolations bool
	// HashCompact stores 128-bit hashes of states instead of full state
	// encodings in the visited set (Spin's hashcompact mode). It cuts
	// memory roughly 4× on large runs; a hash collision could in
	// principle prune a state (probability < n²·2⁻¹²⁸ for n states —
	// negligible, but the exact mode is the default and is used by all
	// correctness tests).
	HashCompact bool
	// Workers sets the number of parallel exploration workers: 0 uses
	// GOMAXPROCS, 1 forces the sequential reference implementation.
	// Verdicts are worker-count-independent; on full (robust) runs so is
	// the state count. Only counterexample traces may differ.
	Workers int
	// Ctx, when non-nil, bounds the verification by a deadline or an
	// explicit cancellation: the exploration polls it cooperatively (every
	// few hundred expansions at most) and a cancelled run returns
	// ErrCanceled — never a partial or wrong verdict. Robustness checking
	// is PSPACE-hard in general, so long-running callers (the rockerd
	// service, CLI -timeout flags) must be able to bail out cleanly.
	Ctx context.Context
	// Progress, when non-nil, is called with a snapshot of the running
	// exploration every ProgressEvery expanded states. It may be invoked
	// concurrently from worker goroutines and must be cheap and
	// goroutine-safe; it must not retain the snapshot's identity beyond
	// the call (the values are plain counters, safe to copy).
	Progress func(Progress)
	// ProgressEvery is the number of expanded states between Progress
	// calls; 0 means 4096.
	ProgressEvery int
	// Reduce turns on conflict-graph-guided partial-order reduction:
	// ample-set expansion (a thread whose pending operation touches a
	// location no other thread can still access — or, for a plain read, no
	// other thread can still write, per the internal/analysis forward
	// summaries — stands in for the full expansion of a state), sleep sets
	// (edges that only commute with an already-explored interleaving are
	// skipped; exact visited set only), and thread-symmetry
	// canonicalization (states of byte-identical threads are interned up
	// to permutation, with counterexample traces concretized back through
	// the recorded permutations). Verdicts are bit-identical with and
	// without it; the distinct-state count shrinks — often by multiples —
	// and stays worker-count-independent on robust runs. The zero value is
	// off; the rocker CLI enables it by default (-noreduce opts out).
	Reduce bool
	// StaticPrune runs the internal/analysis pre-pass before exploring:
	// locations outside every cross-thread conflict cycle are dropped
	// from the SCM instrumentation (shrinking the state space without
	// changing any verdict), critical-value masks are sharpened by
	// constant propagation when AbstractVals is on, and programs whose
	// conflict graph has no dangerous cycle at all are discharged
	// immediately with Verdict.Certificate set and zero states explored.
	StaticPrune bool
}

// Progress is a live snapshot of a running exploration, delivered to
// Options.Progress. The frontier depth is States - Expanded: every
// interned state is eventually expanded exactly once.
type Progress struct {
	// States is the number of distinct states interned so far.
	States int
	// Expanded is the number of states fully expanded so far.
	Expanded int64
}

// ErrCanceled is returned (wrapped, with the context's cause) when
// Options.Ctx is cancelled before the exploration completes. A cancelled
// run never reports a verdict: the state space was only partially
// explored, so "robust so far" would be unsound to return.
var ErrCanceled = errors.New("core: verification canceled")

// canceled wraps ctx's cause in ErrCanceled.
func canceled(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
}

// ctxPollMask gates the sequential loops' context polls: the context is
// checked every ctxPollMask+1 expansions, which bounds the number of
// expansions a cancelled sequential run performs before stopping.
const ctxPollMask = 255

// DefaultOptions returns the standard configuration (abstract values on,
// no state bound, exact visited set, parallel exploration).
func DefaultOptions() Options { return Options{AbstractVals: true} }

// workerCount resolves Options.Workers to an actual worker count.
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Verdict is the result of a robustness verification run.
type Verdict struct {
	// Robust reports execution-graph robustness against RA (and
	// race-freedom on non-atomic locations, and that no assertion fails
	// under SC).
	Robust bool
	// Violations holds the detected robustness violations (at most one
	// unless Options.KeepAllViolations).
	Violations []*scm.Violation
	// AssertFail reports a failed user assertion, if any.
	AssertFail *prog.AssertFailure
	// Trace is an SC run (sequence of thread-labelled memory actions)
	// leading to a violating state (the first found; a shortest one under
	// Workers = 1).
	Trace []explore.Step
	// States is the number of distinct ⟨program, SCM⟩ states explored.
	States int
	// Elapsed is the wall-clock verification time.
	Elapsed time.Duration
	// MetadataBits is the size of the SCM instrumentation per §5.1.
	MetadataBits int
	// Certificate reports that the Robust verdict was discharged by the
	// static pre-pass (Options.StaticPrune) without exploring any state:
	// the conflict graph has no cycle through two or more conflict
	// edges, so no SC run can witness a Theorem 5.3 violation.
	Certificate bool
	// PrunedLocs is the number of locations the pre-pass dropped from
	// the SCM instrumentation (0 when StaticPrune is off).
	PrunedLocs int
	// CritSharpened reports that constant propagation strictly shrank at
	// least one critical-value mask.
	CritSharpened bool
	// AmpleHits counts expanded states where the partial-order reduction
	// (Options.Reduce) replaced the full expansion by a single ample
	// representative; SleepSkips counts edges elided by sleep sets;
	// SymmetryFolds counts successor states canonicalized under a
	// non-identity thread permutation. All three are 0 with Reduce off.
	// AmpleHits is (like States) worker-count-independent on full runs;
	// SleepSkips and SymmetryFolds depend on exploration order and may
	// vary across parallel runs.
	AmpleHits, SleepSkips, SymmetryFolds int64
	// Analysis holds the full pre-pass result when StaticPrune is on,
	// for -explain style reporting.
	Analysis *analysis.Result
}

// ErrStateBound is returned when MaxStates is exceeded.
var ErrStateBound = fmt.Errorf("core: state bound exceeded")

// newMonitor builds the SCM monitor for a validated program: critical
// values per Options.AbstractVals, sharpened and plane-pruned by the
// static pre-pass result an when there is one.
func newMonitor(program *lang.Program, an *analysis.Result, opts Options) *scm.Monitor {
	var crit []uint64
	switch {
	case opts.AbstractVals && an != nil:
		// The sharpened masks are a subset of prog.CriticalVals, which
		// Def 5.5 allows: any superset of the actually-compared values
		// is a sound critical set.
		crit = append([]uint64(nil), an.Crit...)
	case opts.AbstractVals:
		crit = prog.CriticalVals(program)
	default:
		crit = prog.FullCriticalVals(program)
	}
	if an != nil {
		// Untracked planes are identically zero (scm.Monitor.Tracked),
		// so their critical sets only waste encoding width.
		for x := range crit {
			if an.Tracked&(uint64(1)<<x) == 0 {
				crit[x] = 0
			}
		}
	}
	na := make([]bool, len(program.Locs))
	for i, li := range program.Locs {
		na[i] = li.NA
	}
	mon := scm.NewMonitor(program.NumThreads(), program.NumLocs(), program.ValCount, crit, na)
	mon.SRA = opts.Model == ModelSRA
	if an != nil {
		mon.Tracked = an.Tracked
	}
	return mon
}

// annotate copies the pre-pass summary fields into a verdict.
func annotate(v *Verdict, an *analysis.Result) {
	v.Analysis = an
	v.PrunedLocs = bits.OnesCount64(an.Pruned)
	v.CritSharpened = an.CritSharpened
}

// Verify decides execution-graph robustness of the program against RA.
func Verify(program *lang.Program, opts Options) (*Verdict, error) {
	start := time.Now()
	if err := program.Validate(); err != nil {
		return nil, err
	}
	var an *analysis.Result
	if opts.StaticPrune {
		an = analysis.Analyze(program)
		if an.Certificate {
			// Certificate fast path: the conflict graph has no block with
			// two or more conflict edges (and neither assertions nor
			// non-atomic conflicts require exploration), so the program
			// is robust — against RA and a fortiori against SRA, whose
			// Theorem 5.3 conditions are a subset — with zero states.
			v := &Verdict{Robust: true, Certificate: true, Elapsed: time.Since(start)}
			annotate(v, an)
			return v, nil
		}
	}
	mon := newMonitor(program, an, opts)
	v, err := newKernel(program, prog.New(program), mon, opts).run(opts, start)
	if err != nil {
		return nil, err
	}
	v.MetadataBits = mon.Bits()
	if an != nil {
		annotate(&v, an)
	}
	return &v, nil
}

// FormatTrace renders a verdict's counterexample trace with the program's
// location names, one step per line.
func FormatTrace(program *lang.Program, trace []explore.Step) string {
	var b strings.Builder
	for i, s := range trace {
		if s.Internal != explore.IntNone {
			fmt.Fprintf(&b, "%3d: %s\n", i+1, s.Internal)
			continue
		}
		fmt.Fprintf(&b, "%3d: %s: %s\n", i+1, program.Threads[s.Tid].Name, program.FmtLabel(s.Lab))
	}
	return b.String()
}

// Explain renders a human-readable description of a verdict.
func Explain(program *lang.Program, v *Verdict) string {
	var b strings.Builder
	if v.Analysis != nil {
		b.WriteString(v.Analysis.Describe(program))
	}
	if v.Certificate {
		fmt.Fprintf(&b, "%s: ROBUST against RA by static certificate (0 states explored, %v)\n",
			program.Name, v.Elapsed)
		return b.String()
	}
	if v.Robust {
		fmt.Fprintf(&b, "%s: ROBUST against RA (%d states, %v)\n", program.Name, v.States, v.Elapsed)
		return b.String()
	}
	fmt.Fprintf(&b, "%s: NOT robust against RA (%d states, %v)\n", program.Name, v.States, v.Elapsed)
	if v.AssertFail != nil {
		t := &program.Threads[v.AssertFail.Tid]
		fmt.Fprintf(&b, "  assertion failed under SC: thread %s pc %d\n", t.Name, v.AssertFail.PC)
	}
	for _, viol := range v.Violations {
		t := &program.Threads[viol.Tid]
		switch viol.Kind {
		case scm.NARace:
			t2 := &program.Threads[viol.Tid2]
			fmt.Fprintf(&b, "  %s: %s@pc%d races with %s@pc%d on %s\n",
				viol.Kind, t.Name, viol.PC, t2.Name, viol.PC2, program.LocName(viol.Loc))
		default:
			fmt.Fprintf(&b, "  %s: thread %s at pc %d (%s), location %s\n",
				viol.Kind, t.Name, viol.PC, program.FmtInst(t, &t.Insts[viol.PC]), program.LocName(viol.Loc))
		}
	}
	if len(v.Trace) > 0 {
		b.WriteString("  SC run to the violating state:\n")
		for _, line := range strings.Split(strings.TrimRight(FormatTrace(program, v.Trace), "\n"), "\n") {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String()
}
