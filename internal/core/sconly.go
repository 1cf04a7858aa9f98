package core

import (
	"time"

	"repro/internal/lang"
	"repro/internal/prog"
)

// SCVerdict is the result of a plain SC exploration.
type SCVerdict struct {
	// AssertFail reports a failed user assertion, if any.
	AssertFail *prog.AssertFailure
	// States is the number of distinct ⟨program, SC memory⟩ states.
	States int
	// Elapsed is the wall-clock exploration time.
	Elapsed time.Duration
	// AmpleHits, SleepSkips and SymmetryFolds mirror Verdict's reduction
	// counters; all 0 unless Options.Reduce.
	AmpleHits, SleepSkips, SymmetryFolds int64
}

// VerifySC explores the program under plain (uninstrumented) sequential
// consistency, checking only user assertions. This is the paper's "SC"
// comparison column in Figure 7: the cost of ordinary SC model checking,
// against which the robustness instrumentation's overhead is measured. It
// runs Verify's exploration kernel and drivers with the plain SC memory as
// the memory half.
func VerifySC(program *lang.Program, opts Options) (*SCVerdict, error) {
	start := time.Now()
	if err := program.Validate(); err != nil {
		return nil, err
	}
	v, err := newKernel(program, prog.New(program), nil, opts).run(opts, start)
	if err != nil {
		return nil, err
	}
	return &SCVerdict{AssertFail: v.AssertFail, States: v.States, Elapsed: v.Elapsed,
		AmpleHits: v.AmpleHits, SleepSkips: v.SleepSkips, SymmetryFolds: v.SymmetryFolds}, nil
}
