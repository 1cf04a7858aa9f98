package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fence"
	"repro/internal/frontend"
	"repro/internal/lang"
	"repro/internal/litmus"
)

// lint-repair: the fence-repair search on every repairable non-robust
// Figure 7 and §3 litmus row, then golint over the examples/go units. The
// cost is thousands of small oracle core.Verify calls, so per-call set-up
// and the search dominate.

// repairPins holds the rows with the repair size fence.Enforce finds for
// each of them (fencer CLI defaults: up to 4 fences). A repair may get
// smaller, never larger. dcl-na-broken, the one non-robust row without a
// repair within the bound, is left out.
var repairPins = map[string]int{
	"lamport2-sc": 4, "lamport2-tso": 2, "dekker-sc": 2, "peterson-sc": 4,
	"peterson-tso": 2, "peterson-ra-bratosz": 4, "cilk-the-wsq-sc": 2,
	"chase-lev-sc": 3, "chase-lev-tso": 2, "SB": 2, "IRIW": 2, "2+2W": 2,
	"2+2W-nor": 2, "SB-zero": 2, "SB+RMWs-split": 2, "BAR-loop": 2,
}

// golintPin is a unit's pinned lint outcome: its ra and sra verdicts and
// the Go source lines of its witness and repair findings.
type golintPin struct {
	ra, sra            bool
	witnesses, repairs []int
}

// golintPins are the examples/go verdicts pinned by the frontend corpus
// test. chaselev is left out: its repair search takes minutes.
var golintPins = map[string]golintPin{
	"dcl":        {ra: true, sra: true},
	"dekker":     {ra: false, sra: false, witnesses: []int{27}, repairs: []int{20, 27}},
	"rcu":        {ra: true, sra: true},
	"seqlock":    {ra: true, sra: true},
	"spsc":       {ra: true, sra: true},
	"ticketlock": {ra: true, sra: true},
}

// golintDir is where the golint units live, relative to the checkout root.
var golintDir = filepath.Join("examples", "go")

type repairRow struct {
	name    string
	program *lang.Program
	maxSize int
}

type golintUnit struct {
	name  string
	files []string
}

type lintRepair struct {
	rows  []repairRow
	units []golintUnit
	// The repair oracle's work in one pass: states expanded and
	// core.Verify calls, counted once by countOracle.
	oracleStates, oracleCalls int64
}

func setupLintRepair(uint64) (instance, error) {
	w := &lintRepair{}
	for _, e := range litmus.All() {
		size, ok := repairPins[e.Name]
		if !ok {
			continue
		}
		if e.RobustRA {
			return nil, fmt.Errorf("repair row %s is robust", e.Name)
		}
		w.rows = append(w.rows, repairRow{e.Name, e.Program(), size})
	}
	if len(w.rows) != len(repairPins) {
		return nil, fmt.Errorf("found %d of %d repair rows", len(w.rows), len(repairPins))
	}
	names := make([]string, 0, len(golintPins))
	for n := range golintPins {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		files, err := filepath.Glob(filepath.Join(golintDir, n, "*.go"))
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no Go files in %s: %w", filepath.Join(golintDir, n), os.ErrNotExist)
		}
		w.units = append(w.units, golintUnit{n, files})
	}
	return w, nil
}

func (w *lintRepair) close() {}

// oracleOptions are the fencer CLI's oracle defaults on the sequential
// engine.
func oracleOptions() core.Options {
	return core.Options{AbstractVals: true, Workers: 1}
}

// countOracle runs the repair searches once more with a core.Options
// Progress hook on every expansion, counting the oracle's expanded states
// and its calls (a call's first expansion reports Expanded 1). The
// sequential oracle makes both counts the same on every pass; the hook
// stays out of the timed passes, where it would slow the small calls.
func (w *lintRepair) countOracle() {
	var states, calls int64
	opts := oracleOptions()
	opts.ProgressEvery = 1
	opts.Progress = func(p core.Progress) {
		states++
		if p.Expanded == 1 {
			calls++
		}
	}
	for _, row := range w.rows {
		_, _, _ = fence.Enforce(row.program, fence.Options{Verify: opts}) // the timed passes gate the outcome
	}
	w.oracleStates, w.oracleCalls = states, calls
}

// golintOptions are the rocker golint CLI defaults with -models ra,sra on
// the sequential engine (deterministic first witness).
func golintOptions() frontend.LintOptions {
	return frontend.LintOptions{Models: []string{"ra", "sra"}, MaxStates: 2_000_000, Workers: 1}
}

type repairOut struct {
	pls   []fence.Placement
	fixed *lang.Program
	err   error
}

type lintOut struct {
	pkg *frontend.Package
	rep *frontend.UnitReport
	err error
}

func (w *lintRepair) pass(tr *tracer, root int32) passResult {
	if w.oracleCalls == 0 {
		w.countOracle()
	}
	r := passResult{attempted: len(w.rows) + len(w.units)}
	repairs := make([]repairOut, len(w.rows))
	lints := make([]lintOut, len(w.units))
	var enforce, translate, lint time.Duration
	start := time.Now()
	for i, row := range w.rows {
		t := time.Now()
		id := tr.begin(root, "fence.Enforce")
		o := &repairs[i]
		o.pls, o.fixed, o.err = fence.Enforce(row.program, fence.Options{Verify: oracleOptions()})
		tr.end(id)
		enforce += time.Since(t)
	}
	for i, u := range w.units {
		t := time.Now()
		o := &lints[i]
		id := tr.begin(root, "frontend.TranslateFiles")
		o.pkg, o.err = frontend.TranslateFiles(u.files)
		tr.end(id)
		translate += time.Since(t)
		if o.err == nil && len(o.pkg.Units) == 1 {
			tl := time.Now()
			id := tr.begin(root, "frontend.LintUnit")
			o.rep, o.err = frontend.LintUnit(o.pkg.Units[0], golintOptions())
			tr.end(id)
			lint += time.Since(tl)
		}
	}
	r.wall = time.Since(start)
	r.states = w.oracleStates

	repairSize := 0
	for i, row := range w.rows {
		repairSize += len(repairs[i].pls)
		if msg := checkRepair(row, repairs[i]); msg != "" {
			r.fail("lint-repair %s: %s", row.name, msg)
		}
	}
	for i, u := range w.units {
		if msg := checkLint(u.name, lints[i]); msg != "" {
			r.fail("lint-repair golint %s: %s", u.name, msg)
		}
	}
	if tr != nil {
		r.layer = map[string]metric{
			"fence.enforce_s":       {enforce.Seconds(), "s"},
			"fence.repair_size":     {float64(repairSize), "count"},
			"fence.oracle_states":   {float64(r.states), "count"},
			"core.verify_calls":     {float64(w.oracleCalls), "count"},
			"frontend.translate_ms": {float64(translate) / 1e6, "ms"},
			"frontend.lint_ms":      {float64(lint) / 1e6, "ms"},
		}
	}
	return r
}

// checkRepair gates one repair: found, no larger than the pinned size,
// and the repaired program re-verifies robust.
func checkRepair(row repairRow, o repairOut) string {
	if o.err != nil {
		return o.err.Error()
	}
	if len(o.pls) == 0 || len(o.pls) > row.maxSize {
		return fmt.Sprintf("repair size %d, want 1..%d", len(o.pls), row.maxSize)
	}
	v, err := core.Verify(o.fixed, oracleOptions())
	if err != nil {
		return "re-verify: " + err.Error()
	}
	if !v.Robust {
		return "repaired program is not robust"
	}
	return ""
}

// checkLint gates one golint unit against its pins.
func checkLint(name string, o lintOut) string {
	if o.err != nil {
		return o.err.Error()
	}
	if len(o.pkg.Declined) != 0 || len(o.pkg.Units) != 1 {
		return fmt.Sprintf("%d units, %d declined; want 1 unit", len(o.pkg.Units), len(o.pkg.Declined))
	}
	pin := golintPins[name]
	if o.rep.Verdicts["ra"] != pin.ra || o.rep.Verdicts["sra"] != pin.sra {
		return fmt.Sprintf("verdicts ra=%v sra=%v, want ra=%v sra=%v",
			o.rep.Verdicts["ra"], o.rep.Verdicts["sra"], pin.ra, pin.sra)
	}
	var witnesses, repairs []int
	for _, f := range o.rep.Findings {
		if strings.Contains(f.Message, "witness:") {
			witnesses = append(witnesses, f.Pos.Line)
		}
		if strings.Contains(f.Message, "suggested fix:") {
			repairs = append(repairs, f.Pos.Line)
		}
	}
	if got := dedupSorted(witnesses); !equalInts(got, pin.witnesses) {
		return fmt.Sprintf("witness lines %v, want %v", got, pin.witnesses)
	}
	if got := dedupSorted(repairs); !equalInts(got, pin.repairs) {
		return fmt.Sprintf("repair lines %v, want %v", got, pin.repairs)
	}
	return ""
}

func dedupSorted(xs []int) []int {
	sort.Ints(xs)
	var out []int
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
