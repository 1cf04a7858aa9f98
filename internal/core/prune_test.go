package core

import (
	"testing"

	"repro/internal/litmus"
	"repro/internal/parser"
)

// fig7Prune pins, per Figure 7 row, the sequential exact-mode state count
// without and with the static pre-pass, and the number of locations the
// pass prunes. Seven robust rows shrink strictly — the fence-bearing rows
// (dekker-tso, peterson-ra, lamport2-*: the fence location is RMW-pure,
// so its plane is dropped) and the array/flag rows whose private or
// conflict-cycle-free locations fall outside every dangerous block
// (chase-lev-ra, cilk-the-wsq-tso, rcu-offline). Rows where every
// location sits on a conflict cycle are unchanged, as they must be.
var fig7Prune = []struct {
	name            string
	base, pruned    int
	prunedLocs      int
	strictlySmaller bool
}{
	{"barrier", 17, 17, 0, false},
	{"chase-lev-ra", 6104, 4224, 2, true},
	{"chase-lev-tso", 840, 840, 2, false},
	{"chase-lev-sc", 678, 678, 1, false},
	{"cilk-the-wsq-tso", 416, 357, 2, true},
	{"cilk-the-wsq-sc", 80, 80, 1, false},
	{"rcu-offline", 37610, 35762, 1, true},
	{"rcu", 21775, 21775, 0, false},
	{"nbw-w-lr-rl", 55272, 55272, 0, false},
	{"seqlock", 9778, 9778, 0, false},
	{"ticketlock4", 1045, 1045, 1, false},
	{"ticketlock", 139, 139, 1, false},
	{"spinlock4", 241, 241, 0, false},
	{"spinlock", 77, 77, 0, false},
	{"lamport2-3-ra", 15980451, 15401413, 1, true},
	{"lamport2-ra", 7466, 7306, 1, true},
	{"lamport2-tso", 114, 114, 1, false},
	{"lamport2-sc", 55, 55, 0, false},
	{"peterson-ra-bratosz", 20, 20, 0, false},
	{"peterson-ra-dmitriy", 140, 140, 0, false},
	{"peterson-ra", 474, 376, 1, true},
	{"peterson-tso", 28, 28, 1, false},
	{"peterson-sc", 20, 20, 0, false},
	{"dekker-tso", 209, 177, 1, true},
	{"dekker-sc", 14, 14, 0, false},
}

// TestStaticPruneFig7 checks verdict parity and the pinned state-space
// effect of the static pre-pass on every Figure 7 row. Robust-row counts
// must never grow; the seven rows marked strictlySmaller must shrink.
// Non-robust rows stop at the first violation, but sequential BFS is
// deterministic, so their counts are pinned too.
func TestStaticPruneFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 7 sweep")
	}
	rows := map[string]bool{}
	for _, e := range litmus.Fig7() {
		rows[e.Name] = true
	}
	for _, want := range fig7Prune {
		if !rows[want.name] {
			t.Errorf("pinned row %s missing from litmus.Fig7", want.name)
		}
	}
	if len(fig7Prune) != len(rows) {
		t.Errorf("pinned table has %d rows, Fig7 has %d", len(fig7Prune), len(rows))
	}
	entries := map[string]litmus.Entry{}
	for _, e := range litmus.Fig7() {
		entries[e.Name] = e
	}
	for _, want := range fig7Prune {
		want := want
		e, ok := entries[want.name]
		if !ok {
			continue
		}
		t.Run(want.name, func(t *testing.T) {
			if want.name != bigRow {
				t.Parallel()
			}
			p, err := parser.Parse(e.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			base, err := verifyRow(want.name, p, Options{AbstractVals: true, Workers: 1})
			if err != nil {
				t.Fatalf("base verify: %v", err)
			}
			pruned, err := verifyRow(want.name, p, Options{AbstractVals: true, Workers: 1, StaticPrune: true})
			if err != nil {
				t.Fatalf("pruned verify: %v", err)
			}
			if base.Robust != pruned.Robust {
				t.Fatalf("verdict flip: base robust=%v pruned robust=%v", base.Robust, pruned.Robust)
			}
			if base.Robust != e.RobustRA {
				t.Fatalf("verdict %v, Figure 7 says %v", base.Robust, e.RobustRA)
			}
			if base.States != want.base || pruned.States != want.pruned {
				t.Errorf("states base=%d pruned=%d, pinned %d/%d",
					base.States, pruned.States, want.base, want.pruned)
			}
			if pruned.PrunedLocs != want.prunedLocs {
				t.Errorf("prunedLocs=%d, pinned %d", pruned.PrunedLocs, want.prunedLocs)
			}
			if base.Robust && pruned.States > base.States {
				t.Errorf("pruned run explored MORE states: %d > %d", pruned.States, base.States)
			}
			if want.strictlySmaller && pruned.States >= base.States {
				t.Errorf("expected strict shrink, got base=%d pruned=%d", base.States, pruned.States)
			}
			if pruned.Certificate {
				t.Errorf("no Fig. 7 row should be discharged statically (all have conflict cycles or asserts)")
			}
		})
	}
}

// TestStaticPruneParallelParity checks that pruned exploration keeps the
// engine invariant: verdicts and full-run state counts are worker-count
// independent.
func TestStaticPruneParallelParity(t *testing.T) {
	for _, name := range []string{"peterson-ra", "dekker-tso", "chase-lev-ra"} {
		e, err := litmus.Get(name)
		if err != nil {
			t.Fatalf("missing corpus entry %s: %v", name, err)
		}
		p := parser.MustParse(e.Source)
		seq, err := Verify(p, Options{AbstractVals: true, Workers: 1, StaticPrune: true})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Verify(p, Options{AbstractVals: true, Workers: 4, StaticPrune: true})
		if err != nil {
			t.Fatal(err)
		}
		if seq.Robust != par.Robust || seq.States != par.States {
			t.Errorf("%s: seq robust=%v states=%d, par robust=%v states=%d",
				name, seq.Robust, seq.States, par.Robust, par.States)
		}
	}
}
