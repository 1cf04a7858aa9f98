package core

import (
	"testing"

	"repro/internal/litmus"
)

// fig7SC pins, per non-Big Fig. 7 row, the plain-SC state count of
// VerifySC at Workers = 1 with partial-order reduction off (full) and on
// (reduced) — the Fig. 7 "SC" column, and what the sc mode runs. No row
// fails an assertion, so every run is a full exploration.
var fig7SC = []struct {
	name          string
	full, reduced int
}{
	{"barrier", 17, 15},
	{"dekker-sc", 73, 60},
	{"dekker-tso", 96, 74},
	{"peterson-sc", 68, 51},
	{"peterson-tso", 92, 64},
	{"peterson-ra", 113, 75},
	{"peterson-ra-dmitriy", 68, 51},
	{"peterson-ra-bratosz", 68, 51},
	{"lamport2-sc", 336, 265},
	{"lamport2-tso", 384, 297},
	{"lamport2-ra", 797, 734},
	{"spinlock", 57, 57},
	{"spinlock4", 144, 144},
	{"ticketlock", 109, 109},
	{"ticketlock4", 776, 612},
	{"seqlock", 4418, 1886},
	{"nbw-w-lr-rl", 31959, 3845},
	{"rcu", 6058, 1786},
	{"rcu-offline", 3589, 3019},
	{"cilk-the-wsq-sc", 141, 103},
	{"cilk-the-wsq-tso", 178, 133},
	{"chase-lev-sc", 660, 297},
	{"chase-lev-tso", 754, 328},
	{"chase-lev-ra", 1092, 494},
}

// TestVerifySCFig7 checks the pinned plain-SC counts, and that the reduced
// count is worker-count-independent (Workers = 4 must agree exactly).
func TestVerifySCFig7(t *testing.T) {
	pinned := make(map[string]bool, len(fig7SC))
	for _, row := range fig7SC {
		pinned[row.name] = true
	}
	for _, e := range litmus.Fig7() {
		if !e.Big && !pinned[e.Name] {
			t.Errorf("Fig. 7 entry %q has no pinned SC row", e.Name)
		}
	}
	for _, row := range fig7SC {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			e, err := litmus.Get(row.name)
			if err != nil {
				t.Fatalf("litmus.Get: %v", err)
			}
			p := e.Program()
			for _, c := range []struct {
				opts Options
				want int
			}{
				{Options{Workers: 1}, row.full},
				{Options{Workers: 1, Reduce: true}, row.reduced},
				{Options{Workers: 4, Reduce: true}, row.reduced},
			} {
				v, err := VerifySC(p, c.opts)
				if err != nil {
					t.Fatalf("VerifySC(workers=%d reduce=%v): %v", c.opts.Workers, c.opts.Reduce, err)
				}
				if v.AssertFail != nil {
					t.Errorf("workers=%d reduce=%v: unexpected assertion failure %+v", c.opts.Workers, c.opts.Reduce, v.AssertFail)
				}
				if v.States != c.want {
					t.Errorf("workers=%d reduce=%v: states = %d, want pinned %d", c.opts.Workers, c.opts.Reduce, v.States, c.want)
				}
			}
		})
	}
}
