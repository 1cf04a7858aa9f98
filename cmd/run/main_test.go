package main

import (
	"testing"

	"repro/internal/parser"
)

// sbObserved is store buffering with an observer: each reader publishes
// what it read (plus one, so the observer can tell "published" from the
// initial 0), and the observer, once both are published, asserts that
// not both readers saw the stale 0 — the outcome SC forbids and RA, SRA
// and TSO allow.
const sbObserved = `
program SB-observed
vals 3
locs x y p1 p2
thread t1
  x := 1
  a := y
  p1 := a + 1
end
thread t2
  y := 1
  b := x
  p2 := b + 1
end
thread obs
L1:
  c := p1
  if c = 0 goto L1
L2:
  d := p2
  if d = 0 goto L2
  assert !(c = 1 && d = 1)
end
`

// TestRunFindsWeakOutcome drives the simulator the way run -tries does:
// within 300 seeded runs the stale-read outcome must show up under every
// weak model, and it must never show up under SC.
func TestRunFindsWeakOutcome(t *testing.T) {
	program := parser.MustParse(sbObserved)
	const tries = 300
	for _, model := range []string{"sc", "ra", "sra", "tso"} {
		mm, err := newModel(program, model)
		if err != nil {
			t.Fatal(err)
		}
		found := -1
		for seed := int64(1); seed <= tries && found < 0; seed++ {
			if runOnce(program, mm, seed, 10_000, false) {
				found = int(seed)
			}
		}
		if model == "sc" {
			if found >= 0 {
				t.Errorf("sc: assertion failed at seed %d; SC forbids the outcome", found)
			}
		} else if found < 0 {
			t.Errorf("%s: no assertion failure in %d runs", model, tries)
		}
	}
}

func TestNewModelRejectsUnknown(t *testing.T) {
	if _, err := newModel(parser.MustParse(sbObserved), "power"); err == nil {
		t.Error("newModel(power): want error")
	}
}
