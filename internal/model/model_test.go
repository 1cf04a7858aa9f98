package model

import (
	"errors"
	"testing"

	"repro/internal/litmus"
	"repro/internal/staterobust"
)

// stateTSOPins records, for every non-Big corpus row, what the state-tso
// mode answers at the rocker -models defaults (2M state bound, buffer
// capacity 8): the verdict ("bound" for ErrBound), the compound states
// explored, and the SC/weak program-state projection counts with
// Limits.Reduce off and on. Reduce folds only the projection sets, so the
// verdict and Explored do not depend on it. No row hits the buffer bound.
var stateTSOPins = []struct {
	name           string
	verdict        string
	explored       int
	sc, weak       int
	scRed, weakRed int
}{
	{"ttas-spin", "robust", 312, 152, 152, 152, 152},
	{"ttas-wait", "robust", 155, 75, 75, 75, 75},
	{"dcl", "robust", 331, 169, 169, 86, 86},
	{"dcl-na-broken", "robust", 103, 61, 61, 32, 32},
	{"treiber-stack", "robust", 724, 559, 559, 559, 559},
	{"lamport2-sc", "violation", 419, 600, 87, 600, 87},
	{"lamport2-tso", "violation", 534, 649, 172, 649, 172},
	{"lamport2-ra", "robust", 2653, 909, 909, 909, 909},
	{"spinlock", "robust", 672, 224, 224, 224, 224},
	{"spinlock4", "robust", 10125, 3125, 3125, 3125, 3125},
	{"ticketlock", "robust", 1176, 448, 448, 448, 448},
	{"ticketlock4", "robust", 39944, 14632, 14632, 14632, 14632},
	{"seqlock", "robust", 1472252, 1010986, 1010986, 510554, 510554},
	{"nbw-w-lr-rl", "bound", 0, 0, 0, 0, 0},
	{"barrier", "robust", 63, 24, 24, 24, 24},
	{"dekker-sc", "violation", 20, 217, 13, 217, 13},
	{"dekker-tso", "robust", 513, 206, 206, 206, 206},
	{"peterson-sc", "violation", 60, 290, 27, 290, 27},
	{"peterson-tso", "robust", 821, 335, 335, 335, 335},
	{"peterson-ra", "robust", 831, 368, 368, 368, 368},
	{"peterson-ra-dmitriy", "robust", 635, 326, 326, 326, 326},
	{"peterson-ra-bratosz", "violation", 290, 290, 103, 290, 103},
	{"rcu", "robust", 856444, 393139, 393139, 393139, 393139},
	{"rcu-offline", "robust", 34395, 16084, 16084, 16084, 16084},
	{"cilk-the-wsq-sc", "violation", 371, 565, 97, 565, 97},
	{"cilk-the-wsq-tso", "robust", 1366, 658, 658, 658, 658},
	{"chase-lev-sc", "violation", 4592, 10112, 1996, 5257, 1072},
	{"chase-lev-tso", "robust", 16487, 10688, 10688, 5557, 5557},
	{"chase-lev-ra", "robust", 19340, 12381, 12381, 6424, 6424},
	{"SB", "violation", 15, 13, 9, 13, 9},
	{"MP", "robust", 23, 13, 13, 13, 13},
	{"IRIW", "robust", 164, 97, 97, 97, 97},
	{"LB", "robust", 22, 13, 13, 13, 13},
	{"CoRR", "robust", 12, 9, 9, 9, 9},
	{"disjoint-fence", "robust", 25, 16, 16, 16, 16},
	{"2+2W", "robust", 111, 22, 22, 22, 22},
	{"2+2W-nor", "robust", 42, 9, 9, 9, 9},
	{"SB-zero", "robust", 25, 9, 9, 9, 9},
	{"2RMW", "robust", 5, 5, 5, 3, 3},
	{"SB+RMWs", "robust", 31, 22, 22, 22, 22},
	{"SB+RMWs-split", "robust", 31, 22, 22, 22, 22},
	{"BAR-loop", "violation", 15, 20, 9, 20, 9},
}

// TestStateTSOPins pins the exhaustive TSO engine row by row, so that a
// change to the product explorer or the TSO adapter that moves any count
// shows up here. seqlock, rcu and nbw-w-lr-rl take seconds each and run
// only without -short.
func TestStateTSOPins(t *testing.T) {
	pins := map[string]int{}
	for i, pin := range stateTSOPins {
		pins[pin.name] = i
	}
	for _, e := range litmus.All() {
		if e.Big {
			continue
		}
		i, ok := pins[e.Name]
		if !ok {
			t.Errorf("%s: no state-tso pin", e.Name)
			continue
		}
		pin := stateTSOPins[i]
		if testing.Short() && (pin.name == "seqlock" || pin.name == "rcu" || pin.name == "nbw-w-lr-rl") {
			continue
		}
		p := e.Program()
		for _, reduce := range []bool{false, true} {
			res, err := Check(ModeStateTSO, p, staterobust.Limits{MaxStates: 2_000_000, TSOBufCap: 8, Workers: 1, Reduce: reduce})
			if pin.verdict == "bound" {
				if !errors.Is(err, staterobust.ErrBound) {
					t.Errorf("%s reduce=%v: err = %v, want ErrBound", pin.name, reduce, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s reduce=%v: %v", pin.name, reduce, err)
			}
			sc, weak := pin.sc, pin.weak
			if reduce {
				sc, weak = pin.scRed, pin.weakRed
			}
			if res.Robust != (pin.verdict == "robust") || res.Explored != pin.explored ||
				res.SCStates != sc || res.WeakStates != weak || res.BufBoundHit {
				t.Errorf("%s reduce=%v: robust=%v explored=%d sc=%d weak=%d bufBoundHit=%v, want %s %d %d %d false",
					pin.name, reduce, res.Robust, res.Explored, res.SCStates, res.WeakStates, res.BufBoundHit,
					pin.verdict, pin.explored, sc, weak)
			}
		}
	}
}

// TestRAAdapterParity checks the RA/SRA adapters against the specialized
// engines: same verdict and same program-state projection counts (both
// explorations are exhaustive on robust rows, and the projection sets are
// canonical regardless of exploration order).
func TestRAAdapterParity(t *testing.T) {
	rows := []string{"MP", "SB", "2RMW", "barrier", "BAR-loop"}
	for _, name := range rows {
		e, err := litmus.Get(name)
		if err != nil {
			t.Fatalf("litmus.Get(%q): %v", name, err)
		}
		p := e.Program()
		lim := staterobust.Limits{MaxStates: 4_000_000, Workers: 1}
		for _, sra := range []bool{false, true} {
			mm := staterobust.NewRA(p, 0)
			var want *staterobust.Result
			var err error
			if sra {
				mm = staterobust.NewSRA(p, 0)
				want, err = staterobust.CheckSRA(p, lim)
			} else {
				want, err = staterobust.CheckRA(p, lim)
			}
			if err != nil {
				t.Fatalf("%s sra=%v: specialized: %v", name, sra, err)
			}
			got, err := staterobust.CheckState(p, mm, lim)
			if err != nil {
				t.Fatalf("%s sra=%v: CheckState: %v", name, sra, err)
			}
			if got.Robust != want.Robust {
				t.Errorf("%s sra=%v: Robust = %v, specialized engine says %v", name, sra, got.Robust, want.Robust)
			}
			if got.SCStates != want.SCStates {
				t.Errorf("%s sra=%v: SCStates = %d, want %d", name, sra, got.SCStates, want.SCStates)
			}
			if want.Robust && got.WeakStates != want.WeakStates {
				t.Errorf("%s sra=%v: WeakStates = %d, want %d", name, sra, got.WeakStates, want.WeakStates)
			}
		}
	}
}

// TestSCAdapter: the SC model explores exactly the SC-reachable set, so
// the product is trivially robust and the weak projection count equals
// the SC count.
func TestSCAdapter(t *testing.T) {
	for _, name := range []string{"barrier", "dekker-sc", "spinlock"} {
		e, err := litmus.Get(name)
		if err != nil {
			t.Fatalf("litmus.Get(%q): %v", name, err)
		}
		p := e.Program()
		res, err := staterobust.CheckState(p, staterobust.NewSC(p), staterobust.Limits{MaxStates: 2_000_000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Robust {
			t.Errorf("%s: SC-vs-SC product reported non-robust", name)
		}
		if res.WeakStates != res.SCStates {
			t.Errorf("%s: WeakStates = %d, SCStates = %d — must coincide for the SC model", name, res.WeakStates, res.SCStates)
		}
	}
}
