// Command run simulates a single random execution of a program under a
// chosen memory model (sc, ra, sra or tso) and prints the interleaved
// trace with the final registers — a debugging companion to the
// exhaustive tools: where cmd/rocker proves, cmd/run shows one concrete
// run, weak-memory effects included.
//
// Usage:
//
//	run -model ra -seed 7 file.lit
//	run -model ra -corpus SB -tries 200    # hunt for a weak outcome
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/parser"
	"repro/internal/prog"
	"repro/internal/staterobust"
)

func main() {
	model := flag.String("model", "ra", "memory model: sc, ra, sra or tso")
	seed := flag.Int64("seed", 1, "scheduler seed")
	tries := flag.Int("tries", 1, "number of runs (distinct seeds from -seed up)")
	maxSteps := flag.Int("maxsteps", 10_000, "step budget per run")
	corpusName := flag.String("corpus", "", "run a built-in corpus program")
	flag.Parse()

	var program *lang.Program
	switch {
	case *corpusName != "":
		e, err := litmus.Get(*corpusName)
		if err != nil {
			fatal(err)
		}
		program = e.Program()
	case flag.NArg() == 1:
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		program, err = parser.Parse(string(src))
		if err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: run -model sc|ra|sra|tso [flags] file.lit")
		os.Exit(2)
	}

	mm, err := newModel(program, *model)
	if err != nil {
		fatal(err)
	}
	for i := 0; i < *tries; i++ {
		s := *seed + int64(i)
		verbose := *tries == 1
		if runOnce(program, mm, s, *maxSteps, verbose) && !verbose {
			fmt.Printf("seed %d: assertion failed — weak outcome found; replay with -seed %d -tries 1\n", s, s)
			os.Exit(1)
		}
	}
	if *tries > 1 {
		fmt.Printf("%d runs, no assertion failures\n", *tries)
	}
}

// newModel returns the memory model named on the command line.
func newModel(program *lang.Program, model string) (staterobust.MemoryModel, error) {
	switch model {
	case "sc":
		return staterobust.NewSC(program), nil
	case "ra":
		return staterobust.NewRA(program, 0), nil
	case "sra":
		return staterobust.NewSRA(program, 0), nil
	case "tso":
		return staterobust.NewTSO(program, 0), nil
	}
	return nil, fmt.Errorf("unknown model %q (want sc, ra, sra or tso)", model)
}

// runOnce simulates one run; returns true if an assertion failed. Each
// step picks uniformly among the enabled moves — a thread's ε step, a
// thread's memory operation, or a memory-internal transition (a TSO
// flush) — and, for a memory operation, uniformly among the successors
// the model offers for it.
func runOnce(program *lang.Program, mm staterobust.MemoryModel, seed int64, maxSteps int, verbose bool) bool {
	rng := rand.New(rand.NewSource(seed))
	p := prog.New(program)
	st := p.InitStateRaw()
	m := mm.Init()

	say := func(format string, args ...any) {
		if verbose {
			fmt.Printf(format+"\n", args...)
		}
	}
	type move struct {
		t     int
		succs []staterobust.Succ // nil for an ε step
		flush bool
	}
	for step := 0; step < maxSteps; step++ {
		var moves []move
		for t := range p.Threads {
			th := &p.Threads[t]
			ts := st.Threads[t]
			if th.Terminated(ts) {
				continue
			}
			if th.AtEps(ts) {
				moves = append(moves, move{t: t})
				continue
			}
			if succs := mm.Steps(nil, m, lang.Tid(t), th.Op(ts)); len(succs) > 0 {
				moves = append(moves, move{t: t, succs: succs})
			}
		}
		for t := range p.Threads {
			if succs := mm.Internal(nil, m, lang.Tid(t)); len(succs) > 0 {
				moves = append(moves, move{t: t, succs: succs, flush: true})
			}
		}
		if len(moves) == 0 {
			break // all terminated or blocked
		}
		mv := moves[rng.Intn(len(moves))]
		th := &p.Threads[mv.t]
		ts := st.Threads[mv.t]
		if mv.succs == nil {
			next, afail := th.StepEps(ts)
			if afail != nil {
				say("%3d: %s: ASSERTION FAILED at pc %d", step, program.Threads[mv.t].Name, afail.PC)
				return true
			}
			st.Threads[mv.t] = next
			continue
		}
		sc := mv.succs[0]
		if len(mv.succs) > 1 {
			sc = mv.succs[rng.Intn(len(mv.succs))]
		}
		m = sc.M
		if mv.flush {
			say("%3d: %s: (flush)", step, program.Threads[mv.t].Name)
			continue
		}
		st.Threads[mv.t] = th.ApplyRaw(ts, sc.Lab)
		say("%3d: %s: %s", step, program.Threads[mv.t].Name, program.FmtLabel(sc.Lab))
	}
	if verbose {
		fmt.Println("final registers:")
		for t := range p.Threads {
			fmt.Printf("  %s:", program.Threads[t].Name)
			for r, v := range st.Threads[t].Regs {
				fmt.Printf(" %s=%d", program.Threads[t].RegNames[r], v)
			}
			fmt.Println()
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "run:", err)
	os.Exit(2)
}
