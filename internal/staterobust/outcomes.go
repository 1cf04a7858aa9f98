package staterobust

import (
	"repro/internal/lang"
	"repro/internal/prog"
)

// Outcome is one final (all threads terminated) program state, as the
// per-thread register files.
type Outcome struct {
	Regs [][]lang.Val
}

// FinalOutcomes explores the program to completion under the given model
// ("ra", "sra" or "sc") and returns the distinct final program states.
// Intended for terminating (litmus-style) programs; the exploration is
// bounded by lim. It walks the ε-granular product with the model's
// adapter and keeps only states where every thread has terminated.
func FinalOutcomes(program *lang.Program, model string, lim Limits) ([]Outcome, error) {
	var mm MemoryModel
	switch model {
	case "sc":
		mm = NewSC(program)
	case "ra":
		mm = NewRA(program, lim.RAHeadroom)
	case "sra":
		mm = NewSRA(program, lim.RAHeadroom)
	default:
		return nil, errUnknownModel(model)
	}
	p := prog.New(program)
	finals := map[string]struct{}{}
	var out []Outcome
	var buf []byte
	_, err := walk(p, mm, lim, func(_ int32, ps prog.State) bool {
		if !p.AllTerminated(ps) {
			return false
		}
		buf = p.EncodeStateRaw(buf[:0], ps)
		if insert(finals, buf) {
			o := Outcome{Regs: make([][]lang.Val, len(ps.Threads))}
			for i := range ps.Threads {
				o.Regs[i] = append([]lang.Val(nil), ps.Threads[i].Regs...)
			}
			out = append(out, o)
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

type errUnknownModel string

func (e errUnknownModel) Error() string { return "staterobust: unknown model " + string(e) }
