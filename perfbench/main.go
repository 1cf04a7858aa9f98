// Command perfbench is the repository benchmark: four seeded workloads
// over the Rocker verifier, each checked against known answers.
//
//	perfbench --workload ra-big|lint-repair|models|service --seed N --seconds S --trace 0|1
//
// With --trace 0 it sets the workload up several times (reporting the
// median as setup_s), then repeats passes of the workload for S seconds
// and prints the end-to-end metrics. With --trace 1 it instead runs one
// traced pass of every workload, replays the ra-big state graph through
// the public kernel functions, and prints the per-layer metrics; the
// spans are written to --spans-dir when the run ends. Either way the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// See README.md for the workloads and the metric definitions; run.sh
// builds the binary from the checkout and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passResult is what one pass of a workload reports.
type passResult struct {
	wall   time.Duration
	states int64 // states explored during the pass
	// attempted counts the pass's checked operations (verifications,
	// repairs, lint units, model cells, requests); failed those whose
	// output failed the check, each with a line in fails.
	attempted, failed int
	fails             []string
	// lats holds the latencies of the pass's requests. It is nil for the
	// batch workloads, where the whole pass is what the user waits for.
	lats  []time.Duration
	layer map[string]metric // per-layer figures (traced passes only)
	peak  uint64            // peak heap in use during the pass, bytes
}

// fail records a failed operation.
func (r *passResult) fail(format string, args ...any) {
	r.failed++
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

// requestLats returns the pass's request latencies in milliseconds.
func (r *passResult) requestLats() []float64 {
	if r.lats == nil {
		return []float64{float64(r.wall) / 1e6}
	}
	ms := make([]float64, len(r.lats))
	for i, l := range r.lats {
		ms[i] = float64(l) / 1e6
	}
	return ms
}

// instance is a set-up workload, ready to run passes.
type instance interface {
	// pass runs the workload's fixed unit of work once. tr is nil on
	// untraced runs; root is the span the pass's spans hang under.
	pass(tr *tracer, root int32) passResult
	close()
}

// workload builds an instance from the seed.
type workload struct {
	name  string
	setup func(seed uint64) (instance, error)
}

var workloads = []workload{
	{"ra-big", setupRABig},
	{"lint-repair", setupLintRepair},
	{"models", setupModels},
	{"service", setupService},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 15

func main() {
	name := flag.String("workload", "", "workload: ra-big, lint-repair, models or service")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measuring time of an untraced run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	spansDir := flag.String("spans-dir", ".", "directory the traced run writes its spans to")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, filepath.Join(*spansDir, fmt.Sprintf("perfbench-spans-%s-%d.json", w.name, *seed)))
	} else {
		res, err = runUntraced(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setupTimed sets w up setupReps times, keeping the last instance, and
// returns it with the median set-up time.
func setupTimed(w workload, seed uint64) (instance, time.Duration, error) {
	times := make([]float64, 0, setupReps)
	var inst instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		inst, err = w.setup(seed)
		if err != nil {
			return nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
		}
		times = append(times, float64(time.Since(start)))
	}
	return inst, time.Duration(median(times)), nil
}

// measuredPass runs one pass from a collected heap, recording its peak
// heap in use.
func measuredPass(inst instance, tr *tracer, root int32) passResult {
	runtime.GC()
	hs := startHeapSampler()
	r := inst.pass(tr, root)
	r.peak = hs.finish()
	return r
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(w workload, seed uint64, budget time.Duration) (*result, error) {
	inst, setup, err := setupTimed(w, seed)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	// Each metric is the median over passes of its per-pass value, so a
	// pass disturbed by the machine, or a block of requests holding an
	// unusually large program, moves it little.
	var walls, rates, peaks, tputs, p50s, lats []float64
	res := &result{Correct: true}
	for start := time.Now(); len(walls) == 0 || time.Since(start) < budget; {
		r := measuredPass(inst, nil, -1)
		sec := r.wall.Seconds()
		walls = append(walls, sec)
		rates = append(rates, float64(r.states)/sec)
		peaks = append(peaks, float64(r.peak)/1e6)
		passLats := r.requestLats()
		tputs = append(tputs, float64(len(passLats))/sec)
		p50s = append(p50s, median(passLats))
		lats = append(lats, passLats...)
		tally(res, r)
	}
	res.Metrics = map[string]metric{
		"setup_s":        {setup.Seconds(), "s"},
		"wall_s":         {median(walls), "s"},
		"states_per_s":   {median(rates), "1/s"},
		"peak_heap_mb":   {median(peaks), "MB"},
		"throughput_rps": {median(tputs), "1/s"},
		"latency_p50_ms": {median(p50s), "ms"},
	}
	p99, ok := percentile(lats, 99)
	p99s := "n/a (fewer than 10 samples beyond)"
	if ok {
		p99s = fmt.Sprintf("%.3f ms", p99)
	}
	fmt.Fprintf(os.Stderr, "perfbench %s seed %d: %d passes, %d operations, failed_frac %.4f, p99 %s\n",
		w.name, seed, len(walls), res.Attempted, float64(res.Failed)/float64(res.Attempted), p99s)
	printMetrics(res.Metrics)
	return res, nil
}

// tally folds a pass's operation counts into the result.
func tally(res *result, r passResult) {
	res.Attempted += r.attempted
	res.Failed += r.failed
	if r.failed > 0 {
		res.Correct = false
	}
	for i, f := range r.fails {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "  ... %d more failures\n", len(r.fails)-5)
			break
		}
		fmt.Fprintln(os.Stderr, "  FAIL", f)
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// heapSampler tracks the peak of the heap in use (bytes of live and
// not-yet-swept objects) by sampling it every millisecond.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			h.peak = max(h.peak, readHeap(s))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}
