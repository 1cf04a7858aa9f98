package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/prog"
	"repro/internal/service"
	"repro/internal/verkey"
)

// service: an in-process rockerd (service.New) behind a loopback HTTP
// listener, driven by a closed loop of nproc clients sending wait-mode
// POST /v1/verify requests from the seeded gen.Stream mix with 30%
// renamed duplicates. The programs are tiny, so HTTP/JSON, parsing, the
// digest, the cache key, the LRU and the job queue carry most of the
// work, and the duplicates exercise the verdict cache.

const (
	serviceDupPercent = 30
	// serviceMaxThreads caps the generated programs at 3 threads. With
	// the generator's default of 4, a few programs per 10,000 need
	// seconds and millions of states, and which seeds draw them decides
	// the run; with 3 the largest take about a second.
	serviceMaxThreads = 3
	// serviceBlock is the number of requests in one pass: small enough
	// that a run holds dozens of passes, so the few passes that meet one
	// of the stream's rare large programs barely move the medians.
	serviceBlock = 250
	// serviceStreamLen is the length of the stream prefix the passes
	// cycle through. A fixed prefix bounds the largest program a run can
	// meet, whatever its length; the verdict cache (256 entries) has long
	// forgotten a program when the cycle brings it back, so only the
	// stream's own duplicates hit it.
	serviceStreamLen = 4000
	// serviceTracedBlock is the traced pass's size: large enough that at
	// least minBeyond requests lie beyond the p99.
	serviceTracedBlock = 2000
)

// serviceVerifyOptions mirror how the server runs an "ra" job with the
// benchmark's configuration (Workers: 1, default state bound); the gate
// verifies every program directly with them.
func serviceVerifyOptions() core.Options {
	return core.Options{AbstractVals: true, Workers: 1, MaxStates: serviceMaxStates}
}

// serviceMaxStates is the server's default per-job state bound.
const serviceMaxStates = 8 << 20

type serviceInst struct {
	srv    *service.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	url    string
	client *http.Client
	srcs   []string             // the stream prefix
	bodies [][]byte             // its request bodies
	next   int                  // index of the next request in the stream
	truth  map[prog.Digest]bool // direct verdicts, memoized for the gate
}

func clients() int { return runtime.NumCPU() }

func setupService(seed uint64) (instance, error) {
	srv, err := service.New(service.Config{MaxJobs: clients(), Workers: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &serviceInst{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients()}},
		srcs:   make([]string, serviceStreamLen),
		bodies: make([][]byte, serviceStreamLen),
		truth:  map[prog.Digest]bool{},
	}
	stream := gen.NewStream(gen.New(gen.Config{Seed: seed, NoExtras: true, MaxThreads: serviceMaxThreads}),
		gen.StreamConfig{Seed: seed, DupPercent: serviceDupPercent})
	for i := range w.srcs {
		w.srcs[i], _ = stream.Request(i)
		body, err := json.Marshal(service.VerifyRequest{Source: w.srcs[i], Mode: service.ModeRA, Wait: true})
		if err != nil {
			panic(err) // a struct of strings and bools always marshals
		}
		w.bodies[i] = body
	}
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	resp, err := w.client.Get(w.url + "/v1/healthz")
	if err != nil {
		w.close()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return w, nil
}

func (w *serviceInst) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.client.CloseIdleConnections()
	_ = w.hs.Shutdown(ctx) // the listener is closed either way
	<-w.served
	_ = w.srv.Drain(ctx) // jobs are all finished: wait-mode clients saw them end
}

// reply is the union of the cached and the job-snapshot responses.
type reply struct {
	Cached bool            `json:"cached"`
	Status string          `json:"status"`
	Result *service.Result `json:"result"`
	Error  string          `json:"error"`
}

type request struct {
	src  string
	body []byte
	lat  time.Duration
	code int
	rep  reply
	err  error
}

func (w *serviceInst) pass(tr *tracer, root int32) passResult {
	n := serviceBlock
	if tr != nil {
		n = serviceTracedBlock
	}
	reqs := make([]request, n)
	for i := range reqs {
		j := (w.next + i) % serviceStreamLen
		reqs[i] = request{src: w.srcs[j], body: w.bodies[j]}
	}
	w.next += n
	var before statsReply
	if tr != nil {
		before = w.stats()
	}

	var idx atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(idx.Add(1)) - 1
				if i >= n {
					return
				}
				id := tr.begin(root, "service.verify")
				w.send(&reqs[i])
				tr.end(id)
			}
		}()
	}
	wg.Wait()
	r := passResult{wall: time.Since(start), attempted: n, lats: make([]time.Duration, n)}
	for i := range reqs {
		q := &reqs[i]
		r.lats[i] = q.lat
		if msg := w.check(q); msg != "" {
			r.fail("service request %d: %s", (w.next-n+i)%serviceStreamLen, msg)
		} else if !q.rep.Cached {
			r.states += int64(q.rep.Result.States)
		}
	}
	if tr != nil {
		r.layer = w.traceLayers(tr, root, reqs, before)
	}
	return r
}

// send posts one request, timing it from send to the decoded reply.
func (w *serviceInst) send(q *request) {
	start := time.Now()
	resp, err := w.client.Post(w.url+"/v1/verify", "application/json", bytes.NewReader(q.body))
	if err != nil {
		q.lat, q.err = time.Since(start), err
		return
	}
	q.err = json.NewDecoder(resp.Body).Decode(&q.rep)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	q.lat, q.code = time.Since(start), resp.StatusCode
}

// check gates one reply: a 200 with a finished verdict that matches a
// direct core.Verify of the same source. Errors, 429s, failed or canceled
// jobs and state-bound hits all fail.
func (w *serviceInst) check(q *request) string {
	switch {
	case q.err != nil:
		return q.err.Error()
	case q.code != http.StatusOK:
		return fmt.Sprintf("HTTP %d: %s", q.code, q.rep.Error)
	case q.rep.Result == nil:
		return fmt.Sprintf("status %q without a result: %s", q.rep.Status, q.rep.Error)
	case !q.rep.Cached && q.rep.Status != service.StatusDone:
		return fmt.Sprintf("status %q", q.rep.Status)
	}
	want, err := w.directVerdict(q.src)
	if err != nil {
		return "direct verify: " + err.Error()
	}
	if q.rep.Result.Robust != want {
		return fmt.Sprintf("robust = %v, direct core.Verify says %v", q.rep.Result.Robust, want)
	}
	return ""
}

func (w *serviceInst) directVerdict(src string) (bool, error) {
	p, err := parser.Parse(src)
	if err != nil {
		return false, err
	}
	if err := p.Validate(); err != nil {
		return false, err
	}
	d := prog.CanonicalDigest(p)
	if v, ok := w.truth[d]; ok {
		return v, nil
	}
	v, err := core.Verify(p, serviceVerifyOptions())
	if err != nil {
		return false, err
	}
	w.truth[d] = v.Robust
	return v.Robust, nil
}

// statsReply is the part of GET /v1/stats the benchmark reads.
type statsReply struct {
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
}

func (w *serviceInst) stats() statsReply {
	var s statsReply
	resp, err := w.client.Get(w.url + "/v1/stats")
	if err != nil {
		return s
	}
	defer resp.Body.Close()
	_ = json.NewDecoder(resp.Body).Decode(&s) // a failed read leaves zeros, reported as such
	return s
}

// traceLayers replays each request's parse, digest, cache key and (for
// requests the server verified rather than served from its cache) the
// verification, in spans, and derives the service's per-layer figures.
// The overhead of a request is its latency minus its replayed
// parse+digest+verify time: HTTP, JSON, queueing and the cache.
func (w *serviceInst) traceLayers(tr *tracer, root int32, reqs []request, before statsReply) map[string]metric {
	after := w.stats()
	var parse, digest, key, overhead, lats []float64
	for i := range reqs {
		q := &reqs[i]
		if q.err != nil || q.rep.Result == nil {
			continue
		}
		pid := tr.begin(root, "parser.Parse")
		p, err := parser.Parse(q.src)
		if err == nil {
			err = p.Validate()
		}
		tr.end(pid)
		if err != nil {
			continue
		}
		did := tr.begin(root, "prog.CanonicalDigest")
		d := prog.CanonicalDigest(p)
		tr.end(did)
		kid := tr.begin(root, "verkey.Key")
		_ = verkey.Key(d, service.ModeRA, serviceMaxStates, false, false, false)
		tr.end(kid)
		var verify time.Duration
		if !q.rep.Cached {
			vid := tr.begin(root, "core.Verify")
			_, _ = core.Verify(p, serviceVerifyOptions()) // the verdict was gated already
			tr.end(vid)
			verify = tr.dur(vid)
		}
		pd, dd := tr.dur(pid), tr.dur(did)
		parse = append(parse, float64(pd)/1e3)
		digest = append(digest, float64(dd)/1e3)
		key = append(key, float64(tr.dur(kid))/1e3)
		overhead = append(overhead, float64(q.lat-pd-dd-verify)/1e6)
		lats = append(lats, float64(q.lat)/1e6)
	}
	hits := float64(after.CacheHits - before.CacheHits)
	lookups := hits + float64(after.CacheMisses-before.CacheMisses)
	out := map[string]metric{
		"parser.parse_us":         {median(parse), "us"},
		"prog.digest_us":          {median(digest), "us"},
		"verkey.key_us":           {median(key), "us"},
		"service.overhead_ms":     {median(overhead), "ms"},
		"service.cache_hit_ratio": {hits / max(lookups, 1), "ratio"},
	}
	if p99, ok := percentile(lats, 99); ok {
		out["service.latency_p99_ms"] = metric{p99, "ms"}
	}
	return out
}
