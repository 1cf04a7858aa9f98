package service_test

// Mode-matrix service tests: the instrumented TSO mode end-to-end, the
// registry-driven unknown-mode error, the tso / state-tso cache split,
// and per-item mode overrides surviving cluster forwarding.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestModeTSOEndToEnd: mode "tso" — the attack-based instrumented checker
// — through the full rockerd path: SB is TSO-non-robust, MP is robust,
// and a resubmission is a cache hit under the "tso" key.
func TestModeTSOEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, service.Config{MaxJobs: 2, Workers: 2})
	cases := []struct {
		prog   string
		robust bool
	}{
		{"SB", false},
		{"MP", true},
		{"2RMW", true},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL, service.VerifyRequest{
			Source: corpusSource(t, c.prog), Mode: service.ModeTSO, Wait: true,
		})
		var snap service.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("%s: bad body %s", c.prog, body)
		}
		if resp.StatusCode != http.StatusOK || snap.Status != service.StatusDone ||
			snap.Result == nil || snap.Result.Robust != c.robust {
			t.Errorf("%s/tso: code=%d snapshot=%+v, want robust=%v",
				c.prog, resp.StatusCode, snap, c.robust)
		}
		if snap.Result != nil && snap.Result.Mode != service.ModeTSO {
			t.Errorf("%s: result mode %q, want tso", c.prog, snap.Result.Mode)
		}
	}
}

// TestModeTSOCacheDistinctFromStateTSO is the aliasing regression: the
// instrumented ("tso") and exhaustive ("state-tso") runs of one program
// must memoize under distinct verdict-cache keys — a state-tso submission
// after a tso one runs fresh and reports its own mode and counts.
func TestModeTSOCacheDistinctFromStateTSO(t *testing.T) {
	_, ts := newTestServer(t, service.Config{MaxJobs: 2, Workers: 2})
	src := corpusSource(t, "MP")

	submit := func(mode string) (bool, *service.Result) {
		resp, body := postJSON(t, ts.URL, service.VerifyRequest{Source: src, Mode: mode, Wait: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %s: code %d (%s)", mode, resp.StatusCode, body)
		}
		var v struct {
			Cached bool            `json:"cached"`
			Status string          `json:"status"`
			Result *service.Result `json:"result"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("mode %s: bad body %s", mode, body)
		}
		if v.Result == nil {
			t.Fatalf("mode %s: no result in %s", mode, body)
		}
		return v.Cached, v.Result
	}

	if cached, res := submit(service.ModeTSO); cached || res.Mode != service.ModeTSO {
		t.Fatalf("first tso run: cached=%v mode=%q, want fresh tso", cached, res.Mode)
	}
	if cached, res := submit(service.ModeTSO); !cached || res.Mode != service.ModeTSO {
		t.Errorf("second tso run: cached=%v mode=%q, want memory hit", cached, res.Mode)
	}
	// Same digest, different mode: must NOT be served from the tso entry.
	cached, res := submit(service.ModeStateTSO)
	if cached {
		t.Errorf("state-tso run served from cache — tso/state-tso keys alias")
	}
	if res.Mode != service.ModeStateTSO {
		t.Errorf("state-tso result mode = %q", res.Mode)
	}
	if !res.Robust {
		t.Errorf("MP/state-tso: not robust")
	}
}

// TestUnknownModeEnumerates: the 400 for a bad mode lists the supported
// modes from the model registry (both in /v1/verify and per batch item),
// so client errors are self-describing and the list cannot drift from the
// dispatch table.
func TestUnknownModeEnumerates(t *testing.T) {
	_, ts := newTestServer(t, service.Config{})
	resp, body := postJSON(t, ts.URL, service.VerifyRequest{
		Source: corpusSource(t, "SB"), Mode: "x86",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("code = %d, want 400 (%s)", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"ra", "sra", "sc", "tso", "state-ra", "state-sra", "state-tso"} {
		if !strings.Contains(e.Error, mode) {
			t.Errorf("verify 400 %q does not mention mode %s", e.Error, mode)
		}
	}

	lines, _, code := postBatch(t, ts.URL, service.BatchRequest{
		Items: []service.VerifyRequest{{Source: corpusSource(t, "SB"), Mode: "x86"}},
	})
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if l := lines[0]; l.Status != "error" || !strings.Contains(l.Error, "state-tso") {
		t.Errorf("batch line = %+v, want error enumerating modes", l)
	}
}

// TestBatchItemModeOverrideCluster: per-item mode overrides must survive
// cluster forwarding — two items with the same peer-owned digest but
// different modes both resolve on the owner, each under its own mode and
// cache key.
func TestBatchItemModeOverrideCluster(t *testing.T) {
	nodes, _ := newTestCluster(t, 2, func(i int, cfg *service.Config) {
		cfg.MaxJobs = 2
	})
	theirs := genProgramOwnedBy(t, nodes[0].cl, "n2")

	lines, summary, code := postBatch(t, nodes[0].url(), service.BatchRequest{
		Mode: service.ModeRA, // top-level default the items override
		Items: []service.VerifyRequest{
			{Source: theirs, Mode: service.ModeTSO},
			{Source: theirs, Mode: service.ModeStateTSO},
			{Source: theirs}, // inherits the top-level ra default
		},
	})
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if summary.Done != 3 {
		t.Fatalf("summary = %+v, want 3 done", summary)
	}
	wantModes := []string{service.ModeTSO, service.ModeStateTSO, service.ModeRA}
	for i, want := range wantModes {
		l := lines[i]
		if l.Status != service.StatusDone || l.Result == nil {
			t.Errorf("item %d = %+v, want done with result", i, l)
			continue
		}
		if l.Result.Mode != want {
			t.Errorf("item %d: result mode %q, want %q — per-item mode lost in forwarding", i, l.Result.Mode, want)
		}
	}
	if st := nodeStats(t, nodes[0]); st.PeerForwards < 3 {
		t.Errorf("n1 peerForwards = %d, want >= 3", st.PeerForwards)
	}
}

// TestBufBoundHitReported: a TSO verification whose store buffer
// overflows the capacity (8 entries) must carry bufBoundHit in its
// result, so a client can tell the robust verdict is not certified; a
// run within the capacity omits the field.
func TestBufBoundHitReported(t *testing.T) {
	_, ts := newTestServer(t, service.Config{MaxJobs: 2, Workers: 1})
	nineWrites := "program nine-writes\nvals 2\nlocs x y\nthread t1\n" +
		strings.Repeat("  x := 1\n", 9) + "  a := y\nend\nthread t2\n  y := 1\nend\n"
	for _, c := range []struct {
		src string
		hit bool
	}{{nineWrites, true}, {corpusSource(t, "MP"), false}} {
		for _, mode := range []string{service.ModeTSO, service.ModeStateTSO} {
			resp, body := postJSON(t, ts.URL, service.VerifyRequest{Source: c.src, Mode: mode, Wait: true})
			var snap service.Snapshot
			if err := json.Unmarshal(body, &snap); err != nil || resp.StatusCode != http.StatusOK || snap.Result == nil {
				t.Fatalf("%s: code=%d body=%s", mode, resp.StatusCode, body)
			}
			if snap.Result.BufBoundHit != c.hit {
				t.Errorf("%s: bufBoundHit = %v, want %v (%s)", mode, snap.Result.BufBoundHit, c.hit, body)
			}
			if got := strings.Contains(string(body), `"bufBoundHit"`); got != c.hit {
				t.Errorf("%s: bufBoundHit field present = %v, want %v", mode, got, c.hit)
			}
		}
	}
}
