package main

import (
	"sync"
	"testing"
	"time"
)

func TestSelfTimeNested(t *testing.T) {
	// root [0,100) has children a [10,40) and b [50,60); a has child c
	// [20,30) in another layer.
	spans := []span{
		{ID: 0, Parent: -1, Name: "fence.Enforce", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "core.Verify", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "core.Verify", Start: 50, End: 60},
		{ID: 3, Parent: 1, Name: "scm.Step", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	for layer, want := range map[string]time.Duration{"fence": 60, "core": 30, "scm": 10} {
		if self[layer] != want {
			t.Errorf("self[%s] = %d, want %d", layer, self[layer], want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Concurrent children overlap: the covered part is their union, and a
	// child running past its parent's end is clipped.
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.service", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "service.verify", Start: 10, End: 50},
		{ID: 2, Parent: 0, Name: "service.verify", Start: 30, End: 70},
		{ID: 3, Parent: 0, Name: "service.verify", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	if self["bench"] != 30 { // 100 - |[10,70) ∪ [90,100)|
		t.Errorf("self[bench] = %d, want 30", self["bench"])
	}
	if self["service"] != 40+40+30 {
		t.Errorf("self[service] = %d, want 110", self["service"])
	}
}

func TestTracerRecordsTree(t *testing.T) {
	tr := newTracer()
	root := tr.begin(-1, "bench.lint-repair")
	tr.end(tr.begin(root, "fence.Enforce"))
	tr.end(root)
	other := tr.begin(-1, "core.Verify")
	tr.end(other)
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if c := spans[1]; c.Parent != root || c.Req != root || c.layer() != "fence" {
		t.Errorf("child span = %+v, want parent and request %d in layer fence", c, root)
	}
	if spans[2].Req != other {
		t.Errorf("second root's request = %d, want its own id %d", spans[2].Req, other)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %+v not closed", s)
		}
	}
}

func TestNilTracer(t *testing.T) {
	var tr *tracer
	id := tr.begin(-1, "core.Verify")
	if id != -1 {
		t.Errorf("nil tracer returned span id %d, want -1", id)
	}
	tr.end(id) // must not panic
}

// The service pass opens spans from every client goroutine at once.
func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	root := tr.begin(-1, "bench.service")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.end(tr.begin(root, "service.verify"))
			}
		}()
	}
	wg.Wait()
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 401 {
		t.Fatalf("got %d spans, want 401", len(spans))
	}
	for _, s := range spans[1:] {
		if s.Parent != root || s.Req != root || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
	}
}
