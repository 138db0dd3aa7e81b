package metrics

import (
	"sync"
	"testing"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Add("a", 0) // registers the name at zero
	r.Add("b", 3)
	r.Add("b", 2)
	if got := r.Get("a"); got != 0 {
		t.Fatalf("a = %d", got)
	}
	if got := r.Get("b"); got != 5 {
		t.Fatalf("b = %d", got)
	}
	if got := r.Get("missing"); got != 0 {
		t.Fatalf("missing = %d", got)
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap["a"] != 0 || snap["b"] != 5 {
		t.Fatalf("snapshot = %v", snap)
	}
	snap["b"] = 99
	if r.Get("b") != 5 {
		t.Fatal("snapshot aliases registry state")
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Add("x", 1) // must not panic
	if r.Get("x") != 0 || r.Snapshot() != nil {
		t.Fatal("nil registry not inert")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("n", 1)
			}
		}()
	}
	wg.Wait()
	if got := r.Get("n"); got != 8000 {
		t.Fatalf("n = %d, want 8000", got)
	}
}

func TestClassCounter(t *testing.T) {
	r := NewRegistry()
	slugs := []string{"drop", "tear"}
	c := NewClassCounter(r, "x_injected", len(slugs), func(i int) string { return slugs[i] })
	snap := r.Snapshot()
	if len(snap) != 3 || snap["x_injected_total"] != 0 || snap["x_injected_drop"] != 0 || snap["x_injected_tear"] != 0 {
		t.Fatalf("pre-registration = %v", snap)
	}
	c.Inc(1)
	c.Inc(1)
	if got := c.Counts(); len(got) != 2 || got["drop"] != 0 || got["tear"] != 2 {
		t.Fatalf("counts = %v", got)
	}
	if r.Get("x_injected_total") != 2 || r.Get("x_injected_tear") != 2 {
		t.Fatalf("registry mirror = %v", r.Snapshot())
	}
	unmirrored := NewClassCounter(nil, "y", 1, func(int) string { return "z" })
	unmirrored.Inc(0)
	if unmirrored.Counts()["z"] != 1 {
		t.Fatal("a nil registry dropped the count itself")
	}
}
