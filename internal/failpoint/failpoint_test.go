package failpoint

import (
	"slices"
	"sync"
	"testing"
)

func TestNilRegistryNeverFires(t *testing.T) {
	var r *Registry
	if _, ok := r.Eval("anything"); ok {
		t.Fatal("nil registry fired")
	}
	if r.Armed("anything") || r.Hits("anything") != 0 {
		t.Fatal("nil registry reports state")
	}
	r.Disable("anything") // must not panic
	r.DisableAll()
}

func TestDefaultEnableFiresOnce(t *testing.T) {
	r := New(1)
	r.Enable("p")
	if !r.Armed("p") {
		t.Fatal("not armed after Enable")
	}
	if _, ok := r.Eval("p"); !ok {
		t.Fatal("armed point did not fire")
	}
	if r.Armed("p") {
		t.Fatal("one-shot point still armed after firing")
	}
	if _, ok := r.Eval("p"); ok {
		t.Fatal("one-shot point fired twice")
	}
	if r.Hits("p") != 1 {
		t.Fatalf("hits = %d, want 1", r.Hits("p"))
	}
}

func TestTimesAndSkipFirst(t *testing.T) {
	r := New(2)
	r.Enable("p", Times(2), SkipFirst(3))
	fired := 0
	for i := 0; i < 10; i++ {
		if _, ok := r.Eval("p"); ok {
			fired++
			if i < 3 {
				t.Fatalf("fired at evaluation %d despite SkipFirst(3)", i)
			}
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want 2", fired)
	}
}

func TestArgDelivered(t *testing.T) {
	r := New(3)
	r.Enable("p", Arg(42))
	h, ok := r.Eval("p")
	if !ok || h.Arg != 42 {
		t.Fatalf("hit = %+v ok=%v, want Arg 42", h, ok)
	}
	if h.R < 0 {
		t.Fatalf("per-hit random value %d is negative", h.R)
	}
}

func TestHitRIsSeededAndDeterministic(t *testing.T) {
	run := func(seed int64) []int64 {
		r := New(seed)
		r.Enable("p", Times(-1))
		var rs []int64
		for i := 0; i < 20; i++ {
			h, ok := r.Eval("p")
			if !ok {
				t.Fatalf("unlimited point stopped firing at %d", i)
			}
			rs = append(rs, h.R)
		}
		return rs
	}
	if a, b := run(7), run(7); !slices.Equal(a, b) {
		t.Fatalf("same seed, different per-hit values:\n%v\n%v", a, b)
	}
	if slices.Equal(run(7), run(8)) {
		t.Fatal("different seeds produced identical per-hit values")
	}
}

func TestUnlimitedTimes(t *testing.T) {
	r := New(4)
	r.Enable("p", Times(-1))
	for i := 0; i < 50; i++ {
		if _, ok := r.Eval("p"); !ok {
			t.Fatalf("unlimited point stopped firing at %d", i)
		}
	}
	r.Disable("p")
	if _, ok := r.Eval("p"); ok {
		t.Fatal("fired after Disable")
	}
	if r.Hits("p") != 50 {
		t.Fatalf("hits = %d, want 50 (preserved across Disable)", r.Hits("p"))
	}
}

func TestReEnableReplaces(t *testing.T) {
	r := New(5)
	r.Enable("p", Times(100))
	r.Enable("p") // replaces: back to one shot
	r.Eval("p")
	if _, ok := r.Eval("p"); ok {
		t.Fatal("re-enable did not replace the old arming")
	}
}

func TestConcurrentEval(t *testing.T) {
	r := New(6)
	r.Enable("p", Times(10))
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, ok := r.Eval("p"); ok {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fired != 10 {
		t.Fatalf("Times(10) fired %d times under concurrency", fired)
	}
}

func TestIsInjected(t *testing.T) {
	if !IsInjected(ErrInjected) {
		t.Fatal("ErrInjected not recognized")
	}
	if IsInjected(nil) {
		t.Fatal("nil recognized as injected")
	}
}
