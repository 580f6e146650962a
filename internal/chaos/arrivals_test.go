package chaos

import (
	"testing"
	"time"
)

func TestArrivalsDeterministic(t *testing.T) {
	p := ArrivalParams{Rate: 500, Burst: 4, Seed: 42}
	a, b := NewArrivals(p), NewArrivals(p)
	for i := 0; i < 1000; i++ {
		if ga, gb := a.Next(), b.Next(); ga != gb {
			t.Fatalf("gap %d diverged: %v vs %v", i, ga, gb)
		}
	}
	c := NewArrivals(ArrivalParams{Rate: 500, Burst: 4, Seed: 43})
	same := true
	for i := 0; i < 1000; i++ {
		if a.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical gap sequences")
	}
}

func TestArrivalsMeanRate(t *testing.T) {
	const n = 100000
	a := NewArrivals(ArrivalParams{Rate: 1000, Burst: 8, Seed: 7})
	var total time.Duration
	for i := 0; i < n; i++ {
		total += a.Next()
	}
	// n arrivals at 1000/s should span ~100 s of generated gaps.
	got := total.Seconds()
	if got < 80 || got > 120 {
		t.Fatalf("100k arrivals at rate 1000 spanned %.1fs of gaps; want ~100s", got)
	}
}

func TestArrivalsBurstShape(t *testing.T) {
	const n = 8000
	burst := 8
	a := NewArrivals(ArrivalParams{Rate: 1000, Burst: burst, Seed: 1})
	zeros, positives := 0, 0
	for i := 0; i < n; i++ {
		if g := a.Next(); g == 0 {
			zeros++
		} else {
			positives++
		}
	}
	// Each burst is one positive gap followed by burst-1 zero gaps.
	if want := n / burst; positives != want {
		t.Fatalf("got %d inter-burst gaps, want %d", positives, want)
	}
	if want := n - n/burst; zeros != want {
		t.Fatalf("got %d intra-burst (zero) gaps, want %d", zeros, want)
	}

	// Burst=1 degenerates to a gap before every arrival.
	p := NewArrivals(ArrivalParams{Rate: 1000, Burst: 1, Seed: 1})
	for i := 0; i < 100; i++ {
		if p.Next() == 0 {
			t.Fatal("Burst=1 produced a zero gap")
		}
	}
}

func TestZipfKeysSkewAndDeterminism(t *testing.T) {
	const keys, draws = 64, 20000
	p := ZipfParams{Keys: keys, Skew: 1.2, Seed: 9}
	za, zb := NewZipfKeys(p), NewZipfKeys(p)
	counts := make([]int, keys)
	for i := 0; i < draws; i++ {
		ka, kb := za.Next(), zb.Next()
		if ka != kb {
			t.Fatalf("draw %d diverged: %d vs %d", i, ka, kb)
		}
		if ka < 0 || ka >= keys {
			t.Fatalf("key %d out of range [0,%d)", ka, keys)
		}
		counts[ka]++
	}
	// Key 0 must be far hotter than the uniform share, and hotter than
	// the tail key.
	uniform := draws / keys
	if counts[0] < 3*uniform {
		t.Fatalf("key 0 drawn %d times; want > %d (3x uniform share) for a skewed distribution", counts[0], 3*uniform)
	}
	if counts[0] <= counts[keys-1] {
		t.Fatalf("key 0 (%d draws) not hotter than key %d (%d draws)", counts[0], keys-1, counts[keys-1])
	}
}
