package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	if s.Count() != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("zero-value series not empty")
	}
	s.Record(10 * time.Millisecond)
	s.Record(30 * time.Millisecond) // the maximum is not the last sample
	s.Record(20 * time.Millisecond)
	if s.Count() != 3 {
		t.Fatalf("count %d", s.Count())
	}
	if s.Mean() != 20*time.Millisecond {
		t.Fatalf("mean %v", s.Mean())
	}
	if s.Max() != 30*time.Millisecond {
		t.Fatalf("max %v", s.Max())
	}
}

func TestPercentile(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Record(time.Duration(i) * time.Millisecond)
	}
	if p := s.Percentile(50); p != 50*time.Millisecond {
		t.Fatalf("p50 = %v", p)
	}
	if p := s.Percentile(100); p != 100*time.Millisecond {
		t.Fatalf("p100 = %v", p)
	}
	if p := s.Percentile(1); p != 1*time.Millisecond {
		t.Fatalf("p1 = %v", p)
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	prop := func(samples []int16, p uint8) bool {
		var s Series
		var min, max time.Duration
		for i, v := range samples {
			d := time.Duration(int(v)&0x7FFF) * time.Microsecond
			s.Record(d)
			if i == 0 || d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		if len(samples) == 0 {
			return s.Percentile(50) == 0
		}
		pct := float64(p%100) + 1
		got := s.Percentile(pct)
		return got >= min && got <= max
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModelMS(t *testing.T) {
	// At scale 0.02, a 1 ms wall measurement is 50 model ms.
	if got := ModelMS(time.Millisecond, 0.02); got < 49.9 || got > 50.1 {
		t.Fatalf("ModelMS = %v", got)
	}
	// Scale 0 means wall time is model time.
	if got := ModelMS(5*time.Millisecond, 0); got != 5 {
		t.Fatalf("unscaled ModelMS = %v", got)
	}
}

func TestThroughputPerModelSecond(t *testing.T) {
	// 100 requests in 1 wall second at scale 0.1 = 10 model seconds of
	// work → 10 req/model-second.
	got := ThroughputPerModelSecond(100, time.Second, 0.1)
	if got < 9.9 || got > 10.1 {
		t.Fatalf("throughput = %v", got)
	}
	if ThroughputPerModelSecond(10, 0, 1) != 0 {
		t.Fatal("zero elapsed should yield 0")
	}
}
