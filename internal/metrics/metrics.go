// Package metrics collects the response-time and throughput measurements
// the experiments report. All raw samples are wall-clock durations; the
// reporting helpers rescale them by the experiment's TimeScale so results
// read in the paper's model milliseconds.
//
// It also holds the process-wide event counters and maxima of the
// recovery, network, log and overload layers, but no levels: a level is
// read from the instance that owns it (core.Server.RecoveringSessions,
// wal.Log.Segments), so a crash leaves nothing here to retire.
package metrics

import (
	"sort"
	"sync"
	"time"
)

// Series accumulates duration samples.
type Series struct {
	mu      sync.Mutex
	samples []time.Duration
	sum     time.Duration
	max     time.Duration
}

// Record adds a sample.
func (s *Series) Record(d time.Duration) {
	s.mu.Lock()
	s.samples = append(s.samples, d)
	s.sum += d
	if d > s.max {
		s.max = d
	}
	s.mu.Unlock()
}

// Count returns the number of samples.
func (s *Series) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Mean returns the mean sample.
func (s *Series) Mean() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / time.Duration(len(s.samples))
}

// Max returns the largest sample.
func (s *Series) Max() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.max
}

// Percentile returns the p-th percentile (0 < p ≤ 100).
func (s *Series) Percentile(p float64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), s.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p/100*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// ModelMS converts a measured wall-clock duration into model
// milliseconds given the experiment's time scale.
func ModelMS(d time.Duration, timeScale float64) float64 {
	if timeScale <= 0 {
		return float64(d) / float64(time.Millisecond)
	}
	return float64(d) / float64(time.Millisecond) / timeScale
}

// ThroughputPerModelSecond converts a request count over a wall-clock
// elapsed time into requests per model second.
func ThroughputPerModelSecond(count int, elapsed time.Duration, timeScale float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	perWallSecond := float64(count) / elapsed.Seconds()
	if timeScale <= 0 {
		return perWallSecond
	}
	return perWallSecond * timeScale
}
