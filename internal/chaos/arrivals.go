package chaos

import (
	"math/rand"
	"time"
)

// Open-loop arrival and skewed key-selection generators for saturation
// storms. The paper's experiments (and the closed-loop chaos storms) are
// closed-loop: each actor waits for its reply before issuing the next
// request, so offered load can never exceed capacity and overload never
// happens. An overload storm needs the opposite — an arrival process
// that keeps offering work regardless of completions — plus the skewed
// key popularity (Zipf) under which shared-variable contention and
// adaptive-logging questions actually show up.

// ArrivalParams configures an open-loop bursty arrival process.
type ArrivalParams struct {
	// Rate is the long-run mean arrival rate in arrivals per wall-clock
	// second, independent of Burst.
	Rate float64
	// Burst is the number of arrivals delivered back-to-back per burst;
	// 1 yields a plain Poisson process. Bursts are separated by
	// exponential gaps with mean Burst/Rate, so the long-run rate stays
	// Rate while short windows see Burst-deep spikes.
	Burst int
	// Seed makes the process deterministic.
	Seed int64
}

// Arrivals generates inter-arrival gaps for an open-loop bursty arrival
// process. Not safe for concurrent use: one generator drives one
// arrival loop.
type Arrivals struct {
	p         ArrivalParams
	rng       *rand.Rand
	remaining int // arrivals left in the current burst
}

// NewArrivals returns a deterministic arrival-gap generator. Rate must
// be positive; a Burst below 1 is treated as 1.
func NewArrivals(p ArrivalParams) *Arrivals {
	if p.Rate <= 0 {
		p.Rate = 1
	}
	if p.Burst < 1 {
		p.Burst = 1
	}
	return &Arrivals{p: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// Next returns the wall-clock gap to wait before the next arrival: zero
// within a burst, an exponential inter-burst gap (mean Burst/Rate)
// otherwise.
func (a *Arrivals) Next() time.Duration {
	if a.remaining > 0 {
		a.remaining--
		return 0
	}
	a.remaining = a.p.Burst - 1
	meanGap := float64(a.p.Burst) / a.p.Rate // seconds between bursts
	return time.Duration(a.rng.ExpFloat64() * meanGap * float64(time.Second))
}

// ZipfParams configures skewed key selection.
type ZipfParams struct {
	// Keys is the size of the key space; Next returns values in [0, Keys).
	Keys int
	// Skew is the Zipf exponent s (must exceed 1; larger is more skewed).
	// Values at or below 1 select the 1.2 default, a conventional
	// moderate skew for storage benchmarks.
	Skew float64
	// Seed makes the selection deterministic.
	Seed int64
}

// ZipfKeys selects keys with Zipf-distributed popularity: key 0 is the
// hottest, key Keys-1 the coldest. Not safe for concurrent use.
type ZipfKeys struct {
	z *rand.Zipf
}

// NewZipfKeys returns a deterministic Zipf key selector.
func NewZipfKeys(p ZipfParams) *ZipfKeys {
	if p.Keys < 1 {
		p.Keys = 1
	}
	if p.Skew <= 1 {
		p.Skew = 1.2
	}
	rng := rand.New(rand.NewSource(p.Seed))
	return &ZipfKeys{z: rand.NewZipf(rng, p.Skew, 1, uint64(p.Keys-1))}
}

// Next returns the next key in [0, Keys).
func (k *ZipfKeys) Next() int { return int(k.z.Uint64()) }
