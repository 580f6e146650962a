package bench

import (
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Shape tests: run each experiment small and assert the paper's
// qualitative results (orderings and trends), which must hold at any
// scale. Margins are generous — the simulator shares one CPU with the
// test harness.

func opts() Options {
	return Options{TimeScale: 0.02, Requests: 150}
}

func modeStats(t *testing.T, rows []E1Result, mode Mode) RunStats {
	t.Helper()
	for _, r := range rows {
		if r.Mode == mode {
			return r.Stats
		}
	}
	t.Fatalf("mode %v missing from results", mode)
	return RunStats{}
}

// skipUnderRace skips timing-shape assertions whose margins are smaller
// than the race detector's per-request overhead.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("fine-grained timing shapes are unreliable under -race")
	}
}

// medianOf runs measure reps (odd) times and returns, per name, the median
// of the values it reported. One short wall-clock run has the host
// scheduler's spread, so the shape assertions compare medians; every
// value is logged so that a red run shows how far apart they were.
func medianOf(t *testing.T, reps int, measure func() map[string]float64) map[string]float64 {
	t.Helper()
	runs := map[string][]float64{}
	for range reps {
		for name, v := range measure() {
			runs[name] = append(runs[name], v)
		}
	}
	med := map[string]float64{}
	for name, vs := range runs {
		t.Logf("%s: %.1f", name, vs)
		sort.Float64s(vs)
		med[name] = vs[len(vs)/2]
	}
	return med
}

func TestE1Ordering(t *testing.T) {
	skipUnderRace(t)
	var sb strings.Builder
	o := opts()
	o.W = &sb
	mean := medianOf(t, 3, func() map[string]float64 {
		rows, err := RunE1(o)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, mode := range AllModes {
			out[mode.String()] = modeStats(t, rows, mode).MeanMS
		}
		return out
	})
	nolog := mean[NoLog.String()]
	lo := mean[LoOptimistic.String()]
	pe := mean[Pessimistic.String()]
	ps := mean[Psession.String()]
	ss := mean[StateServer.String()]
	if !(nolog < lo && nolog < pe && nolog < ps && nolog < ss) {
		t.Fatalf("NoLog (%0.1f) must be fastest: lo=%0.1f pe=%0.1f ps=%0.1f ss=%0.1f", nolog, lo, pe, ps, ss)
	}
	if lo >= pe {
		t.Fatalf("LoOptimistic (%0.1f) must beat Pessimistic (%0.1f) — the paper's headline result", lo, pe)
	}
	if pe >= ps {
		t.Fatalf("Pessimistic (%0.1f) must beat Psession (%0.1f) at m=1", pe, ps)
	}
	if ss >= lo {
		t.Fatalf("StateServer (%0.1f) must beat LoOptimistic (%0.1f) at m=1 (paper Fig. 14)", ss, lo)
	}
	if !strings.Contains(sb.String(), "LoOptimistic") {
		t.Fatal("table output missing")
	}
}

func TestE2Slopes(t *testing.T) {
	skipUnderRace(t)
	o := opts()
	o.Requests = 100
	slopes := medianOf(t, 3, func() map[string]float64 {
		rows, err := RunE2(o, []int{1, 3})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, r := range rows {
			out[r.Mode.String()] = (r.MeanMS[1] - r.MeanMS[0]) / 2
		}
		return out
	})
	loSlope, ok1 := slopes[LoOptimistic.String()]
	peSlope, ok2 := slopes[Pessimistic.String()]
	if !ok1 || !ok2 {
		t.Fatalf("a logging mode is missing from %v", slopes)
	}
	// Pessimistic pays two extra flushes (≈16 model ms) per call; locally
	// optimistic only the round trip (≈4 ms).
	if peSlope < loSlope*1.5 {
		t.Fatalf("pessimistic slope %0.1f must far exceed locally optimistic slope %0.1f", peSlope, loSlope)
	}
}

func TestE3CheckpointingCostsLittle(t *testing.T) {
	o := opts()
	rows, err := RunE3(o, []int64{64 << 10, 0})
	if err != nil {
		t.Fatal(err)
	}
	small, none := rows[0].Throughput, rows[1].Throughput
	if small <= 0 || none <= 0 {
		t.Fatalf("throughputs must be positive: %0.1f, %0.1f", small, none)
	}
	// Even an aggressive 64 KB threshold costs only a modest fraction.
	if small < none*0.6 {
		t.Fatalf("64KB checkpointing too costly: %0.1f vs %0.1f without", small, none)
	}
}

func TestE4CrashesInjected(t *testing.T) {
	o := opts()
	o.Requests = 120
	rows, err := RunE4(o, []int{0, 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Throughput <= 0 {
			t.Fatalf("%v crashEvery=%d: zero throughput", r.Mode, r.CrashEvery)
		}
		if r.CrashEvery > 0 && r.Crashes == 0 {
			t.Fatalf("%v: no crashes injected at rate 1/%d", r.Mode, r.CrashEvery)
		}
	}
	// LoOptimistic beats Pessimistic with and without crashes.
	if rows[0].Throughput <= rows[2].Throughput {
		t.Fatalf("LoOptimistic (%0.1f) must out-throughput Pessimistic (%0.1f)",
			rows[0].Throughput, rows[2].Throughput)
	}
}

func TestE5CrashDominatesMax(t *testing.T) {
	// Maximum response time is inherently noisy on a shared host (a
	// single OS scheduling hiccup lands in the max); allow one retry.
	o := opts()
	o.Requests = 120
	var lastErr string
	for attempt := 0; attempt < 2; attempt++ {
		res, err := RunE5(o, 40)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case res.LoCrash <= res.LoNoCrash:
			lastErr = "crash max must exceed no-crash max (LoOptimistic)"
		case res.PeCrash <= res.PeNoCrash:
			lastErr = "crash max must exceed no-crash max (Pessimistic)"
		default:
			return
		}
	}
	t.Fatal(lastErr)
}

func TestE6RunsAllThresholds(t *testing.T) {
	o := opts()
	o.Requests = 100
	rows, err := RunE6(o, 25, []int64{64 << 10, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Throughput <= 0 || rows[1].Throughput <= 0 {
		t.Fatalf("unexpected results: %+v", rows)
	}
}

func TestE7MultiClientScales(t *testing.T) {
	// Concurrency scaling needs spare CPU; the race detector consumes it.
	skipUnderRace(t)
	o := opts()
	o.Requests = 160
	// Five runs, not three: four clients' throughput is what other test
	// binaries' load on the host moves most, at times in two runs of three.
	tput := medianOf(t, 5, func() map[string]float64 {
		rows, err := RunE7(o, []int{1, 4})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, r := range rows {
			if !r.Batch {
				out[r.Mode.String()+"/"+strconv.Itoa(r.Clients)] = r.Throughput
			}
		}
		return out
	})
	lo1, lo4 := tput[LoOptimistic.String()+"/1"], tput[LoOptimistic.String()+"/4"]
	pe1, pe4 := tput[Pessimistic.String()+"/1"], tput[Pessimistic.String()+"/4"]
	if lo1 <= 0 || pe1 <= 0 {
		t.Fatalf("a result is missing from %v", tput)
	}
	// More clients must increase throughput for both logging methods.
	if lo4 <= lo1 {
		t.Fatalf("LoOptimistic throughput did not scale: %0.1f → %0.1f", lo1, lo4)
	}
	if pe4 <= pe1 {
		t.Fatalf("Pessimistic throughput did not scale: %0.1f → %0.1f", pe1, pe4)
	}
	// LoOptimistic stays ahead at 4 clients.
	if lo4 <= pe4 {
		t.Fatalf("LoOptimistic (%0.1f) must out-throughput Pessimistic (%0.1f) at 4 clients", lo4, pe4)
	}
}
