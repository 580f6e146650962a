// Command mspr-bench regenerates the paper's evaluation tables and
// figures (§5) on the simulated testbed.
//
// Usage:
//
//	mspr-bench [-scale 0.02] [-requests 2000] [e1|e2|e3|e4|e5|e6|e7|recovery|all ...]
//
// Results are reported in model milliseconds: wall-clock time divided by
// the time scale, directly comparable to the paper's numbers in shape
// (orderings, ratios, crossovers), though not in absolute value — the
// substrate is a simulator, not the authors' testbed.
//
// The recovery experiment additionally emits machine-readable results:
// with -recovery-out FILE, the run (labelled via -label) is appended to
// FILE's run list (BENCH_recovery.json): time-to-first-reply and
// full-drain time after a crash versus session count. Request-path
// throughput, latency and per-request allocations are measured by the
// repository's benchmark instead: bash benchmark/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mspr/internal/bench"
	"mspr/internal/simtime"
)

// recoveryRun is one labelled entry of the BENCH_recovery.json trajectory.
type recoveryRun struct {
	Label     string                `json:"label"`
	Date      string                `json:"date"`
	TimeScale float64               `json:"time_scale"`
	Points    []bench.RecoveryPoint `json:"points"`
}

type recoveryFile struct {
	Comment string        `json:"comment"`
	Runs    []recoveryRun `json:"runs"`
}

func appendRecoveryRun(path string, run recoveryRun) error {
	var f recoveryFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("existing %s is not a recovery trajectory: %w", path, err)
		}
	}
	if f.Comment == "" {
		f.Comment = "mspr instant-recovery latency trajectory; regenerate with: go run ./cmd/mspr-bench -recovery-out BENCH_recovery.json -label <label> recovery"
	}
	f.Runs = append(f.Runs, run)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func parseCounts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad session count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	scale := flag.Float64("scale", 0.02, "model-to-wall-clock time scale (1.0 = paper wall-clock)")
	requests := flag.Int("requests", 2000, "end-client requests per configuration")
	crashEvery := flag.Int("crash-every", 500, "crash injection interval for E5/E6 (requests per crash)")
	recoveryOut := flag.String("recovery-out", "", "append the recovery run to this JSON trajectory file")
	recoveryCounts := flag.String("recovery-counts", "", "comma-separated session counts for the recovery experiment (default 100,1000,10000)")
	label := flag.String("label", "dev", "label for a run in a JSON trajectory file")
	flag.Parse()

	experiments := flag.Args()
	if len(experiments) == 0 {
		experiments = []string{"all"}
	}
	run := make(map[string]bool)
	for _, e := range experiments {
		if e == "all" {
			for _, k := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "ablations"} {
				run[k] = true
			}
			continue
		}
		run[e] = true
	}

	o := bench.Options{TimeScale: *scale, Requests: *requests, W: os.Stdout}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "mspr-bench:", err)
		os.Exit(1)
	}

	if run["e1"] {
		if _, err := bench.RunE1(o); err != nil {
			fail(err)
		}
		fmt.Println()
	}
	if run["e2"] {
		if _, err := bench.RunE2(o, nil); err != nil {
			fail(err)
		}
		fmt.Println()
	}
	if run["e3"] {
		if _, err := bench.RunE3(o, nil); err != nil {
			fail(err)
		}
		fmt.Println()
	}
	if run["e4"] {
		if _, err := bench.RunE4(o, []int{0, *crashEvery * 2, *crashEvery * 3 / 2, *crashEvery}); err != nil {
			fail(err)
		}
		fmt.Println()
	}
	if run["e5"] {
		if _, err := bench.RunE5(o, *crashEvery); err != nil {
			fail(err)
		}
		fmt.Println()
	}
	if run["e6"] {
		if _, err := bench.RunE6(o, *crashEvery, nil); err != nil {
			fail(err)
		}
		fmt.Println()
	}
	if run["e7"] {
		if _, err := bench.RunE7(o, nil); err != nil {
			fail(err)
		}
		fmt.Println()
	}
	if run["recovery"] {
		counts, err := parseCounts(*recoveryCounts)
		if err != nil {
			fail(err)
		}
		points, err := bench.RunRecoveryLatency(o, counts)
		if err != nil {
			fail(err)
		}
		if *recoveryOut != "" {
			rr := recoveryRun{
				Label:     *label,
				Date:      simtime.Now().UTC().Format("2006-01-02"),
				TimeScale: *scale,
				Points:    points,
			}
			if err := appendRecoveryRun(*recoveryOut, rr); err != nil {
				fail(err)
			}
		}
		fmt.Println()
	}
	if run["ablations"] {
		if _, _, err := bench.RunAblationParallelRecovery(o, 16, 25); err != nil {
			fail(err)
		}
		fmt.Println()
		if _, err := bench.RunAblationSharedSize(o, nil); err != nil {
			fail(err)
		}
		fmt.Println()
		abo := o
		abo.Requests = o.Requests / 4
		if _, err := bench.RunAblationDomainSize(abo, nil); err != nil {
			fail(err)
		}
		fmt.Println()
	}
}
