package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON is ../BENCHMARK.json, the declaration the driver reads.
type benchmarkJSON struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workload   `json:"workloads"`
	EndToEnd   []metricDecl `json:"end_to_end"`
	PerLayer   []metricDecl `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the declarations in the code are two copies of one
// list; this is what keeps them the same, and within the driver's caps.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if j := b.Workloads[i]; j.Name != w.Name || j.Why != w.Why {
			t.Errorf("workload %d: json %q %q, code %q %q", i, j.Name, j.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200 allowed", w.Name, len(w.Why))
		}
	}

	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not allowed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.Name)
	}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		use(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not allowed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v, want above 0 and at most 0.25", d.Name, d.Bound)
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower is better", d)
	}
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) || b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Command) == 0 {
		t.Errorf("paths %v, run_seconds %d, command %v", b.Paths, b.RunSeconds, b.Command)
	}
}

// resultLine parses the line printJSON writes.
func resultLine(t *testing.T, res *result, traced bool) (correct bool, metrics map[string]struct {
	Value *float64
	Unit  string
}) {
	t.Helper()
	var buf bytes.Buffer
	if err := res.printJSON(traced, &buf); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("%v in %s", err, buf.Bytes())
	}
	if line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("attempted %d, failed %d", line.Attempted, line.Failed)
	}
	return line.Correct, line.Metrics
}

// Every workload, at a hundredth of its size, passes its own checks and
// reports each declared metric once: the end-to-end ones from an
// untraced run, the per-layer ones from a traced run, whose spans nest.
// The crashes are made while the server is idle.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := w.run(runOpts{seed: 1, seconds: 0.1, trace: traced, shrink: 100})
				if err != nil {
					t.Fatal(err)
				}
				// Undeclared names, names set twice, spans that leave
				// their parent and negative self times all land here.
				for _, p := range append(append(res.problems, res.e2e.errs...), res.layer.errs...) {
					t.Errorf("traced=%v: %s", traced, p)
				}
				correct, got := resultLine(t, res, traced)
				if !correct {
					t.Errorf("traced=%v: run reports itself incorrect", traced)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(got) != len(want) {
					t.Errorf("traced=%v: %d metrics reported, %d declared", traced, len(got), len(want))
				}
				for _, d := range want {
					m, ok := got[d.Name]
					if !ok || m.Value == nil || m.Unit != d.Unit {
						t.Errorf("traced=%v: metric %s reported as %+v", traced, d.Name, m)
					} else if !traced && *m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, want above 0", d.Name, *m.Value)
					}
				}
				if traced && res.layer.values["core.span.client_call_ms"] <= 0 && w.kind != sutRecover {
					t.Errorf("traced run recorded no client_call span")
				}
			}
		})
	}
}

// The span arithmetic on a hand-made request: derived spans are cut
// where the recorded ones meet, and self time is what children leave.
func TestTraceSelfTime(t *testing.T) {
	tr := newTracer("msp1")
	req := reqKey(tr.session("client#1"), 1)
	tr.spans = []span{
		{req, spClientCall, 0, 100},
		{req, spMSP1Handler, 10, 80},
		{req, spReadShared, 12, 20},
		{req, spCtxCall, 20, 70},
		{req, spMSP2Handler, 30, 60},
		{req, spExecuted, 85, 85},
	}
	sum := tr.finish()
	if len(sum.problems) != 0 {
		t.Fatalf("problems: %v", sum.problems)
	}
	for name, want := range map[spanName]float64{
		spToMSP1: 10, spToMSP2: 10, spMSP2Exit: 10, spExecutedToReply: 15, spCtxCall: 50,
	} {
		if got := sum.total[name]; got != want {
			t.Errorf("%s: total %v, want %v", spanNames[name], got, want)
		}
	}
	for name, want := range map[spanName]float64{
		spClientCall: 5, spMSP1Handler: 12, spCtxCall: 0, spMSP2Handler: 30,
	} {
		if got := sum.self[name]; got != want {
			t.Errorf("%s: self %v, want %v", spanNames[name], got, want)
		}
	}

	tr.spans = append(tr.spans, span{req, spWriteShared, 75, 90}) // ends after its parent
	if sum := tr.finish(); len(sum.problems) == 0 {
		t.Errorf("a child that leaves its parent was not reported")
	}
}
