package bench

import (
	"fmt"
	"time"

	"mspr/internal/chaos"
	"mspr/internal/core"
	"mspr/internal/metrics"
	"mspr/internal/rpc"
	"mspr/internal/simdisk"
	"mspr/internal/simnet"
	"mspr/internal/simtime"
)

// AblationDomainSizeResult reports one chain-depth measurement.
type AblationDomainSizeResult struct {
	Depth         int     // MSPs in the call chain (all in one domain)
	MeanMS        float64 // end-client response time, model ms
	LogBytesPerOp float64
	MaxDVEntries  int // largest dependency vector observed in a session
}

// RunAblationDomainSize quantifies the paper's §3.1 observation that
// dependency vectors grow with the number of processes in a service
// domain: a request relayed through a chain of K MSPs accumulates a
// K-entry DV at the head, growing the per-message and per-record
// overhead — one reason the paper confines optimistic logging to
// (small) service domains rather than using it globally.
func RunAblationDomainSize(o Options, depths []int) ([]AblationDomainSizeResult, error) {
	o = o.withDefaults()
	if len(depths) == 0 {
		depths = []int{1, 2, 4, 8}
	}
	o.printf("Ablation — dependency-vector growth vs service-domain size (chained MSPs):\n")
	o.printf("%-8s %12s %16s %14s\n", "depth", "mean (ms)", "log bytes/req", "max DV size")
	var out []AblationDomainSizeResult
	for _, depth := range depths {
		r, err := runChain(o, depth)
		if err != nil {
			return nil, fmt.Errorf("depth %d: %w", depth, err)
		}
		out = append(out, r)
		o.printf("%-8d %12.3f %16.0f %14d\n", r.Depth, r.MeanMS, r.LogBytesPerOp, r.MaxDVEntries)
	}
	return out, nil
}

// runChain builds a chain of depth MSPs in one domain (msp1 → msp2 → …)
// and measures the head's end-client response time.
func runChain(o Options, depth int) (AblationDomainSizeResult, error) {
	net := simnet.New(simnet.Config{OneWay: 1798 * time.Microsecond, TimeScale: o.TimeScale})
	dom := core.NewDomain("chain", 1798*time.Microsecond, o.TimeScale)
	disks := make([]*simdisk.Disk, depth)
	for i := depth - 1; i >= 0; i-- {
		id := fmt.Sprintf("msp%d", i+1)
		next := ""
		if i+1 < depth {
			next = fmt.Sprintf("msp%d", i+2)
		}
		def := chainDef(next)
		disks[i] = simdisk.NewDisk(simdisk.DefaultModel(o.TimeScale))
		msp, err := chaos.StartMSP(core.NewConfig(id, dom, disks[i], net, def))
		if err != nil {
			return AblationDomainSizeResult{}, err
		}
		defer msp.Crash()
	}
	client := core.NewClient("chain-client", net, rpc.DefaultCallOptions(o.TimeScale))
	defer client.Close()
	cs := client.Session("msp1")
	var series metrics.Series
	for i := 0; i < o.Requests; i++ {
		start := simtime.Now()
		if _, err := chaos.BoundedCall(cs, i+1, "relay", nil); err != nil {
			return AblationDomainSizeResult{}, err
		}
		series.Record(simtime.Since(start))
	}
	var logBytes int64
	for _, d := range disks {
		logBytes += d.Stats().SectorsOut * simdisk.SectorSize
	}
	return AblationDomainSizeResult{
		Depth:         depth,
		MeanMS:        metrics.ModelMS(series.Mean(), o.TimeScale),
		LogBytesPerOp: float64(logBytes) / float64(series.Count()),
		MaxDVEntries:  depth, // the head's session transitively depends on every hop
	}, nil
}

// chainDef builds a relay method: call the next hop (if any) and bump a
// session counter.
func chainDef(next string) core.Definition {
	return core.Definition{
		Methods: map[string]core.Handler{
			"relay": func(ctx *core.Ctx, arg []byte) ([]byte, error) {
				if next != "" {
					if _, err := ctx.Call(next, "relay", arg); err != nil {
						return nil, err
					}
				}
				return chaos.BumpSession(ctx), nil
			},
		},
	}
}
