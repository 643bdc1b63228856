// Command perfbench is the dpmd benchmark. One run measures one
// workload for a fixed window and prints, as its last line, a JSON
// object with the run's correctness, request counts and metrics.
//
//	bash perfbench/run.sh --workload plan_zipf --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it starts the dpmd built from the checkout as a child
// process on loopback and drives it in a closed loop; the metrics are
// the end-to-end ones. With --trace 1 it starts no dpmd: the same
// seeded inputs go through each layer in-process with a span around
// every call, and the metrics are the per-layer ones. README.md in this
// directory describes the workloads, metrics and baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "workload: plan_zipf, plan_cold or fleet_ingest")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measurement window in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced in-process ladder instead of the live dpmd")
	dpmd := flag.String("dpmd", "", "path of the dpmd binary to drive (untraced runs)")
	spanDir := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	switch *wl {
	case "plan_zipf", "plan_cold", "fleet_ingest":
	default:
		fatal(fmt.Errorf("unknown --workload %q", *wl))
	}
	fmt.Printf("run workload=%s seed=%d seconds=%g trace=%d\n", *wl, *seed, *seconds, *traced)

	var (
		m   map[string]metric
		err error
		t   tally
	)
	if *traced == 1 {
		// The traced run checks every op and stops at the first
		// failure, so on success every op it ran passed.
		var ops int64
		m, ops, err = runTraced(*wl, *seed, *seconds, *spanDir, os.Stdout)
		t.attempted.Add(ops)
		if err != nil {
			t.attempted.Add(1)
			t.fail(err)
		}
	} else {
		if *dpmd == "" {
			fatal(fmt.Errorf("--dpmd is required for an untraced run"))
		}
		var res *liveResult
		res, err = runLive(*wl, *seed, *seconds, *dpmd, &t)
		if err == nil {
			m, err = liveReport(res, &t, os.Stdout)
		}
		if err != nil {
			t.attempted.Add(1)
			t.fail(err)
		}
	}
	for _, e := range t.errs {
		fmt.Println("check failed:", e)
	}
	if m == nil {
		fatal(fmt.Errorf("run produced no metrics"))
	}
	res := result{Correct: t.failed.Load() == 0, Attempted: t.attempted.Load(), Failed: t.failed.Load(), Metrics: m}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
