// Command perfbench is the repository benchmark: it runs one workload
// of the dynamic engine (sim.RunDynamic with one worker, so every run
// is deterministic) repeatedly for a fixed wall-clock budget, checks
// every run's outputs, and prints the end-to-end metrics — or, with
// --trace 1, the per-layer metrics of a traced run and a layer replay.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload flash-drift --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero
// when a run errors or fails a correctness check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "wall-clock seconds to measure for")
	traced := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	commit := fs.String("commit", "unknown", "commit the binary was built from")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the measuring to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	budget := time.Duration(*seconds) * time.Second

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.Name, *seed, *seconds, *traced)
	fmt.Fprintf(stdout, "# env cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *commit)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var (
		res  result
		rerr error
	)
	if *traced == 1 {
		res, rerr = measureLayers(w, *seed, budget, stdout)
	} else {
		res, rerr = measureEndToEnd(w, *seed, budget, stdout)
	}
	if rerr != nil {
		fmt.Fprintf(stdout, "# FAILED: %v\n", rerr)
		res.Correct = false
		res.Failed = max(res.Failed, 1)
		res.Attempted = max(res.Attempted, res.Failed)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return fmt.Errorf("workload %s seed %d failed a correctness check", w.Name, *seed)
	}
	return nil
}

// cpuModel reads the host CPU model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printMetrics writes each metric as a human-readable line, in the
// given order.
func printMetrics(w io.Writer, names []string, ms map[string]metric, note map[string]string) {
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(w, "%-36s %16.6g %-6s %s\n", n, m.Value, m.Unit, note[n])
	}
}
