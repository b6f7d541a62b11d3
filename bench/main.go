// Command bench is the repository's one end-to-end benchmark: six
// closed-loop workloads over the public API, all nodes in this process,
// each checked for correct output.  See README.md.
//
//	bash bench/run.sh -seed 1                 the whole suite, for people
//	bash bench/run.sh -seed 1 -sets 2         the suite twice, compared
//	bash bench/run.sh --workload rr-tcp-64B --seed 1 --seconds 10 --trace 0
//	                                          one run, for the driver
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with the driver's JSON line (default: the whole suite)")
		seed    = flag.Int64("seed", 1, "seed of the generated payloads")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = traced run with the per-layer metrics")
		sets    = flag.Int("sets", 1, "run the untraced suite this many times and compare every set with the first")
		outDir  = flag.String("out", "bench/out", "directory for trace files")
		scratch = flag.String("scratch", ".bench_build/data", "directory for storage segments")
	)
	flag.Parse()
	cfg := config{seed: *seed, dir: *scratch, scale: 1}
	d := time.Duration(*seconds * float64(time.Second))

	ok := false
	switch {
	case *name != "":
		ok = single(os.Stdout, *name, cfg, d, *trace == 1, *outDir)
	case *sets > 1:
		ok = compareSets(os.Stdout, cfg, d, *sets)
	default:
		ok = suite(os.Stdout, cfg, d, *outDir)
	}
	if !ok {
		os.Exit(1)
	}
}

func printHost(out io.Writer, seed int64) {
	line, _ := json.Marshal(stampHost(seed))
	fmt.Fprintf(out, "host   %s\n", line)
}

// single is the driver's entry: one workload, one kind of run, and as
// the last line one JSON object.  It prints no result when the run could
// not be made.
func single(out io.Writer, name string, cfg config, d time.Duration, traced bool, outDir string) bool {
	spec, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return false
	}
	printHost(out, cfg.seed)
	var res result
	var err error
	if traced {
		res, err = runTraced(spec, cfg, d, outDir)
	} else {
		res, err = runUntraced(spec, cfg, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	printResult(out, res)
	printDriverLine(out, res)
	return res.Failed == 0
}

// suite runs every workload untraced and then traced, between two
// calibrations of the host.
func suite(out io.Writer, cfg config, d time.Duration, outDir string) bool {
	printHost(out, cfg.seed)
	before := spinMops(time.Second)
	fmt.Fprintf(out, "metric %-18s %-32s %14.4f %s\n", "host", "host.spin_mops.before", before, "Mop/s")
	ok := true
	for _, spec := range workloads {
		fmt.Fprintf(out, "\nworkload %s (op = %s): %s\n", spec.Name, spec.Op, spec.Why)
		plain, err := runUntraced(spec, cfg, d)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return false
		}
		printResult(out, plain)
		traced, err := runTraced(spec, cfg, d, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return false
		}
		printResult(out, traced)
		ok = ok && plain.Failed == 0 && traced.Failed == 0
	}
	after := spinMops(time.Second)
	drift := math.Abs(after-before) / before
	fmt.Fprintf(out, "\nmetric %-18s %-32s %14.4f %s\n", "host", "host.spin_mops.after", after, "Mop/s")
	fmt.Fprintf(out, "host   {\"spin_drift\":%.4f,\"noisy\":%t}\n", drift, drift > 0.10)
	return ok
}

// compareSets runs the untraced suite sets times back to back and holds
// every later set against the first: an end-to-end metric that differs
// by more than its own bound, on the same commit and host, means the
// benchmark cannot resolve a change of that size.
func compareSets(out io.Writer, cfg config, d time.Duration, sets int) bool {
	printHost(out, cfg.seed)
	all := make([][]result, sets)
	ok := true
	for s := range all {
		for _, spec := range workloads {
			res, err := runUntraced(spec, cfg, d)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return false
			}
			fmt.Fprintf(out, "set %d\n", s+1)
			printResult(out, res)
			ok = ok && res.Failed == 0
			all[s] = append(all[s], res)
		}
	}
	fmt.Fprintf(out, "\n%-18s %-10s %14s %14s %8s %6s\n", "workload", "metric", "set 1", "set n", "diff", "bound")
	for s := 1; s < sets; s++ {
		for i, first := range all[0] {
			for _, spec := range endToEnd {
				a, b := first.get(spec.Name), all[s][i].get(spec.Name)
				diff := math.Abs(b-a) / a
				verdict := "ok"
				if diff > spec.Bound {
					verdict, ok = "EXCEEDED", false
				}
				fmt.Fprintf(out, "%-18s %-10s %14.4f %14.4f %7.2f%% %5.0f%% %s\n",
					first.Workload, spec.Name, a, b, 100*diff, 100*spec.Bound, verdict)
			}
		}
	}
	return ok
}

func printResult(out io.Writer, res result) {
	for _, v := range res.Values {
		fmt.Fprintf(out, "metric %-18s %-32s %14.4f %s\n", res.Workload, v.Name, v.Value, v.Unit)
	}
	ratio := 0.0
	if res.Attempted > 0 {
		ratio = float64(res.Failed) / float64(res.Attempted)
	}
	kind := "untraced"
	if res.Traced {
		kind = "traced"
	}
	fmt.Fprintf(out, "check  %-18s %s attempted=%d failed=%d fail_ratio=%g\n", res.Workload, kind, res.Attempted, res.Failed, ratio)
	for _, n := range res.Notes {
		fmt.Fprintf(out, "note   %-18s %s\n", res.Workload, n)
	}
	for _, s := range res.Spans {
		fmt.Fprintf(out, "span   %-18s %-12s count=%d mean_us=%.3f self_us=%.3f\n", res.Workload, s.Name, s.Count, s.MeanUs, s.SelfUs)
	}
}

// printDriverLine prints the one JSON object the driver reads from the
// last line of standard output.
func printDriverLine(out io.Writer, res result) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]mv{}}
	for _, v := range res.Values {
		line.Metrics[v.Name] = mv{v.Value, v.Unit}
	}
	b, _ := json.Marshal(line)
	fmt.Fprintln(out, string(b))
}
