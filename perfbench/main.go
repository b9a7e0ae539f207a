// Command perfbench is vcselnoc's benchmark. It runs one workload per
// process against the paper's spec at the coarse tier (20 µm ONI cells,
// 73 080 cells) with the mg-cg solver, checks the outputs, and prints
// one JSON line with the end-to-end metrics (-trace 0) or the per-layer
// metrics of a traced run (-trace 1).
//
//	perfbench -workload fig3-cold|transient-warmup|serve-mixed -seed N -seconds S -trace 0|1
//
// See README.md for the workloads, the metrics and the reference figures.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vcselnoc/internal/thermal"
)

// metric names a reported value and its unit. The names and units match
// BENCHMARK.json.
type metric struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports. The unit of work
// ("op") is one cold Fig. 3 flow, one implicit-Euler step or one served
// query, depending on the workload. The timings are the process's CPU
// time, not wall time (see cpuTime); the wall-clock figures are reported
// with the layers.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"op_cpu_ms", "ms"},
	{"ops_per_cpu_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every traced run reports. A layer the
// workload never calls reads 0.
var perLayer = []metric{
	{"wall.setup_s", "s"},
	{"wall.op_p50_ms", "ms"},
	{"wall.op_tail_ms", "ms"},
	{"wall.ops_per_s", "1/s"},
	{"thermal.new_model_s", "s"},
	{"mg.hierarchy_s", "s"},
	{"mg.coarse_factor_s", "s"},
	{"thermal.basis_cold_s", "s"},
	{"thermal.basis_warm_s", "s"},
	{"thermal.basis_iters", "count"},
	{"mg.smooth_s", "s"},
	{"mg.restrict_s", "s"},
	{"mg.prolong_s", "s"},
	{"mg.coarse_s", "s"},
	{"sparse.outer_cg_s", "s"},
	{"fvm.stepper_setup_s", "s"},
	{"thermal.steady_init_s", "s"},
	{"fvm.step_ms", "ms"},
	{"fvm.iters_per_step", "count"},
	{"thermal.observe_ms", "ms"},
	{"thermal.evaluate_ms", "ms"},
	{"dse.heater_opt_s", "s"},
	{"dse.comparison_s", "s"},
	{"snr.analysis_s", "s"},
	{"snr.comms_18mm", "count"},
	{"snr.comms_32mm", "count"},
	{"snr.comms_47mm", "count"},
	{"serve.gradient_p50_ms", "ms"},
	{"serve.heater_p50_ms", "ms"},
	{"serve.snr_p50_ms", "ms"},
	{"serve.sweep_p50_ms", "ms"},
	{"serve.admission_ms", "ms"},
	{"serve.coalesce_ms", "ms"},
	{"serve.batch_wait_ms", "ms"},
	{"serve.cache_ms", "ms"},
	{"serve.solve_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.coalesced_queries", "count"},
	{"serve.batch_size_mean", "count"},
	{"mg.factor_mb", "MB"},
	{"thermal.basis_mb", "MB"},
}

// setupRepeats is how many times the transient and serve workloads set
// up in one run; they report the median as setup_s.
const setupRepeats = 2

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration
	tr      *tracer
	solver  string
	workers int
}

// spec returns the paper's spec at the coarse tier with the configured
// solver.
func (c config) spec() (thermal.Spec, error) {
	spec, err := thermal.PaperSpec()
	if err != nil {
		return thermal.Spec{}, err
	}
	spec.Res = thermal.CoarseResolution()
	spec.Solver = c.solver
	spec.Workers = c.workers
	return spec, nil
}

// result is what a workload hands back: operation counts, the failures
// of its correctness checks, and its metric values by name.
type result struct {
	attempted, failed int
	checkErrs         []error
	values            map[string]float64
}

// check records a failed correctness check.
func (r *result) check(err error) {
	if err != nil {
		r.checkErrs = append(r.checkErrs, err)
	}
}

var workloads = map[string]func(config) (*result, error){
	"fig3-cold":        runFig3Cold,
	"transient-warmup": runTransientWarmup,
	"serve-mixed":      runServeMixed,
}

func main() {
	workload := flag.String("workload", "", "fig3-cold, transient-warmup or serve-mixed")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Float64("seconds", 5, "length of the measured loop in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	solver := flag.String("solver", "mg-cg", "sparse backend (reference runs compare jacobi-cg)")
	workers := flag.Int("workers", 0, "solver worker cap; 0 means GOMAXPROCS, 1 is the single-threaded baseline")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be > 0 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		tr:      newTracer(*trace == 1),
		solver:  *solver,
		workers: *workers,
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := cfg.tr.write(traceFile(*workload, *seed)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		os.Exit(1)
	}
	res.values["peak_rss_mb"] = peakRSSMB()
	for _, e := range res.checkErrs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %v\n", *workload, e)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: attempted %d, failed %d, checks failed %d\n",
		*workload, res.attempted, res.failed, len(res.checkErrs))
	if wall, err := json.Marshal(map[string]float64{
		"setup_s": res.values["wall.setup_s"], "op_p50_ms": res.values["wall.op_p50_ms"],
		"op_tail_ms": res.values["wall.op_tail_ms"], "ops_per_s": res.values["wall.ops_per_s"],
	}); err == nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: wall clock %s\n", *workload, wall)
	}

	set := endToEnd
	if *trace == 1 {
		set = perLayer
	}
	metrics := make(map[string]any, len(set))
	for _, m := range set {
		v, ok := res.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   len(res.checkErrs) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if len(res.checkErrs) > 0 || res.failed > 0 {
		os.Exit(1)
	}
}

// collect frees what the previous set-up or flow left behind before the
// next one starts. The second collection frees what sync.Pools kept
// through the first (their victim caches), so the peak RSS is one
// model's.
func collect() {
	runtime.GC()
	runtime.GC()
}

// traceFile is where a traced run writes its spans, relative to the
// working directory (the repository root when run.py starts it).
func traceFile(workload string, seed int64) string {
	return filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))
}

// peakRSSMB reads the process's own peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle value of xs (the mean of the two middle ones for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the CPU time, user and system, that the process's
// threads have used so far. Under a guest kernel with paravirtual steal
// accounting, time the hypervisor hands to other guests is not in it,
// while it is in every wall-clock figure. That is why the end-to-end
// timings are CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// opMetrics fills the metrics shared by every workload. cpuOps holds the
// CPU time of each operation (on serve-mixed, each round's CPU time per
// query) and cpu the measured loop's CPU time over n operations; wallOps
// and wall are the same in wall-clock time.
func opMetrics(values map[string]float64, n int, cpuOps []time.Duration, cpu time.Duration, wallOps []time.Duration, wall time.Duration) {
	values["op_cpu_ms"] = median(msOf(cpuOps))
	values["ops_per_cpu_s"] = float64(n) / cpu.Seconds()
	xs := msOf(wallOps)
	values["wall.op_p50_ms"] = median(xs)
	values["wall.op_tail_ms"] = tail(xs)
	values["wall.ops_per_s"] = float64(n) / wall.Seconds()
}

func msOf(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return xs
}

// secondsMedian is the median of ds in seconds.
func secondsMedian(ds []time.Duration) float64 {
	return median(msOf(ds)) / 1000
}

// tail returns the highest percentile, up to the 99th, that has at
// least ten samples beyond it; with fewer than forty samples there is no
// such tail and it returns the median.
func tail(xs []float64) float64 {
	n := float64(len(xs))
	if n < 40 {
		return median(xs)
	}
	return quantile(xs, min(0.99, 1-10/n))
}
