// Command perfbench is the repository benchmark. It drives the split
// compilation system only through its public constructors — splitvm.New and
// the engine's Compile/Load/Deploy/Run/RunKernel/EnsureCompiled, server.New
// and server.NewRouter on loopback TCP listeners — and checks every
// operation against an oracle.
//
// Usage:
//
//	perfbench --workload fleet-run|fleet-deploy|kernel-matrix --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
// traced run instead (see README.md for the layer map). The process exits
// non-zero when any operation failed or disagreed with its oracle.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/target"
	"repro/pkg/splitvm"
)

// setups is how many times a run builds its workload's set-up; setup_s is
// the median, so one slow start-up does not move the figure.
const setups = 21

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// outDir receives the spans of traced runs; workDir, inside it, holds
	// the run's scratch files (journals) and is removed at exit.
	outDir, workDir string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload hands back to main: end-to-end figures always,
// per-layer figures when traced.
type report struct {
	mu                sync.Mutex
	attempted, failed int64
	// problems lists oracle mismatches and failed requests (first few only).
	problems []string
	e2e      map[string]metric
	layers   map[string]metric
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// e2eUnits lists the end-to-end metrics, reported by every untraced run.
var e2eUnits = map[string]string{
	"setup_s":     "s",
	"op_p50_ms":   "ms",
	"op_p99_ms":   "ms",
	"ops_per_s":   "1/s",
	"sim_cycles":  "cycles",
	"peak_rss_mb": "MiB",
}

// layerUnits lists the per-layer metrics, reported by every traced run.
// A layer a workload does not exercise reads 0 (README.md maps each metric
// to the workloads and end-to-end metrics it moves).
var layerUnits = func() map[string]string {
	m := map[string]string{
		"sim.run_us":                    "us",
		"sim.mips":                      "MIPS",
		"sim.share":                     "ratio",
		"sim.guest_kib_per_op":          "KiB",
		"jit.compile_us":                "us",
		"jit.compiles_per_op":           "count",
		"jit.lazy_resolve_us":           "us",
		"cil.load_us":                   "us",
		"offline.compile_ms":            "ms",
		"engine.deploy_hit_us":          "us",
		"engine.cache_hit_ratio":        "ratio",
		"engine.cache_evictions_per_op": "count",
		"engine.redeploys_per_op":       "count",
		"svd.handler_us":                "us",
		"svd.http_us":                   "us",
		"svd.deploy_us":                 "us",
		"svd.rejected_per_op":           "count",
		"svd.evicted_per_op":            "count",
		"journal.records_per_op":        "count",
		"router.hop_us":                 "us",
		"router.retries":                "count",
		"router.failovers":              "count",
		"router.breaker_opens":          "count",
		"core.quarantines":              "count",
		"trace.unexplained_us":          "us",
		"trace.overhead_frac":           "ratio",
		"traffic.batch_share":           "ratio",
		"traffic.lazy_share":            "ratio",
		"traffic.cold_jit_share":        "ratio",
		"op_samples":                    "count",
		"failed_frac":                   "ratio",
	}
	for _, k := range splitvm.Table1KernelNames() {
		for _, d := range target.All() {
			m[cellMetric(k, d.Arch)] = "MIPS"
		}
	}
	return m
}()

func cellMetric(kernel string, arch target.Arch) string {
	return "sim.mips." + kernel + "." + string(arch)
}

// metric records an end-to-end figure.
func (r *report) metric(name string, v float64) {
	unit, ok := e2eUnits[name]
	if !ok {
		panic("perfbench: unknown end-to-end metric " + name)
	}
	r.e2e[name] = metric{v, unit}
}

// layer records a per-layer figure.
func (r *report) layer(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	r.layers[name] = metric{v, unit}
}

// account adds a phase's operations to the run's totals.
func (r *report) account(p phase) {
	a, f := p.count()
	r.attempted += a
	r.failed += f
}

// printFacts writes the run's traffic facts — the measured shares a later
// claim about a traffic property can cite — as one line of standard
// output ahead of the result.
func (r *report) printFacts(w io.Writer, cfg *config) {
	keys := make([]string, 0, len(r.layers))
	for k := range r.layers {
		if strings.HasPrefix(k, "traffic.") || k == "op_samples" || k == "sim.guest_kib_per_op" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "facts workload=%s seed=%d", cfg.workload, cfg.seed)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.6g", k, r.layers[k].Value)
	}
	fmt.Fprintln(w, b.String())
}

var workloads = map[string]func(*config) (*report, error){
	"fleet-run":     runFleetRun,
	"fleet-deploy":  runFleetDeploy,
	"kernel-matrix": runKernelMatrix,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the command line, runs one workload, prints its traffic facts
// and its result line to stdout, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "fleet-run, fleet-deploy or kernel-matrix")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured duration in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", ".bench_build", "directory for scratch files and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	runWorkload, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload fleet-run|fleet-deploy|kernel-matrix and positive --seconds\n")
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg.workDir = dir
	rep, err := runWorkload(&cfg)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res := result{
		Correct:   rep.failed == 0 && len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.e2e,
	}
	rep.layer("failed_frac", float64(rep.failed)/math.Max(1, float64(rep.attempted)))
	if cfg.trace {
		for name, unit := range layerUnits {
			if _, ok := rep.layers[name]; !ok {
				rep.layers[name] = metric{0, unit}
			}
		}
		res.Metrics = rep.layers
	}
	rep.printFacts(stdout, &cfg)
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", cfg.workload, p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// ms and us convert durations to the reported units.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
