package bench

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/anno"
	"repro/internal/cil"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/kernels"
	"repro/internal/target"
)

// The compile-throughput experiment measures how fast the online JIT itself
// runs on the host: nanoseconds and heap allocations per module compilation
// and methods compiled per host-second, for every Table 1 kernel on every
// Table 1 target (plus the wide-vector 256-bit machine) under each register
// allocation mode, and the wall-clock win of the parallel compile pipeline
// on a multi-method module. Like the host family these numbers are
// host-dependent and noisy, so they are recorded in BENCH_results.json for
// trend tracking but deliberately excluded from the benchdiff gate — the
// determinism of the *generated code* is gated separately (the workers=1
// versus workers=N artifact comparison in CI and the differential test in
// internal/jit).

// CompileOptions parameterizes the compile-throughput measurement.
type CompileOptions struct {
	// Runs is the number of timed warm compilations per cell.
	Runs int
	// ParallelMethods sizes the synthetic multi-method module of the
	// parallel pipeline measurement.
	ParallelMethods int
	// Workers is the worker count of the parallel measurement (0 =
	// GOMAXPROCS; the sequential leg always runs with 1).
	Workers int
}

func (o *CompileOptions) defaults() {
	if o.Runs == 0 {
		o.Runs = 24
	}
	if o.ParallelMethods == 0 {
		o.ParallelMethods = 16
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// CompileCell is the compile-path measurement of one kernel on one target
// under one register allocation mode.
type CompileCell struct {
	Kernel string      `json:"kernel"`
	Target target.Arch `json:"target"`
	// Mode is the register allocation mode ("online", "split", "optimal").
	Mode string `json:"mode"`
	// Methods is the number of methods the module compiles.
	Methods int `json:"methods"`
	// ColdNanos is one cold deployment-side build: decode + verify + first
	// JIT compilation, the cost a deploy server pays on a never-seen
	// module.
	ColdNanos int64 `json:"cold_nanos"`
	// WarmNanosPerCompile is the average wall-clock time of one warm
	// module compilation (decoded and verified module, warm scratch
	// pools): the marginal cost of re-JITting, e.g. for a new target
	// variant or with the cache disabled.
	WarmNanosPerCompile float64 `json:"warm_nanos_per_compile"`
	// AllocsPerCompile is the average heap allocations of one warm
	// compilation.
	AllocsPerCompile float64 `json:"allocs_per_compile"`
	// MethodsPerSec is the warm compile throughput in methods per second.
	MethodsPerSec float64 `json:"methods_per_sec"`
}

// CompileParallel is the parallel-pipeline measurement: the same
// multi-method module compiled with one worker and with Workers workers.
type CompileParallel struct {
	// Methods is the method count of the synthetic module.
	Methods int `json:"methods"`
	// Workers is the worker count of the parallel leg.
	Workers int `json:"workers"`
	// SeqNanosPerCompile and ParNanosPerCompile are the average wall-clock
	// times of one module compilation with workers=1 and workers=Workers.
	SeqNanosPerCompile float64 `json:"seq_nanos_per_compile"`
	ParNanosPerCompile float64 `json:"par_nanos_per_compile"`
	// Speedup is SeqNanosPerCompile / ParNanosPerCompile (1.0 on a single
	// logical CPU: the pipeline never makes compilation slower).
	Speedup float64 `json:"speedup"`
	// SeqAllocsPerCompile and ParAllocsPerCompile are the matching heap
	// allocation averages.
	SeqAllocsPerCompile float64 `json:"seq_allocs_per_compile"`
	ParAllocsPerCompile float64 `json:"par_allocs_per_compile"`
}

// CompileLazy is the lazy-deployment measurement on the same synthetic
// multi-method module: the up-front cost an eager deployment pays versus the
// near-zero stub installation of a lazy one, and the total first-call
// compile time once every method has been demanded. The generated code is
// bit-identical either way; the experiment shows *when* the compile cost is
// paid, which is the entire point of on-demand compilation.
type CompileLazy struct {
	// Methods is the method count of the synthetic module.
	Methods int `json:"methods"`
	// EagerDeployNanos is one eager image build: every method JIT-compiled
	// before the deployment can serve its first call.
	EagerDeployNanos int64 `json:"eager_deploy_nanos"`
	// LazyDeployNanos is one lazy deployment: per-method stubs installed,
	// zero methods compiled.
	LazyDeployNanos int64 `json:"lazy_deploy_nanos"`
	// MethodsCompiledAtDeploy counts methods holding native code right
	// after the lazy deployment (zero by construction).
	MethodsCompiledAtDeploy int `json:"methods_compiled_at_deploy"`
	// FirstCallNanosTotal sums the first-call JIT time over all methods —
	// the eager cost, amortized over the calls that actually need it.
	FirstCallNanosTotal int64 `json:"first_call_nanos_total"`
}

// CompileReport is the compile-throughput measurement across the kernel ×
// target × regalloc-mode matrix.
type CompileReport struct {
	Options CompileOptions `json:"options"`
	// GoVersion, NumCPU and GOMAXPROCS describe the host the numbers were
	// taken on.
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Cells      []CompileCell    `json:"cells"`
	Parallel   *CompileParallel `json:"parallel,omitempty"`
	Lazy       *CompileLazy     `json:"lazy,omitempty"`
}

// compileTargets is the target matrix of the compile experiment: the Table 1
// columns plus the wide-vector machine (the one target whose 256-bit unit no
// paper machine shares).
func compileTargets() []*target.Desc {
	return append(target.Table1(), target.MustLookup(target.WideVec))
}

var compileModes = []jit.RegAllocMode{jit.RegAllocOnline, jit.RegAllocSplit, jit.RegAllocOptimal}

// RunCompile measures online compile throughput over the Table 1 kernels on
// the Table 1 targets plus the wide-vector machine, then measures the
// parallel pipeline on a synthetic multi-method module.
func RunCompile(opts CompileOptions) (*CompileReport, error) {
	opts.defaults()
	report := &CompileReport{
		Options:    opts,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	for _, name := range kernels.Table1Names {
		res, _, err := core.CompileKernel(name, core.OfflineOptions{AnnotationVersion: anno.CurrentVersion})
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", name, err)
		}
		for _, tgt := range compileTargets() {
			for _, mode := range compileModes {
				cell, err := measureCompileCell(name, res.Encoded, tgt, mode, opts.Runs)
				if err != nil {
					return nil, fmt.Errorf("bench: %s on %s: %w", name, tgt.Name, err)
				}
				report.Cells = append(report.Cells, cell)
			}
		}
	}

	par, err := measureCompileParallel(opts)
	if err != nil {
		return nil, err
	}
	report.Parallel = par
	lazy, err := measureCompileLazy(opts)
	if err != nil {
		return nil, err
	}
	report.Lazy = lazy
	return report, nil
}

// measureCompileLazy deploys the synthetic multi-method module eagerly and
// lazily and accounts for where the compile time goes: all up front, or
// spread over the first calls.
func measureCompileLazy(opts CompileOptions) (*CompileLazy, error) {
	res, err := core.CompileOffline(parallelCompileSource(opts.ParallelMethods),
		core.OfflineOptions{ModuleName: "parallel", AnnotationVersion: anno.CurrentVersion})
	if err != nil {
		return nil, err
	}
	mod, err := cil.Decode(res.Encoded)
	if err != nil {
		return nil, err
	}
	if err := cil.Verify(mod); err != nil {
		return nil, err
	}
	tgt := target.MustLookup(target.X86SSE)
	jopts := jit.Options{RegAlloc: jit.RegAllocSplit}

	start := time.Now()
	if _, err := core.NewImage(mod, tgt, jopts, core.ImageConfig{}); err != nil {
		return nil, err
	}
	cell := &CompileLazy{
		Methods:          len(mod.Methods),
		EagerDeployNanos: time.Since(start).Nanoseconds(),
	}

	start = time.Now()
	lazyImg, err := core.NewImage(mod, tgt, jopts, core.ImageConfig{Lazy: true})
	if err != nil {
		return nil, err
	}
	ls, err := core.NewLinked([]core.LinkUnit{{Hash: core.HashModule(res.Encoded), Image: lazyImg}})
	if err != nil {
		return nil, err
	}
	ls.Instantiate()
	cell.LazyDeployNanos = time.Since(start).Nanoseconds()
	cell.MethodsCompiledAtDeploy = lazyImg.Summary().Compiled

	// Demand every method once; each resolution is one first-call JIT.
	for _, m := range mod.Methods {
		if _, err := lazyImg.ResolveMethod(context.Background(), m.Name); err != nil {
			return nil, err
		}
	}
	cell.FirstCallNanosTotal = lazyImg.Summary().CompileNanos
	return cell, nil
}

func measureCompileCell(kernel string, encoded []byte, tgt *target.Desc, mode jit.RegAllocMode, runs int) (CompileCell, error) {
	jopts := jit.Options{RegAlloc: mode}

	// Cold: the full deployment-side build of a never-seen byte stream.
	start := time.Now()
	img, err := core.BuildImage(encoded, tgt, jopts, core.ImageConfig{})
	if err != nil {
		return CompileCell{}, err
	}
	cold := time.Since(start).Nanoseconds()

	// Warm: re-JIT the decoded, verified module. One untimed compilation
	// warms the scratch pools, then Runs timed ones measure steady state.
	mod := img.Module
	c := jit.New(tgt, jopts)
	if _, _, err := c.CompileModuleReport(mod); err != nil {
		return CompileCell{}, err
	}
	runtime.GC() // stabilize: the cold build's garbage must not bill the warm loop
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start = time.Now()
	for i := 0; i < runs; i++ {
		if _, _, err := c.CompileModuleReport(mod); err != nil {
			return CompileCell{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)

	cell := CompileCell{
		Kernel:              kernel,
		Target:              tgt.Arch,
		Mode:                mode.String(),
		Methods:             len(mod.Methods),
		ColdNanos:           cold,
		WarmNanosPerCompile: float64(elapsed.Nanoseconds()) / float64(runs),
		AllocsPerCompile:    float64(ms1.Mallocs-ms0.Mallocs) / float64(runs),
	}
	if sec := elapsed.Seconds(); sec > 0 {
		cell.MethodsPerSec = float64(len(mod.Methods)*runs) / sec
	}
	return cell, nil
}

// parallelCompileSource synthesizes a module with n independent mid-size
// methods: the module shape the parallel pipeline exists for.
func parallelCompileSource(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `
f64 pm%d(f64 a[], f64 b[], i32 n) {
    f64 s = 0.0;
    for (i32 i = 0; i < n; i++) {
        f64 t0 = a[i] * b[i];
        f64 t1 = a[i] + b[i];
        s = s + t0 * t1 - (f64) %d;
    }
    return s;
}`, i, i)
	}
	return b.String()
}

func measureCompileParallel(opts CompileOptions) (*CompileParallel, error) {
	res, err := core.CompileOffline(parallelCompileSource(opts.ParallelMethods),
		core.OfflineOptions{ModuleName: "parallel", AnnotationVersion: anno.CurrentVersion})
	if err != nil {
		return nil, err
	}
	mod, err := cil.Decode(res.Encoded)
	if err != nil {
		return nil, err
	}
	if err := cil.Verify(mod); err != nil {
		return nil, err
	}
	tgt := target.MustLookup(target.X86SSE)

	measure := func(workers int) (nanos, allocs float64, err error) {
		c := jit.New(tgt, jit.Options{RegAlloc: jit.RegAllocSplit, CompileWorkers: workers})
		if _, _, err := c.CompileModuleReport(mod); err != nil {
			return 0, 0, err
		}
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i := 0; i < opts.Runs; i++ {
			if _, _, err := c.CompileModuleReport(mod); err != nil {
				return 0, 0, err
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		return float64(elapsed.Nanoseconds()) / float64(opts.Runs),
			float64(ms1.Mallocs-ms0.Mallocs) / float64(opts.Runs), nil
	}

	par := &CompileParallel{Methods: len(mod.Methods), Workers: opts.Workers}
	if par.SeqNanosPerCompile, par.SeqAllocsPerCompile, err = measure(1); err != nil {
		return nil, err
	}
	if opts.Workers <= 1 {
		// One logical CPU: workers=N is the same configuration as
		// workers=1, so the legs coincide by definition — re-measuring
		// would only report timer noise as a "speedup".
		par.ParNanosPerCompile = par.SeqNanosPerCompile
		par.ParAllocsPerCompile = par.SeqAllocsPerCompile
		par.Speedup = 1
		return par, nil
	}
	if par.ParNanosPerCompile, par.ParAllocsPerCompile, err = measure(opts.Workers); err != nil {
		return nil, err
	}
	if par.ParNanosPerCompile > 0 {
		par.Speedup = par.SeqNanosPerCompile / par.ParNanosPerCompile
	}
	return par, nil
}

// String renders the compile-throughput matrix.
func (r *CompileReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Compile throughput: online JIT speed on this host (%d runs/cell, %s, %d CPUs, GOMAXPROCS=%d)\n",
		r.Options.Runs, r.GoVersion, r.NumCPU, r.GOMAXPROCS)
	b.WriteString("wall-clock numbers are host-dependent; they are tracked, not gated\n\n")
	fmt.Fprintf(&b, "%-12s %-12s %-8s %12s %14s %12s %12s\n",
		"benchmark", "target", "regalloc", "cold ns", "warm ns/comp", "allocs/comp", "methods/s")
	b.WriteString(strings.Repeat("-", 88) + "\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-12s %-12s %-8s %12d %14.0f %12.1f %12.0f\n",
			c.Kernel, c.Target, c.Mode, c.ColdNanos, c.WarmNanosPerCompile, c.AllocsPerCompile, c.MethodsPerSec)
	}
	if p := r.Parallel; p != nil {
		fmt.Fprintf(&b, "\nparallel pipeline (%d-method module): %.0f ns/compile with 1 worker, %.0f ns/compile with %d workers (%.2fx)\n",
			p.Methods, p.SeqNanosPerCompile, p.ParNanosPerCompile, p.Workers, p.Speedup)
	}
	if l := r.Lazy; l != nil {
		fmt.Fprintf(&b, "lazy deployment (%d-method module): eager pays %d ns up front; lazy deploys in %d ns with %d methods compiled, then %d ns spread over first calls\n",
			l.Methods, l.EagerDeployNanos, l.LazyDeployNanos, l.MethodsCompiledAtDeploy, l.FirstCallNanosTotal)
	}
	return b.String()
}
