// Package jit implements the online half of the split compiler: the
// target-specific just-in-time compiler that translates portable bytecode
// into native code for one simulated target.
//
// The two split optimizations of the paper meet here:
//
//   - Vectorization: the portable vector builtins emitted by the offline
//     compiler are mapped one-to-one onto the target's SIMD unit when it has
//     one, and scalarized into unrolled per-lane scalar code otherwise. The
//     JIT never re-runs the dependence analysis — the offline step already
//     proved safety and said so in the bytecode (and its annotation).
//
//   - Register allocation: the annotation produced by the offline allocator
//     (internal/regalloc) orders variables by spill priority, so the online
//     assignment is a single linear pass; without the annotation the JIT
//     falls back to its plain linear-scan allocator (the baseline of the
//     split register allocation experiment).
package jit

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/anno"
	"repro/internal/cil"
	"repro/internal/nisa"
	"repro/internal/target"
)

// RegAllocMode selects the register allocation strategy of the JIT.
type RegAllocMode int

// Register allocation modes.
const (
	// RegAllocOnline is the baseline purely-online allocator: linear scan
	// in interval-start order with the classic furthest-end spill
	// heuristic, no profitability weights.
	RegAllocOnline RegAllocMode = iota
	// RegAllocSplit consumes the split register allocation annotation: the
	// offline step ordered named variables by spill priority; the online
	// step assigns registers in that order in linear time. Without an
	// annotation it silently degrades to RegAllocOnline.
	RegAllocSplit
	// RegAllocOptimal recomputes full weights from the native code and
	// allocates by decreasing weight with exact interference information.
	// It stands in for an "offline optimal" allocation and serves as the
	// quality reference in the experiments (it is too slow for a real JIT).
	RegAllocOptimal
)

func (m RegAllocMode) String() string {
	switch m {
	case RegAllocOnline:
		return "online"
	case RegAllocSplit:
		return "split"
	case RegAllocOptimal:
		return "optimal"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Options configures a Compiler.
type Options struct {
	// RegAlloc selects the register allocation strategy.
	RegAlloc RegAllocMode
	// ForceScalarize makes the JIT ignore the target's SIMD unit and
	// scalarize every vector builtin (ablation: "the JIT simply ignores the
	// vectorization").
	ForceScalarize bool
	// MinAnnotationVersion rejects annotation sections older than this
	// schema version during load-time negotiation: they fall back to
	// online-only compilation like any section the reader cannot
	// understand. Zero (the default) accepts everything, including the
	// grandfathered v0 streams.
	MinAnnotationVersion uint32
	// CompileWorkers bounds the number of methods compiled concurrently
	// (see ForEach). Zero (the default) uses GOMAXPROCS; negative or 1
	// compiles sequentially. The generated program is bit-identical
	// regardless of the worker count — parallelism only changes wall-clock
	// time, never code (see TestCompileDeterministicAcrossWorkers).
	CompileWorkers int
}

// Compiler is a JIT compiler instance for one target.
type Compiler struct {
	Target *target.Desc
	Opts   Options
}

// New returns a JIT compiler for the given target.
func New(t *target.Desc, opts Options) *Compiler {
	return &Compiler{Target: t, Opts: opts}
}

// useSIMD reports whether vector builtins are mapped to the vector unit.
func (c *Compiler) useSIMD() bool { return c.Target.HasSIMD && !c.Opts.ForceScalarize }

// Report summarizes the load-time annotation negotiation of one module
// compilation: the per-method outcome of every annotation that was present,
// and how many of them fell back to online-only compilation because the
// reader could not (or was configured not to) consume them.
type Report struct {
	Outcomes []anno.MethodOutcome
	// Fallbacks counts annotation sections that were present but degraded
	// to online-only compilation. The compilation itself never fails on
	// them: annotations are advisory.
	Fallbacks int
}

// Add records one method's negotiation outcomes.
func (rep *Report) Add(method string, outcomes []anno.Outcome) {
	for _, out := range outcomes {
		rep.Outcomes = append(rep.Outcomes, anno.MethodOutcome{Method: method, Outcome: out})
		if out.Fallback {
			rep.Fallbacks++
		}
	}
}

// CompileModule compiles every method of a verified module into a native
// program for the compiler's target.
func (c *Compiler) CompileModule(mod *cil.Module) (*nisa.Program, error) {
	prog, _, err := c.CompileModuleReport(mod)
	return prog, err
}

// workers resolves the size of the compiler's worker pool for n
// independent jobs: Options.CompileWorkers, GOMAXPROCS when that is zero,
// never more than n and never less than one.
func (c *Compiler) workers(n int) int {
	w := c.Opts.CompileWorkers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(i) for every i in [0, n) over the compiler's bounded
// worker pool (see workers), inline when the pool has one worker. Jobs are
// handed out in index order; callers that write results by index get a
// deterministic assembly regardless of which worker finished first.
func (c *Compiler) ForEach(n int, fn func(i int)) {
	workers := c.workers(n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// NegotiateModule runs the load-time negotiation of the module-level
// annotations (Method "" in a report). The execution profile is not consumed
// by the JIT — tiering imports it at deploy time — but a stream carrying one
// the reader cannot negotiate must surface as a fallback, never as an error.
func (c *Compiler) NegotiateModule(mod *cil.Module) []anno.Outcome {
	if _, out, present := anno.ReadProfile(mod, c.Opts.MinAnnotationVersion); present {
		return []anno.Outcome{out}
	}
	return nil
}

// methodResult is one slot of the parallel pipeline's output: results are
// written by index, so the assembled program and report are deterministic
// regardless of which worker finished first.
type methodResult struct {
	f        *nisa.Func
	outcomes []anno.Outcome
	err      error
}

// CompileModuleReport is CompileModule plus the annotation-negotiation
// report of the build. Methods compile concurrently across the compiler's
// bounded worker pool (ForEach), each on a pooled scratch state, and the
// emitted program is assembled in module method order so the result is
// bit-identical to a sequential compilation.
func (c *Compiler) CompileModuleReport(mod *cil.Module) (*nisa.Program, *Report, error) {
	methods := mod.Methods
	results := make([]methodResult, len(methods))
	c.ForEach(len(methods), func(i int) {
		r := &results[i]
		r.f, r.outcomes, r.err = c.CompileMethodReport(mod, methods[i])
	})

	// Deterministic assembly: module method order, first error wins (the
	// same error a sequential compilation would have stopped on).
	prog := nisa.NewProgram(c.Target.Name)
	rep := &Report{}
	rep.Add("", c.NegotiateModule(mod))
	for i, m := range methods {
		r := results[i]
		if r.err != nil {
			return nil, nil, r.err
		}
		rep.Add(m.Name, r.outcomes)
		prog.Add(r.f)
	}
	return prog, rep, nil
}

// CompileMethod compiles a single method.
func (c *Compiler) CompileMethod(mod *cil.Module, m *cil.Method) (*nisa.Func, error) {
	f, _, err := c.CompileMethodReport(mod, m)
	return f, err
}

// CompileMethodReport compiles a single method and returns its
// annotation-negotiation outcomes. It is the deployment runtime's unit of
// compilation: every method of a deployed image is compiled by one call —
// at deploy time or on its first call — and CompileModuleReport is the same
// call fanned out over the worker pool, so the code never depends on which
// of the two produced it.
func (c *Compiler) CompileMethodReport(mod *cil.Module, m *cil.Method) (*nisa.Func, []anno.Outcome, error) {
	st := getState()
	defer putState(st)
	return c.compileMethod(st, mod, m)
}

// negotiateAnnotations runs load-time negotiation for every annotation the
// deployment side knows about, and returns the split register-allocation
// info when it survived negotiation (the vector and hardware-requirement
// sections are validated and surfaced here but consumed elsewhere: vector
// facts travel in the bytecode itself, hardware requirements feed the
// heterogeneous runtime).
func (c *Compiler) negotiateAnnotations(m *cil.Method) (*anno.RegAllocInfo, []anno.Outcome) {
	var outcomes []anno.Outcome
	ra, out, present := anno.ReadRegAllocInfo(m, c.Opts.MinAnnotationVersion)
	if present {
		outcomes = append(outcomes, out)
	}
	if _, out, present := anno.ReadVectorInfo(m, c.Opts.MinAnnotationVersion); present {
		outcomes = append(outcomes, out)
	}
	if _, out, present := anno.ReadHWReq(m, c.Opts.MinAnnotationVersion); present {
		outcomes = append(outcomes, out)
	}
	return ra, outcomes
}

// compileMethod runs the translate → register-assignment pipeline for one
// method on the given scratch state. The returned Func owns all its memory:
// the assigner's rewrite step always replaces the pooled code buffer with an
// exactly-sized fresh slice.
func (c *Compiler) compileMethod(st *compileState, mod *cil.Module, m *cil.Method) (*nisa.Func, []anno.Outcome, error) {
	annot, outcomes := c.negotiateAnnotations(m)
	st.beginMethod()
	tr := &st.tr
	tr.reset(c, mod, m, st)
	if err := tr.run(); err != nil {
		return nil, nil, fmt.Errorf("jit: %s: %w", m.Name, err)
	}
	f := &nisa.Func{
		Name:   m.Name,
		Params: append([]cil.Type(nil), m.Params...),
		Ret:    m.Ret,
		Code:   tr.code,
		Stats:  tr.stats,
	}
	ra := &st.as
	ra.reset(c, tr, f, annot)
	if err := ra.run(); err != nil {
		return nil, nil, fmt.Errorf("jit: %s: register assignment: %w", m.Name, err)
	}
	return f, outcomes, nil
}
