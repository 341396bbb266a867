// Package core assembles the paper's proposal into one API: processor
// virtualization (compile once to portable bytecode, deploy the byte stream)
// combined with split compilation (expensive offline analyses whose results
// travel as annotations, cheap target-specific online steps).
//
// The package exposes the two halves explicitly:
//
//   - CompileOffline runs the developer-side toolchain: MiniC front end,
//     constant folding, auto-vectorization, lowering to bytecode, split
//     register allocation analysis, annotation attachment, and binary
//     encoding. Its output is the deployable byte stream.
//
//   - Deploy runs the device-side toolchain for one simulated target: decode,
//     verify, JIT-compile (mapping or scalarizing the portable vector
//     builtins, consuming the register allocation annotation) and instantiate
//     a cycle-approximate machine ready to Run entry points. Every
//     deployment is a link set (link.go) of per-method images (image.go); a
//     single module is a set of one.
//
// Everything the experiments measure (cycles, spills, compile effort,
// annotation bytes, code sizes) is reachable from these two results.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/anno"
	"repro/internal/cil"
	"repro/internal/codegen"
	"repro/internal/jit"
	"repro/internal/kernels"
	"repro/internal/minic"
	"repro/internal/nisa"
	"repro/internal/opt"
	"repro/internal/regalloc"
	"repro/internal/sim"
	"repro/internal/target"
	"repro/internal/vm"
)

// OfflineOptions configures the developer-side (offline) compiler.
type OfflineOptions struct {
	// ModuleName names the produced module; defaults to "app".
	ModuleName string
	// DisableVectorize skips the auto-vectorizer (produces the scalar
	// bytecode baseline of Table 1).
	DisableVectorize bool
	// DisableRegAllocAnnotations skips the offline register allocation
	// analysis.
	DisableRegAllocAnnotations bool
	// DisableAnnotations strips every annotation from the produced module
	// while keeping the code identical (ablation for Figure 1).
	DisableAnnotations bool
	// DisableConstFold skips constant folding.
	DisableConstFold bool
	// AnnotationVersion selects the on-wire schema of the produced
	// annotations: anno.V0 (the zero value, matching the historical
	// behavior) emits the legacy bare streams, anno.V1 the versioned
	// envelope with the spill-class metadata.
	AnnotationVersion uint32
}

// OfflineResult is the outcome of the offline compilation step.
type OfflineResult struct {
	Module  *cil.Module
	Encoded []byte

	VectorizeResults []opt.VectorizeResult
	RegAllocAnalyses []*regalloc.Analysis

	// FoldedConstants counts constant-folding rewrites.
	FoldedConstants int
	// AnnotationBytes is the total size of all annotations in the module.
	AnnotationBytes int
	// OfflineSteps approximates the work spent in offline analyses
	// (vectorization legality tests, liveness, weights); it feeds the
	// Figure 1 comparison of offline versus online effort.
	OfflineSteps int64
}

// CompileOffline compiles MiniC source text into an encoded, annotated,
// deployable module.
func CompileOffline(source string, opts OfflineOptions) (*OfflineResult, error) {
	name := opts.ModuleName
	if name == "" {
		name = "app"
	}
	prog, err := minic.Parse(source)
	if err != nil {
		return nil, err
	}
	chk, err := minic.Check(prog)
	if err != nil {
		return nil, err
	}
	res := &OfflineResult{}
	if !opts.DisableConstFold {
		res.FoldedConstants = opt.FoldConstants(chk)
	}
	if !opts.DisableVectorize {
		res.VectorizeResults = opt.Vectorize(chk)
		for _, r := range res.VectorizeResults {
			res.OfflineSteps += int64(20 * len(r.Plans))    // dependence + shape analysis per loop
			res.OfflineSteps += int64(5 * (r.Rejected + 1)) // rejected candidates still cost analysis
		}
	}
	mod, err := codegen.Compile(chk, name, codegen.Options{
		DisableVectorPlans: opts.DisableVectorize,
		DisableAnnotations: opts.DisableAnnotations,
		AnnotationVersion:  opts.AnnotationVersion,
	})
	if err != nil {
		return nil, err
	}
	if !opts.DisableRegAllocAnnotations && !opts.DisableAnnotations {
		res.RegAllocAnalyses, err = regalloc.AnnotateModuleV(mod, opts.AnnotationVersion)
		if err != nil {
			return nil, err
		}
		for _, a := range res.RegAllocAnalyses {
			res.OfflineSteps += a.Steps
		}
	}
	for _, m := range mod.Methods {
		res.OfflineSteps += int64(len(m.Code))
	}
	res.Module = mod
	res.Encoded = cil.Encode(mod)
	res.AnnotationBytes = anno.TotalAnnotationBytes(mod)
	return res, nil
}

// CompileKernel compiles one named benchmark kernel (see internal/kernels).
func CompileKernel(name string, opts OfflineOptions) (*OfflineResult, kernels.Kernel, error) {
	k, err := kernels.Get(name)
	if err != nil {
		return nil, kernels.Kernel{}, err
	}
	if opts.ModuleName == "" {
		opts.ModuleName = name
	}
	res, err := CompileOffline(k.Source, opts)
	return res, k, err
}

// BuildImage decodes, verifies and JIT-compiles an encoded module for a
// target. This is everything that happens on the device side of the
// distribution boundary, short of instantiating a machine. Modules that
// import other modules are rejected here: their cross-module calls can only
// resolve through a link set (NewLinked), and failing at build time is what
// keeps a missing dependency from surfacing as a first-call panic.
func BuildImage(encoded []byte, tgt *target.Desc, jopts jit.Options, cfg ImageConfig) (*Image, error) {
	mod, err := cil.Decode(encoded)
	if err != nil {
		return nil, err
	}
	if len(mod.Imports) > 0 {
		return nil, fmt.Errorf("core: module %q imports %d other module(s); deploy it as a link set so cross-module calls resolve at link time", mod.Name, len(mod.Imports))
	}
	if err := cil.Verify(mod); err != nil {
		return nil, err
	}
	return NewImage(mod, tgt, jopts, cfg)
}

// Deployment is a link set deployed on one simulated target: the images of
// its modules and the machine executing them.
type Deployment struct {
	Target *target.Desc
	// Module is the set's root module (the first unit).
	Module  *cil.Module
	Program *nisa.Program
	Machine *sim.Machine
	// Link is the link set the machine spans — a single module is a set of
	// one. Its images carry the live per-method compilation state, shared
	// by every deployment of them.
	Link *Linked
	// JITOpts is the online-compiler configuration behind the deployed
	// program (see Image.JITOpts).
	JITOpts jit.Options

	// RunDeadline, when positive, bounds the wall-clock time of each run:
	// the run context is derived with this timeout and the dispatch loop
	// aborts on its cancellation stride, reporting a *sim.ResourceError of
	// kind deadline (a caller-cancelled context still reports cancellation).
	RunDeadline time.Duration

	// Panic-firewall state (guard.go): quarantined marks a machine whose
	// last run panicked, guard counts quarantines and rebuilds, and
	// memLimit/tierOpts remember the per-machine configuration a rebuild
	// must re-apply.
	quarantined bool
	guard       GuardStats
	memLimit    int64
	tierOpts    *TierOptions
}

// EnsureCompiled resolves every method of every unit not resolved yet, as
// if each had already taken its first call — the usual singleflight JIT,
// over each image's bounded worker pool — and patches the results into this
// deployment's program, including the hash-qualified alias symbols
// cross-module call sites use. Afterwards the code-derived statistics
// (NativeCodeBytes, SpillSummary, SpillWeight, the set's JITSteps and
// annotation report) equal those of an eager deployment of the same
// module(s). Cancelling ctx aborts between methods, leaving the usual
// consistent partial state.
func (d *Deployment) EnsureCompiled(ctx context.Context) error {
	for _, u := range d.Link.Units {
		if err := u.Image.CompileAll(ctx); err != nil {
			return err
		}
	}
	d.Link.fill(d.Program)
	return nil
}

// Deploy decodes, verifies and JIT-compiles an encoded module for a target,
// then instantiates a machine for it: the internal harness entry point. It
// is the one place in this package that applies the process-wide overrides
// (EnvOverrides): SPLITVM_LAZY builds the image lazy — which never changes
// results or simulated cycles, only when compile time is paid —,
// SPLITVM_COMPILE_WORKERS sizes the pool when jopts leaves it zero, and
// SPLITVM_TIER and SPLITVM_MEM_LIMIT configure the machine. Callers that
// deploy the same module repeatedly should use the pkg/splitvm engine,
// which caches images.
func Deploy(encoded []byte, tgt *target.Desc, jopts jit.Options) (*Deployment, error) {
	env := EnvOverrides()
	if jopts.CompileWorkers == 0 {
		jopts.CompileWorkers = env.CompileWorkers
	}
	img, err := BuildImage(encoded, tgt, jopts, ImageConfig{Lazy: env.Lazy})
	if err != nil {
		return nil, err
	}
	ls, err := NewLinked([]LinkUnit{{Hash: HashModule(encoded), Image: img}})
	if err != nil {
		return nil, err
	}
	d := ls.Instantiate()
	if env.Tier {
		d.EnableTiering(TierOptions{})
	}
	d.SetMemLimit(env.MemLimit)
	return d, nil
}

// Run executes an entry point on the deployment's machine, behind the panic
// firewall (guard.go): a panic escaping dispatch is recovered into a
// *PanicError and the machine is rebuilt from its image on the next run.
func (d *Deployment) Run(entry string, args ...sim.Value) (sim.Value, error) {
	return d.guardedCall(context.Background(), entry, args...)
}

// RunContext executes an entry point like Run, aborting between simulated
// instructions once ctx is cancelled (the error wraps ctx.Err()).
// Uncancelled runs are instruction- and cycle-identical to Run.
func (d *Deployment) RunContext(ctx context.Context, entry string, args ...sim.Value) (sim.Value, error) {
	return d.guardedCall(ctx, entry, args...)
}

// Cycles returns the cycles consumed so far by the deployment's machine.
func (d *Deployment) Cycles() int64 { return d.Machine.Stats.Cycles }

// ResetCycles clears the machine's statistics (keeping its memory image).
func (d *Deployment) ResetCycles() { d.Machine.ResetStats() }

// SpillSummary sums the static spill statistics over all compiled functions.
func (d *Deployment) SpillSummary() (slots, loads, stores int) {
	for _, f := range d.Program.Funcs {
		slots += f.Stats.SpillSlots
		loads += f.Stats.SpillLoads
		stores += f.Stats.SpillStores
	}
	return
}

// SpillWeight sums the estimated dynamic spill accesses (loop-depth weighted
// use counts of spilled variables) over all compiled functions.
func (d *Deployment) SpillWeight() int64 {
	var total int64
	for _, f := range d.Program.Funcs {
		total += f.Stats.SpillWeight
	}
	return total
}

// NativeCodeBytes estimates the native code size of the deployment.
func (d *Deployment) NativeCodeBytes() int {
	return d.Program.CodeBytes(d.Target.BytesPerInstr)
}

// KernelRun is the result of running a kernel once on a deployment.
type KernelRun struct {
	Result sim.Value
	Cycles int64
	// Outputs are the kernel's array arguments copied back out of simulated
	// memory after the run (in the order of kernels.Inputs.Arrays).
	Outputs []*vm.Array
}

// RunKernel marshals kernel inputs into the deployment's memory, runs the
// kernel entry point once and returns the result, the cycles it took and the
// output arrays. The inputs are not modified (they are cloned first).
func (d *Deployment) RunKernel(k kernels.Kernel, in *kernels.Inputs) (*KernelRun, error) {
	// Rebuild a quarantined machine before marshalling: inputs copied into
	// the old machine's memory would be lost to the guardedCall rebuild.
	if d.quarantined {
		d.rebuild()
	}
	work := in.Clone()
	args := make([]sim.Value, len(work.Args))
	addrs := make([]sim.Addr, 0, len(work.Arrays))
	arrIdx := 0
	for i, a := range work.Args {
		switch {
		case a.Kind == cil.Ref:
			addr := d.Machine.CopyInArray(work.Arrays[arrIdx])
			addrs = append(addrs, addr)
			arrIdx++
			args[i] = sim.IntArg(int64(addr))
		case a.Kind.IsFloat():
			args[i] = sim.FloatArg(a.Float())
		default:
			args[i] = sim.IntArg(a.Int())
		}
	}
	before := d.Machine.Stats.Cycles
	res, err := d.guardedCall(context.Background(), k.Entry, args...)
	if err != nil {
		return nil, fmt.Errorf("core: running %s on %s: %w", k.Entry, d.Target.Name, err)
	}
	run := &KernelRun{Result: res, Cycles: d.Machine.Stats.Cycles - before}
	for i, addr := range addrs {
		out := vm.NewArray(work.Arrays[i].Elem, work.Arrays[i].Len())
		if err := d.Machine.CopyOutArray(addr, out); err != nil {
			return nil, err
		}
		run.Outputs = append(run.Outputs, out)
	}
	return run, nil
}

// Interpret runs an entry point of the offline result on the reference
// interpreter (the managed runtime), for functional cross-checking.
func (r *OfflineResult) Interpret(entry string, args ...vm.Value) (vm.Value, error) {
	rt, err := vm.NewRuntime(r.Module.Clone())
	if err != nil {
		return vm.Value{}, err
	}
	return rt.Call(entry, args...)
}
