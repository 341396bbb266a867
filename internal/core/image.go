package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/anno"
	"repro/internal/cil"
	"repro/internal/faultinject"
	"repro/internal/jit"
	"repro/internal/nisa"
	"repro/internal/target"
)

// MethodState is one method's position in an image's compilation lifecycle.
// Methods start as stubs, pass through compiling exactly once (singleflight
// per image: concurrent resolutions from any number of deployments block on
// the same flight), and end ready. A failed or cancelled compilation returns
// the method to the stub state, so the next resolution retries cleanly — the
// dispatch table is only ever patched with fully compiled code.
type MethodState int

// The method states.
const (
	// MethodStub: not compiled yet; the first call will JIT it.
	MethodStub MethodState = iota
	// MethodCompiling: a resolution is JIT-compiling it right now; other
	// callers wait on the flight instead of compiling again.
	MethodCompiling
	// MethodReady: native code is published; calls dispatch directly.
	MethodReady
)

func (s MethodState) String() string {
	switch s {
	case MethodStub:
		return "stub"
	case MethodCompiling:
		return "compiling"
	case MethodReady:
		return "ready"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// CompiledMethod is one method's native code as a MethodStore persists it:
// the function, the wall-clock nanoseconds its original compilation took (so
// store hits report the cost that was actually paid, once, fleet-wide) and
// the method's annotation-negotiation outcomes.
type CompiledMethod struct {
	Func         *nisa.Func
	CompileNanos int64
	Outcomes     []anno.Outcome
}

// MethodStore is a per-method code cache shared wider than one image —
// typically a disk volume mounted by every replica of a serving fleet. An
// image consults the store before JIT-compiling a method and publishes what
// it compiled, so each method is compiled at most once fleet-wide.
// Implementations must be safe for concurrent use; Get misses return false.
type MethodStore interface {
	GetMethod(name string) (*CompiledMethod, bool)
	PutMethod(name string, cm *CompiledMethod)
}

// faultSiteLazyCompile is the fault-injection site armed by chaos tests to
// hold open (or crash inside) a method compilation.
const faultSiteLazyCompile = "core.lazy_compile"

// methodEntry is one method's slot in the image's state table, guarded by
// Image.mu. done is the current flight's completion signal: it is created
// when the state leaves stub and closed when it settles (ready, or back to
// stub on failure), so waiters re-examine the state afterwards.
type methodEntry struct {
	m         *cil.Method
	state     MethodState
	done      chan struct{}
	f         *nisa.Func
	nanos     int64
	fromStore bool
	outcomes  []anno.Outcome
}

// ImageConfig configures how an image resolves its methods.
type ImageConfig struct {
	// Lazy leaves every method a stub until its first call; otherwise
	// NewImage resolves them all before returning.
	Lazy bool
	// Store is the fleet-wide per-method code cache consulted before (and
	// published to after) each compilation; nil compiles locally only.
	Store MethodStore
	// OnCompile is invoked after each resolution that produced code —
	// fromStore distinguishes a store hit from an actual JIT run.
	OnCompile func(method string, nanos int64, fromStore bool)
}

// Image is the target-specific half of a deployment: one decoded and
// verified module plus a per-method table of the native code the JIT
// produced for one target. The table is the only compilation state there
// is: an eager image resolves every method when it is built, a lazy one on
// each method's first call, and both run the same per-method pipeline, so
// the code never depends on when it was compiled. An Image holds no
// execution state; it is the unit the public engine's code cache stores,
// and any number of deployments share it.
type Image struct {
	Target *target.Desc
	Module *cil.Module
	// JITOpts is the online-compiler configuration behind the image (kept
	// so tiering can re-run the same pipeline for its profile-guided
	// validation).
	JITOpts jit.Options

	cfg      ImageConfig
	compiler *jit.Compiler
	// moduleOutcomes is the negotiation of the module-level annotations,
	// done once when the image is created.
	moduleOutcomes []anno.Outcome

	mu      sync.Mutex
	methods map[string]*methodEntry
}

// NewImage creates the image of a verified module for a target. Unless
// cfg.Lazy is set, every method is compiled before it returns — over the
// bounded worker pool jopts.CompileWorkers sizes — and the first failing
// method's error (in module order) fails the build. The image keeps a
// reference to the module, which the JIT only reads: verify once up front
// (verification writes into the module), then build images for any number
// of targets concurrently.
func NewImage(mod *cil.Module, tgt *target.Desc, jopts jit.Options, cfg ImageConfig) (*Image, error) {
	img := &Image{
		Target:   tgt,
		Module:   mod,
		JITOpts:  jopts,
		cfg:      cfg,
		compiler: jit.New(tgt, jopts),
		methods:  make(map[string]*methodEntry, len(mod.Methods)),
	}
	img.moduleOutcomes = img.compiler.NegotiateModule(mod)
	for _, m := range mod.Methods {
		img.methods[m.Name] = &methodEntry{m: m}
	}
	if !cfg.Lazy {
		if err := img.CompileAll(context.Background()); err != nil {
			return nil, err
		}
	}
	return img, nil
}

// Lazy reports whether the image was built with its methods left to their
// first call.
func (img *Image) Lazy() bool { return img.cfg.Lazy }

// CompileAll resolves every method of the image that is not ready yet,
// concurrently over the compiler's bounded worker pool. Each resolution is
// the usual singleflight, so it composes with concurrent first calls.
// Cancelling ctx stops new compilations; the first error in module order is
// returned.
func (img *Image) CompileAll(ctx context.Context) error {
	methods := img.Module.Methods
	errs := make([]error, len(methods))
	img.compiler.ForEach(len(methods), func(i int) {
		_, errs[i] = img.ResolveMethod(ctx, methods[i].Name)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MethodCompileState is one method's entry in a CompileState report.
type MethodCompileState struct {
	State MethodState
	// CompileNanos is the wall-clock JIT time of the method's compilation
	// (the original one, for store hits); zero until the method is ready.
	CompileNanos int64
	// FromStore marks methods whose code came from the fleet store rather
	// than a local JIT run.
	FromStore bool
}

// CompileState reports the per-method compilation state of the image.
func (img *Image) CompileState() map[string]MethodCompileState {
	out := make(map[string]MethodCompileState, len(img.Module.Methods))
	img.mu.Lock()
	defer img.mu.Unlock()
	for name, e := range img.methods {
		out[name] = MethodCompileState{State: e.state, CompileNanos: e.nanos, FromStore: e.fromStore}
	}
	return out
}

// ImageSummary totals an image's per-method table.
type ImageSummary struct {
	// Compiled counts ready methods, FromStore the subset that came from
	// the method store, Total all methods of the module.
	Compiled, FromStore, Total int
	// JITSteps sums the online-compiler work of the ready methods (the
	// original compilation's, for store hits); once every method is ready
	// it is the same whether they compiled eagerly or lazily.
	JITSteps int64
	// CompileNanos sums the ready methods' original compile times.
	CompileNanos int64
}

// Summary totals the image's per-method table.
func (img *Image) Summary() ImageSummary {
	img.mu.Lock()
	defer img.mu.Unlock()
	s := ImageSummary{Total: len(img.methods)}
	for _, e := range img.methods {
		if e.state != MethodReady {
			continue
		}
		s.Compiled++
		if e.fromStore {
			s.FromStore++
		}
		s.JITSteps += e.f.Stats.CompileSteps
		s.CompileNanos += e.nanos
	}
	return s
}

// Report returns the load-time annotation negotiation of the image so far:
// the module-level outcomes, then every ready method's in module order. Once
// every method is ready it equals the report of a whole-module compilation.
func (img *Image) Report() *jit.Report {
	rep := &jit.Report{}
	rep.Add("", img.moduleOutcomes)
	img.mu.Lock()
	defer img.mu.Unlock()
	for _, m := range img.Module.Methods {
		if e := img.methods[m.Name]; e.state == MethodReady {
			rep.Add(m.Name, e.outcomes)
		}
	}
	return rep
}

// snapshot copies every ready method into prog, so a machine instantiated
// after some resolutions already dispatches them without resolver round
// trips.
func (img *Image) snapshot(prog *nisa.Program) {
	img.mu.Lock()
	defer img.mu.Unlock()
	for name, e := range img.methods {
		if e.state == MethodReady {
			prog.Funcs[name] = e.f
		}
	}
}

// ResolveMethod returns the native code of one method, JIT-compiling it on
// first use. Concurrent resolutions of the same method — from any number of
// deployments sharing the image — coalesce into one compilation; waiters
// whose ctx is cancelled return early without observing or publishing any
// code, and a flight that fails returns the method to the stub state so the
// next call retries.
func (img *Image) ResolveMethod(ctx context.Context, name string) (*nisa.Func, error) {
	for {
		img.mu.Lock()
		e, ok := img.methods[name]
		if !ok {
			img.mu.Unlock()
			return nil, fmt.Errorf("core: unknown method %q", name)
		}
		switch e.state {
		case MethodReady:
			f := e.f
			img.mu.Unlock()
			return f, nil

		case MethodCompiling:
			done := e.done
			img.mu.Unlock()
			select {
			case <-done:
				// The flight settled: loop to observe ready, or a stub
				// again if it failed (then this caller takes over).
			case <-ctx.Done():
				return nil, ctx.Err()
			}

		case MethodStub:
			if err := ctx.Err(); err != nil {
				// A cancelled run never starts a compilation, so it can
				// never leave a half-patched dispatch table behind.
				img.mu.Unlock()
				return nil, err
			}
			e.state = MethodCompiling
			e.done = make(chan struct{})
			img.mu.Unlock()

			cm, fromStore, err := img.compile(e.m)

			img.mu.Lock()
			if err != nil {
				e.state = MethodStub
				close(e.done)
				e.done = nil
				img.mu.Unlock()
				return nil, err
			}
			e.state = MethodReady
			e.f, e.nanos, e.fromStore, e.outcomes = cm.Func, cm.CompileNanos, fromStore, cm.Outcomes
			close(e.done)
			img.mu.Unlock()

			if !fromStore && img.cfg.Store != nil {
				img.cfg.Store.PutMethod(name, cm)
			}
			if img.cfg.OnCompile != nil {
				img.cfg.OnCompile(name, cm.CompileNanos, fromStore)
			}
			return cm.Func, nil
		}
	}
}

// compile produces one method's native code: fleet-store hit if available,
// otherwise a timed JIT run. The fault-injection site lets chaos tests hold
// the compilation open or crash the process inside it.
func (img *Image) compile(m *cil.Method) (*CompiledMethod, bool, error) {
	if flt := faultinject.At(faultSiteLazyCompile); flt != nil {
		if err := flt.Apply(); err != nil {
			return nil, false, fmt.Errorf("core: compile of %q: %w", m.Name, err)
		}
	}
	if s := img.cfg.Store; s != nil {
		if cm, ok := s.GetMethod(m.Name); ok && cm != nil && cm.Func != nil {
			return cm, true, nil
		}
	}
	start := time.Now()
	f, outcomes, err := img.compiler.CompileMethodReport(img.Module, m)
	if err != nil {
		return nil, false, err
	}
	return &CompiledMethod{Func: f, CompileNanos: time.Since(start).Nanoseconds(), Outcomes: outcomes}, false, nil
}
