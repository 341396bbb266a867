package splitvm

import (
	"context"
	"fmt"

	"repro/internal/cil"
	"repro/internal/core"
)

// Multi-module linking on the public surface. A program can be authored as
// several modules (CompileModules) whose cross-module calls are recorded as
// content-hash imports in the byte streams; Link validates a set of such
// modules into a LinkedModule and DeployLinked instantiates one machine
// spanning them. The contract mirrors the paper's distribution model: the
// byte stream crossing the boundary carries everything the device needs to
// verify and JIT in isolation, and cross-module references resolve
// module-by-content-hash at link time — a missing or mismatched dependency
// is a Link/Deploy error, never a first-call panic.

// ModuleSource names one source of a multi-module compilation.
type ModuleSource struct {
	// Name is the produced module's name (must be non-empty and unique in
	// the set).
	Name string
	// Source is the MiniC source text whose top-level functions the module
	// owns.
	Source string
}

// CompileModules compiles several MiniC sources as one program split into
// one module per source. The set is checked, optimized and lowered exactly
// like the concatenated single-module compilation — splitting never changes
// the generated code — and call sites that cross a source boundary become
// hash-qualified imports in the caller's byte stream. The results are
// ordered like the input and deploy together through Link + DeployLinked;
// each module is also individually loadable and hashable. Function names
// must be unique across the set, and cross-source call cycles between
// modules are an error (a module's content hash cannot include itself).
//
// WithProfile's compile-time half is not applied here: embedding a profile
// re-encodes a module, which would invalidate the content hashes its
// importers already carry. Deploy-time warm-up still works as usual.
func (e *Engine) CompileModules(sources []ModuleSource, opts ...CompileOption) ([]*Module, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("splitvm: CompileModules needs at least one source")
	}
	cfg := e.compileConfig(opts)
	srcs := make([]string, len(sources))
	names := make([]string, len(sources))
	for i, s := range sources {
		if s.Name == "" {
			return nil, fmt.Errorf("splitvm: module %d has no name", i)
		}
		srcs[i], names[i] = s.Source, s.Name
	}
	ocfg := cfg.offlineOptions()
	ocfg.ModuleName = "" // per-part names come from the sources
	results, err := core.CompileOfflineModules(srcs, names, ocfg)
	if err != nil {
		return nil, err
	}
	out := make([]*Module, len(results))
	for i, res := range results {
		if out[i], err = newCompiledModule(res); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// LinkedModule is a validated set of modules whose cross-module imports all
// resolve inside the set: every import hash names a member, every imported
// method exists with the declared signature, and method names are globally
// unique. A LinkedModule is immutable and safe to deploy from many
// goroutines; the first module is the set's root (its name labels the
// deployment).
type LinkedModule struct {
	mods []*Module
}

// Link validates a set of compiled (or loaded) modules into a deployable
// LinkedModule. All structural link errors — a dependency missing from the
// set, an imported method the dependency does not define, a signature
// mismatch, duplicate method names — surface here, so DeployLinked can only
// fail for deploy-side reasons (target resolution, JIT errors).
func (e *Engine) Link(mods ...*Module) (*LinkedModule, error) {
	if len(mods) == 0 {
		return nil, fmt.Errorf("splitvm: Link needs at least one module")
	}
	cmods := make([]*cil.Module, len(mods))
	hashes := make([][cil.HashSize]byte, len(mods))
	for i, m := range mods {
		if m == nil {
			return nil, fmt.Errorf("splitvm: Link got a nil module (did Compile fail?)")
		}
		cmods[i], hashes[i] = m.mod, m.hash
	}
	if err := core.CheckLinkSet(cmods, hashes); err != nil {
		return nil, err
	}
	return &LinkedModule{mods: append([]*Module(nil), mods...)}, nil
}

// Modules returns the link set's members in link order.
func (lm *LinkedModule) Modules() []*Module { return append([]*Module(nil), lm.mods...) }

// Methods lists every method name of the set, module by module in link
// order (names are unique across the set by the Link contract).
func (lm *LinkedModule) Methods() []string {
	var out []string
	for _, m := range lm.mods {
		out = append(out, m.Methods()...)
	}
	return out
}

// DeployLinked deploys a linked set of modules as one machine: every module
// is JIT-compiled for the configured target through the engine's code cache
// — eagerly, or per method on first call with WithLazyCompile — and
// cross-module calls dispatch directly to the resolved native code. The
// returned Deployment runs any method of the set by its plain name and its
// per-method state queries (CompileState, MethodCounts) span all units.
func (e *Engine) DeployLinked(lm *LinkedModule, opts ...DeployOption) (*Deployment, error) {
	return e.DeployLinkedContext(context.Background(), lm, opts...)
}

// DeployLinkedContext is DeployLinked with cancellation, with the same
// semantics as DeployContext (per-unit image compilations are shared and
// survive the caller's cancellation; a cancelled lazy run never leaves a
// half-patched dispatch table).
func (e *Engine) DeployLinkedContext(ctx context.Context, lm *LinkedModule, opts ...DeployOption) (*Deployment, error) {
	if lm == nil || len(lm.mods) == 0 {
		return nil, fmt.Errorf("splitvm: DeployLinked needs a linked module (did Link fail?)")
	}
	cfg := e.deployConfig(opts)
	tgt, err := cfg.targetDesc()
	if err != nil {
		return nil, err
	}
	return e.deploy(ctx, &cfg, tgt, lm.mods)
}
