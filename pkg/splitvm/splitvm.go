// Package splitvm is the public API of the split-compilation toolchain: the
// reproduction of Cohen & Rohou's "Processor virtualization and split
// compilation" design, grown into a reusable engine.
//
// The toolchain has two halves, and the Engine exposes both:
//
//   - The offline stage (Compile / CompileContext) runs the developer-side
//     compiler: MiniC front end, constant folding, auto-vectorization to
//     portable builtins, lowering to verified CIL-style bytecode, split
//     register allocation analysis, and annotation attachment. Its output is
//     a Module — the deployable, annotated byte stream.
//
//   - The online stage (Deploy / DeployContext) runs the device-side
//     compiler for one target (internal/target): decode, verify, JIT
//     (mapping or scalarizing the portable vector builtins, consuming the
//     register allocation annotation) and instantiate a cycle-approximate
//     machine ready to Run entry points.
//
// Both stages are configured with functional options, typed by the stage
// they configure: a CompileOption (WithVectorize, WithAnnotations, ...)
// is accepted by Compile, a DeployOption (WithTarget, WithRegAllocMode,
// WithLazyCompile, ...) by Deploy, and a SharedOption (WithProfile) by
// both — passing an option to the wrong stage is a compile error, not a
// silent no-op. Every option also satisfies the root Option interface,
// which is what New accepts.
//
// Precedence is the same for every setting: an option passed to a call
// beats an option passed to New, which beats the process-wide SPLITVM_*
// environment overrides (SPLITVM_LAZY, SPLITVM_TIER, SPLITVM_MEM_LIMIT,
// SPLITVM_DISK_CACHE, SPLITVM_COMPILE_WORKERS), which beat the built-in
// defaults. The overrides are read once per process and are only
// defaults: an explicit option always wins, even one that sets the zero
// value.
//
// Context plumbing follows one convention across the whole surface, stated
// here once: the *Context variant (CompileContext, DeployContext,
// DeployLinkedContext, RunContext) is the canonical method, and the short
// name is a thin wrapper over context.Background(). Cancellation is safe
// mid-flight by construction — a cancelled deploy leaves the shared code
// cache consistent (the in-flight compilation completes for the next
// caller), and a cancelled lazy run never leaves a half-patched dispatch
// table: the method stays a stub and the next call compiles it.
//
// There is one deploy model. Every deployment — Deploy, DeployLinked or
// DeployHetero — is a link set of per-method images instantiated as one
// machine; a single module is a link set of one. Each image is a table of
// the module's methods compiled for one target. Deployments are eager by
// default: every method JIT-compiles at deploy time, over a bounded worker
// pool (WithCompileWorkers). WithLazyCompile(true) leaves the methods as
// stubs instead; each compiles on its first call (singleflight per image
// and method). Both run the same per-method pipeline, so results,
// simulated cycles and — once EnsureCompiled has run — code statistics and
// annotation outcomes never depend on when a method compiled. Programs
// authored as several modules compile with CompileModules, validate with
// Link and deploy with DeployLinked; cross-module calls resolve
// module-by-content-hash at link time, so a missing or mismatched
// dependency is a Link error, never a first-call panic.
//
// The engine maintains a concurrency-safe code cache of images keyed by
// (module content hash, target description, JIT options, eager or lazy):
// repeated deployments of the same module on the same kind of core reuse
// the native code and only pay for a fresh machine. Concurrent deployments
// of the same key compile once; the losers of the race wait for the
// winner's image. With WithDiskCache every compiled method is also written
// through to a persistent per-method store shared by eager and lazy
// deployments, restarts and replicas, so a method JIT-compiles at most once
// fleet-wide.
//
// A minimal round trip:
//
//	eng := splitvm.New(splitvm.WithTarget(target.X86SSE))
//	mod, err := eng.Compile(source)
//	dep, err := eng.Deploy(mod)
//	res, err := dep.Run("sumsq", splitvm.IntArg(1000))
package splitvm

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"repro/internal/anno"
	"repro/internal/cil"
	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/jit"
	"repro/internal/kernels"
	"repro/internal/target"
)

// Engine unifies the offline and online compilation stages behind one
// configuration and one shared code cache. An Engine is safe for concurrent
// use by multiple goroutines; the zero value is not usable — construct
// engines with New.
type Engine struct {
	// base is the engine-wide configuration every call starts from: the
	// built-in defaults, the SPLITVM_* overrides, then New's options.
	base config

	// disk is the persistent cache layer (WithDiskCache), nil when not
	// configured; diskErr records why opening the store failed — the
	// engine then runs memory-only, and DiskCacheErr surfaces the reason.
	disk    *diskcache.Store
	diskErr error

	mu    sync.Mutex
	cache map[cacheKey]*cacheEntry
	// lru orders the completed cache entries, most recently used first;
	// in-flight compilations live only in the map and are never evicted.
	lru *list.List
	// maxEntries bounds the number of completed images kept (0 = unbounded).
	maxEntries int
	hits       int64
	misses     int64
	evictions  int64
	// diskHits counts deployments served from the persistent layer after a
	// memory miss (each is also counted in hits: the caller experienced a
	// cache hit, just a slower one).
	diskHits int64

	// compilations counts completed JIT compilations (cache hits excluded);
	// annoFallbacks counts the subset whose load-time annotation
	// negotiation degraded at least one section to online-only compilation;
	// compileNanos accumulates the wall-clock time those compilations took.
	compilations  int64
	annoFallbacks int64
	compileNanos  int64
	// lazyCompiles counts methods JIT-compiled on first call by lazy
	// deployments (fleet-store hits excluded); their wall-clock time also
	// accumulates into compileNanos.
	lazyCompiles int64
}

// New returns an engine. The options become the engine's defaults; every
// Compile/Deploy call starts from them and applies its own options on top.
// The SPLITVM_* environment overrides (see the package doc) are the
// defaults both kinds of options start from.
func New(defaults ...Option) *Engine {
	return newEngine(defaultConfig(), defaults...)
}

// newEngine builds an engine over an explicit starting configuration (New
// passes the built-in defaults with the process's overrides applied).
func newEngine(base config, defaults ...Option) *Engine {
	for _, o := range defaults {
		o.apply(&base)
	}
	e := &Engine{
		base:       base,
		cache:      make(map[cacheKey]*cacheEntry),
		lru:        list.New(),
		maxEntries: base.cacheSize,
	}
	if base.diskDir != "" {
		e.disk, e.diskErr = diskcache.Open(base.diskDir)
	}
	return e
}

// DiskCacheErr reports why the persistent cache layer requested with
// WithDiskCache could not be opened (nil when it opened, or when none was
// requested). An engine with a failed disk layer still works — it caches in
// memory only — so callers that require durability must check explicitly.
func (e *Engine) DiskCacheErr() error { return e.diskErr }

// compileConfig and deployConfig resolve the effective configuration for
// one call: the engine's base with the call's options applied, last writer
// winning. They differ only in the option type they accept.
func (e *Engine) compileConfig(opts []CompileOption) config {
	cfg := e.base
	for _, o := range opts {
		o.apply(&cfg)
	}
	return cfg
}

func (e *Engine) deployConfig(opts []DeployOption) config {
	cfg := e.base
	for _, o := range opts {
		o.apply(&cfg)
	}
	return cfg
}

// offlineOptions maps the resolved config onto the core offline compiler.
func (c *config) offlineOptions() core.OfflineOptions {
	return core.OfflineOptions{
		ModuleName:                 c.moduleName,
		DisableVectorize:           !c.vectorize,
		DisableRegAllocAnnotations: !c.regAllocAnnotations,
		DisableAnnotations:         !c.annotations,
		DisableConstFold:           !c.constFold,
		AnnotationVersion:          c.annotationVersion,
	}
}

// jitOptions maps the resolved config onto the online compiler.
func (c *config) jitOptions() jit.Options {
	return jit.Options{
		RegAlloc:             c.regAlloc,
		ForceScalarize:       c.forceScalarize,
		MinAnnotationVersion: c.minAnnoVersion,
		CompileWorkers:       c.compileWorkers,
	}
}

// Compile runs the offline stage on MiniC source text and returns the
// deployable module.
func (e *Engine) Compile(source string, opts ...CompileOption) (*Module, error) {
	return e.CompileContext(context.Background(), source, opts...)
}

// CompileContext is Compile with cancellation between pipeline stages.
func (e *Engine) CompileContext(ctx context.Context, source string, opts ...CompileOption) (*Module, error) {
	cfg := e.compileConfig(opts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := core.CompileOffline(source, cfg.offlineOptions())
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.attachProfile(res); err != nil {
		return nil, err
	}
	return newCompiledModule(res)
}

// attachProfile embeds a WithProfile profile into the compiled module as a
// versioned annotation (the compile-time half of the shared option) and
// refreshes the encoded byte stream. Profiles only exist in the enveloped
// schema, so the attachment always uses the current version regardless of
// WithAnnotationVersion; WithAnnotations(false) suppresses it like every
// other annotation.
func (c *config) attachProfile(res *core.OfflineResult) error {
	if c.profile == nil || !c.annotations {
		return nil
	}
	if err := anno.AttachProfileV(res.Module, c.profile, anno.CurrentVersion); err != nil {
		return err
	}
	res.Encoded = cil.Encode(res.Module)
	res.AnnotationBytes = anno.TotalAnnotationBytes(res.Module)
	return nil
}

// CompileKernel compiles one named benchmark kernel (see Kernels) with the
// kernel's name as the default module name.
func (e *Engine) CompileKernel(name string, opts ...CompileOption) (*Module, Kernel, error) {
	k, err := kernels.Get(name)
	if err != nil {
		return nil, Kernel{}, err
	}
	m, err := e.Compile(k.Source, append([]CompileOption{WithModuleName(name)}, opts...)...)
	return m, k, err
}

// Load decodes and verifies an encoded module (the device-side entry point
// for byte streams produced elsewhere, e.g. read from a file).
func (e *Engine) Load(encoded []byte) (*Module, error) {
	return loadModule(encoded)
}

// Deploy runs the online stage: JIT-compile the module for the configured
// target (through the engine's code cache) and instantiate a machine. With
// WithLazyCompile the whole-module JIT is replaced by per-method stubs that
// compile on first call; everything else — decode, verify, cache identity —
// is unchanged, and the deployment behaves identically apart from when
// compile time is paid.
func (e *Engine) Deploy(m *Module, opts ...DeployOption) (*Deployment, error) {
	return e.DeployContext(context.Background(), m, opts...)
}

// DeployContext is Deploy with cancellation. A caller whose context expires
// while another goroutine JIT-compiles the shared image returns early; the
// compilation itself finishes and stays cached. On lazy deployments the
// machine threads each Run's context into any first-call compilation it
// triggers, so a cancelled run aborts the resolution before anything is
// patched — a later call retries cleanly.
func (e *Engine) DeployContext(ctx context.Context, m *Module, opts ...DeployOption) (*Deployment, error) {
	if m == nil {
		return nil, fmt.Errorf("splitvm: Deploy needs a module (did Compile fail?)")
	}
	if err := requireNoImports(m); err != nil {
		return nil, err
	}
	cfg := e.deployConfig(opts)
	tgt, err := cfg.targetDesc()
	if err != nil {
		return nil, err
	}
	return e.deploy(ctx, &cfg, tgt, []*Module{m})
}

// requireNoImports directs modules with cross-module calls to the link API.
func requireNoImports(m *Module) error {
	if len(m.mod.Imports) > 0 {
		return fmt.Errorf("splitvm: module %q imports other modules; use Engine.Link and DeployLinked so its cross-module calls resolve at link time", m.mod.Name)
	}
	return nil
}

// deploy is the one deploy path behind Deploy, DeployLinked and
// DeployHetero: fetch (or build) one image per module for the target, link
// them — a single module is a link set of one — and instantiate a machine
// configured with the per-machine options. The deployment is FromCache
// (FromDisk) only when every unit was.
func (e *Engine) deploy(ctx context.Context, cfg *config, tgt *target.Desc, mods []*Module) (*Deployment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	jopts := cfg.jitOptions()
	units := make([]core.LinkUnit, len(mods))
	allHit, allDisk := !cfg.noCache, !cfg.noCache
	for i, m := range mods {
		var img *core.Image
		var err error
		if cfg.noCache {
			priv := *tgt // the image outlives the call; never alias the caller's descriptor
			img, _, err = e.buildImage(m, &priv, jopts, cfg.lazyCompile, nil)
		} else {
			var hit, diskHit bool
			img, hit, diskHit, err = e.image(ctx, m, tgt, jopts, cfg.lazyCompile)
			allHit, allDisk = allHit && hit, allDisk && diskHit
		}
		if err != nil {
			return nil, err
		}
		units[i] = core.LinkUnit{Hash: m.hash, Image: img}
	}
	linked, err := core.NewLinked(units)
	if err != nil {
		return nil, err
	}
	d := linked.Instantiate()
	cfg.applyTiering(d)
	cfg.applyGovernor(d)
	return &Deployment{d: d, fromCache: allHit, fromDisk: allDisk}, nil
}

// buildImage constructs one image outside the cache lookup. Every method
// resolves through the per-method store when one is given (nil on the
// no-cache path). An eager build resolves every method now and is counted
// as one compilation — or, when every method came from the store, reported
// as a disk hit instead. A lazy build is counted per method as first calls
// arrive.
func (e *Engine) buildImage(m *Module, tgt *target.Desc, jopts jit.Options, lazy bool, store core.MethodStore) (*core.Image, bool, error) {
	icfg := core.ImageConfig{Lazy: lazy, Store: store}
	if lazy {
		icfg.OnCompile = func(method string, nanos int64, fromStore bool) {
			e.mu.Lock()
			if fromStore {
				e.diskHits++
			} else {
				e.lazyCompiles++
				e.compileNanos += nanos
			}
			e.mu.Unlock()
		}
	}
	start := time.Now()
	img, err := core.NewImage(m.mod, tgt, jopts, icfg)
	if err != nil || lazy {
		return img, false, err
	}
	if sum := img.Summary(); store != nil && sum.FromStore == sum.Total {
		return img, true, nil
	}
	e.mu.Lock()
	e.compilations++
	e.compileNanos += time.Since(start).Nanoseconds()
	if img.Report().Fallbacks > 0 {
		e.annoFallbacks++
	}
	e.mu.Unlock()
	return img, false, nil
}

// cacheKey identifies one JIT compilation. The target description is keyed
// by value, so two descriptors that differ in any machine parameter (for
// example a WithIntRegs-resized register file) never share native code.
// CompileWorkers is deliberately absent: the parallel compile pipeline
// produces bit-identical programs for every worker count, so keying on it
// would only duplicate images.
type cacheKey struct {
	hash           [sha256.Size]byte
	desc           target.Desc
	regAlloc       jit.RegAllocMode
	forceScalarize bool
	minAnnoVersion uint32
	// lazy separates lazily materialized images from eager ones: the native
	// code is bit-identical method by method, but an eager image is complete
	// at deploy time while a lazy one fills in as methods are first called,
	// so the two must never be the same in-memory entry (the per-method disk
	// entries, which hold only finished code, are shared).
	lazy bool
}

// cacheEntry is one cached (or in-flight) JIT compilation. ready is closed
// once img/err are final.
type cacheEntry struct {
	key   cacheKey
	ready chan struct{}
	img   *core.Image
	err   error
	// elem is the entry's position in the engine's LRU list, nil while the
	// compilation is in flight or after eviction. Guarded by Engine.mu.
	elem *list.Element
}

// image returns the JIT-compiled image for (module, target, options),
// building it at most once per key. The first boolean reports whether the
// image came from the cache (joining an in-flight compilation counts as a
// hit); the second whether it was materialized from the persistent layer.
func (e *Engine) image(ctx context.Context, m *Module, tgt *target.Desc, jopts jit.Options, lazy bool) (*core.Image, bool, bool, error) {
	key := cacheKey{
		hash:           m.hash,
		desc:           *tgt,
		regAlloc:       jopts.RegAlloc,
		forceScalarize: jopts.ForceScalarize,
		minAnnoVersion: jopts.MinAnnotationVersion,
		lazy:           lazy,
	}
	// The cached image must describe exactly the key it is stored under:
	// build and instantiate from the key's private copy of the descriptor,
	// never the caller's pointer, so later mutation of a WithTargetDesc
	// argument cannot corrupt cached deployments.
	tgt = &key.desc

	e.mu.Lock()
	if ent, ok := e.cache[key]; ok {
		if ent.elem != nil {
			e.lru.MoveToFront(ent.elem)
		}
		e.mu.Unlock()
		select {
		case <-ent.ready:
		case <-ctx.Done():
			return nil, false, false, ctx.Err()
		}
		if ent.err != nil {
			return nil, false, false, ent.err
		}
		// Count the hit only once the deployment is actually served from
		// the shared image; cancelled or failed waits are neither hits nor
		// misses.
		e.mu.Lock()
		e.hits++
		e.mu.Unlock()
		return ent.img, true, false, nil
	}
	ent := &cacheEntry{key: key, ready: make(chan struct{})}
	e.cache[key] = ent
	e.mu.Unlock()

	// Memory missed; the persistent layer gets the next word, method by
	// method: every resolution consults the store first and writes what it
	// compiled through to it. An eager build served entirely from the store
	// is a cache hit for the caller (same code the original compilation
	// produced, no JIT work) — just a slower one. Anything wrong with a disk
	// entry falls through to a plain compilation of that method: the disk is
	// advisory, never authoritative.
	var store core.MethodStore
	if e.disk != nil {
		store = e.methodStore(key)
	}
	var diskHit bool
	ent.img, diskHit, ent.err = e.buildImage(m, tgt, jopts, lazy, store)
	close(ent.ready)

	e.mu.Lock()
	switch {
	case ent.err != nil:
		// Do not cache failures: a later attempt (e.g. after Register
		// replaced a target) should retry. Delete only our own entry — a
		// concurrent ClearCache may already have installed a new one.
		if e.cache[key] == ent {
			delete(e.cache, key)
		}
		e.misses++
	case e.cache[key] == ent:
		if diskHit {
			e.hits++
			e.diskHits++
		} else {
			e.misses++
		}
		// Publish to the LRU list and enforce the size bound. Only completed
		// entries are evictable; an in-flight compilation is pinned by its
		// waiters. Evicted code stays reachable on disk: it was written
		// through method by method as it compiled.
		ent.elem = e.lru.PushFront(ent)
		for e.maxEntries > 0 && e.lru.Len() > e.maxEntries {
			old := e.lru.Remove(e.lru.Back()).(*cacheEntry)
			old.elem = nil
			if e.cache[old.key] == old {
				delete(e.cache, old.key)
			}
			e.evictions++
		}
	default:
		// A concurrent ClearCache superseded the entry; the caller still
		// gets the image it built or loaded.
		if !diskHit {
			e.misses++
		}
	}
	e.mu.Unlock()
	if ent.err != nil {
		return nil, false, false, ent.err
	}
	return ent.img, diskHit, diskHit, nil
}

// CompileStats reports JIT compilation outcomes over the engine's lifetime.
type CompileStats struct {
	// Compilations counts completed JIT compilations (deployments served
	// from the code cache are not re-counted).
	Compilations int64 `json:"compilations"`
	// FallbackCompilations counts compilations in which at least one
	// annotation section could not be consumed — malformed, from the
	// future, or below WithMinAnnotationVersion — and degraded to
	// online-only compilation. Note the unit: compilations, not sections —
	// CompileReport.AnnotationFallbacks counts the individual sections of
	// one compilation, so the two are not expected to add up.
	FallbackCompilations int64 `json:"fallback_compilations"`
	// CompileNanosTotal is the cumulative wall-clock time of whole-module
	// compilations plus first-call method compilations: divided by
	// Compilations it gives the average online compile cost a cache miss
	// pays on an eager engine.
	CompileNanosTotal int64 `json:"compile_nanos_total"`
	// LazyCompiles counts methods JIT-compiled on first call by lazy
	// deployments. Methods materialized from the fleet-wide per-method disk
	// store are excluded (they cost no JIT work here) — they show up in
	// CacheStats.DiskHits instead. A lazy deployment itself never increments
	// Compilations: it performs zero up-front compilations by construction.
	LazyCompiles int64 `json:"lazy_compiles"`
}

// CompileStats returns a snapshot of the engine's compilation counters.
func (e *Engine) CompileStats() CompileStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return CompileStats{
		Compilations:         e.compilations,
		FallbackCompilations: e.annoFallbacks,
		CompileNanosTotal:    e.compileNanos,
		LazyCompiles:         e.lazyCompiles,
	}
}

// CacheStats reports code cache effectiveness.
type CacheStats struct {
	// Hits counts deployments served from a cached (or in-flight) image.
	Hits int64 `json:"hits"`
	// Misses counts deployments that had to JIT-compile.
	Misses int64 `json:"misses"`
	// Evictions counts completed images dropped by the LRU size bound
	// (WithCacheSize); always zero on an unbounded engine.
	Evictions int64 `json:"evictions"`
	// Entries is the number of native images currently cached.
	Entries int `json:"entries"`
	// MaxEntries is the configured size bound (0 = unbounded).
	MaxEntries int `json:"max_entries"`
	// DiskHits counts deployments served from the persistent layer after a
	// memory miss (each is also counted in Hits); always zero without
	// WithDiskCache.
	DiskHits int64 `json:"disk_hits,omitempty"`
	// Disk reports the persistent store's own traffic (entries, bytes,
	// corrupt files degraded to recompilation); nil without WithDiskCache.
	Disk *DiskCacheStats `json:"disk,omitempty"`
}

// CacheStats returns a snapshot of the engine's code cache counters.
// Entries counts completed images only; in-flight compilations are excluded.
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	st := CacheStats{
		Hits:       e.hits,
		Misses:     e.misses,
		Evictions:  e.evictions,
		Entries:    e.lru.Len(),
		MaxEntries: e.maxEntries,
		DiskHits:   e.diskHits,
	}
	e.mu.Unlock()
	if e.disk != nil {
		ds := e.disk.Stats()
		st.Disk = &ds
	}
	return st
}

// ClearCache drops every cached native image (counters are kept; a clear is
// not counted as eviction). In-flight compilations finish and are delivered
// to their waiters but are not re-cached.
func (e *Engine) ClearCache() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for elem := e.lru.Front(); elem != nil; elem = elem.Next() {
		elem.Value.(*cacheEntry).elem = nil
	}
	e.cache = make(map[cacheKey]*cacheEntry)
	e.lru.Init()
}
