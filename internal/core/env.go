package core

import (
	"os"
	"strconv"
	"sync"
)

// Overrides are the process-wide deploy defaults the SPLITVM_* environment
// variables set. They exist so CI can re-run the whole gated benchmark suite
// with one property switched on — lazy compilation, tiering, a memory
// governor, a disk cache, a pinned compile pool — and demand zero drift,
// without threading an option through every harness.
//
// Precedence, stated once for the whole tree: an explicit per-call option
// beats an engine default (splitvm.New), which beats these overrides, which
// beat the built-in defaults. Overrides are only defaults: they never
// overrule an option somebody passed.
type Overrides struct {
	// Lazy (SPLITVM_LAZY=1 or "on") deploys per-method stubs instead of
	// compiling every method up front.
	Lazy bool
	// Tier (SPLITVM_TIER=1 or "on") enables tiering with the default policy.
	Tier bool
	// MemLimit (SPLITVM_MEM_LIMIT, decimal bytes) governs guest memory.
	MemLimit int64
	// DiskCache (SPLITVM_DISK_CACHE) names a persistent code cache directory.
	DiskCache string
	// CompileWorkers (SPLITVM_COMPILE_WORKERS) bounds the per-image JIT
	// worker pool; 0 leaves it at GOMAXPROCS.
	CompileWorkers int
}

// ParseOverrides resolves the overrides through getenv (os.Getenv in
// production). Unparsable or negative numbers are ignored, never errors: a
// typo in an override must not take a service down.
func ParseOverrides(getenv func(string) string) Overrides {
	on := func(key string) bool {
		v := getenv(key)
		return v == "1" || v == "on"
	}
	o := Overrides{
		Lazy:      on("SPLITVM_LAZY"),
		Tier:      on("SPLITVM_TIER"),
		DiskCache: getenv("SPLITVM_DISK_CACHE"),
	}
	if n, err := strconv.ParseInt(getenv("SPLITVM_MEM_LIMIT"), 10, 64); err == nil && n > 0 {
		o.MemLimit = n
	}
	if n, err := strconv.Atoi(getenv("SPLITVM_COMPILE_WORKERS")); err == nil && n > 0 {
		o.CompileWorkers = n
	}
	return o
}

// EnvOverrides returns the process's overrides, read from the environment
// once, on first use.
var EnvOverrides = sync.OnceValue(func() Overrides { return ParseOverrides(os.Getenv) })
