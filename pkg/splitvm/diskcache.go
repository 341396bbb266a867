package splitvm

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"

	"repro/internal/anno"
	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/nisa"
)

// The persistent half of the code cache. With WithDiskCache(dir) an engine
// writes every method it compiles through to a content-addressed on-disk
// store (internal/diskcache), one entry per method, keyed by the same
// (module sha256, target descriptor, JIT options) identity as the in-memory
// LRU. A later engine — after a restart, or a replica sharing the cache
// volume — resolves each method against the disk before compiling it, so a
// warm restart deploys with FromCache == true and zero compilations, and a
// method JIT-compiles at most once fleet-wide. Eager and lazy deployments
// share the entries: the code is bit-identical whenever it was compiled.
//
// The disk layer is strictly behind the LRU: an image built from disk
// entries is cached in memory and shared exactly like a freshly compiled
// one, and an LRU eviction drops nothing durable. Disk contents are advisory
// by the same "degrade, don't fail" policy as annotations: corrupt,
// truncated or schema-incompatible entries fall back to recompilation,
// never surface as deployment errors.

// DiskCacheStats reports the persistent cache layer's traffic (see
// CacheStats.Disk).
type DiskCacheStats = diskcache.Stats

// diskMethodFormat versions the per-method payload; bumping it starts a
// fresh namespace (old entries are never found, so never misread).
const diskMethodFormat = "svdc-mth-v2"

// diskMethod is the serialized form of one compiled method: its code, the
// original compilation's cost and its annotation-negotiation outcomes.
type diskMethod struct {
	Format       string
	Name         string
	Func         *nisa.Func
	CompileNanos int64
	Outcomes     []anno.Outcome
}

// methodStore adapts the engine's disk store to the core.MethodStore
// interface for one cache key: every replica mounting the same volume and
// deploying the same (module, target, options) resolves its methods against
// the same entries. Writes are best-effort; corrupt entries degrade to
// recompilation.
type methodStore struct {
	disk *diskcache.Store
	// base is the content address of the key's code identity; method
	// entries are addressed under it so two modules sharing a method name
	// never collide.
	base string
}

// methodStore derives the store of one cache key: a hex SHA-256 over the
// module hash, the full target descriptor (every machine parameter —
// resized register files never share entries, mirroring the in-memory key)
// and the code-shaping JIT options. The key's eager/lazy bit is left out:
// it decides when code is compiled, never what.
func (e *Engine) methodStore(key cacheKey) core.MethodStore {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%x|%#v|%d|%t|%d", diskMethodFormat,
		key.hash, key.desc, key.regAlloc, key.forceScalarize, key.minAnnoVersion)
	return &methodStore{disk: e.disk, base: hex.EncodeToString(h.Sum(nil))}
}

func (s *methodStore) entryName(method string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s", diskMethodFormat, s.base, method)
	return hex.EncodeToString(h.Sum(nil))
}

func (s *methodStore) GetMethod(name string) (*core.CompiledMethod, bool) {
	payload, ok := s.disk.Get(s.entryName(name))
	if !ok {
		return nil, false
	}
	var dm diskMethod
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&dm); err != nil {
		return nil, false
	}
	if dm.Format != diskMethodFormat || dm.Name != name || dm.Func == nil {
		return nil, false
	}
	return &core.CompiledMethod{Func: dm.Func, CompileNanos: dm.CompileNanos, Outcomes: dm.Outcomes}, true
}

func (s *methodStore) PutMethod(name string, cm *core.CompiledMethod) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&diskMethod{
		Format:       diskMethodFormat,
		Name:         name,
		Func:         cm.Func,
		CompileNanos: cm.CompileNanos,
		Outcomes:     cm.Outcomes,
	})
	if err != nil {
		return
	}
	s.disk.Put(s.entryName(name), buf.Bytes())
}
