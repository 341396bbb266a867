package splitvm

import (
	"strings"
	"testing"

	"repro/internal/anno"
	"repro/internal/anno/envelope"
	"repro/internal/cil"
	"repro/internal/target"
)

const annoTestSource = `
i32 accum(i32 n) {
    i32 acc = 0;
    for (i32 i = 0; i < n; i++) {
        acc = acc + i * i;
    }
    return acc;
}
`

// futureModule compiles the test source and rewrites its regalloc
// annotation into an envelope declaring schema version 99 — the byte stream
// a future offline compiler would ship.
func futureModule(t *testing.T, eng *Engine) *Module {
	t.Helper()
	m, err := eng.Compile(annoTestSource, WithModuleName("future"))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := cil.Decode(m.Encoded())
	if err != nil {
		t.Fatal(err)
	}
	meth := mod.Method("accum")
	data, _ := meth.Annotation(anno.KeyRegAlloc)
	meth.SetAnnotation(anno.KeyRegAlloc, envelope.Encode(&envelope.Envelope{Sections: []envelope.Section{
		{Name: "regalloc", Version: 99, Payload: data},
	}}))
	loaded, err := eng.Load(cil.Encode(mod))
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func TestCompileEmitsEnvelopesByDefault(t *testing.T) {
	eng := New()
	m, err := eng.Compile(annoTestSource)
	if err != nil {
		t.Fatal(err)
	}
	infos := m.AnnotationInfo()
	if len(infos) == 0 {
		t.Fatal("no annotation info recorded")
	}
	for _, info := range infos {
		if !info.Enveloped || info.Version != AnnotationVersionCurrent || !info.Supported {
			t.Errorf("annotation %s/%s: %+v, want supported v%d envelope",
				info.Method, info.Key, info, AnnotationVersionCurrent)
		}
	}
}

func TestWithAnnotationVersionZeroEmitsLegacy(t *testing.T) {
	eng := New()
	m, err := eng.Compile(annoTestSource, WithAnnotationVersion(AnnotationV0))
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range m.AnnotationInfo() {
		if info.Enveloped || info.Version != 0 || !info.Supported {
			t.Errorf("annotation %s/%s: %+v, want supported bare v0", info.Method, info.Key, info)
		}
	}
}

func TestCompileRejectsUnknownWriterVersion(t *testing.T) {
	eng := New()
	if _, err := eng.Compile(annoTestSource, WithAnnotationVersion(99)); err == nil {
		t.Fatal("Compile accepted writer version 99")
	}
}

func TestFutureAnnotationFallsBackAndIsCounted(t *testing.T) {
	eng := New()
	m := futureModule(t, eng)

	// Load-time info shows the unsupported stream without failing the load.
	sawFuture := false
	for _, info := range m.AnnotationInfo() {
		if info.Key == anno.KeyRegAlloc {
			sawFuture = true
			if info.Supported || info.Version != 99 {
				t.Errorf("future regalloc info: %+v", info)
			}
		}
	}
	if !sawFuture {
		t.Fatal("regalloc annotation missing from AnnotationInfo")
	}

	// Deploy must succeed, degrade to online-only regalloc, and surface it.
	dep, err := eng.Deploy(m, WithTarget(target.X86SSE))
	if err != nil {
		t.Fatalf("deploying a module from the future must not fail: %v", err)
	}
	rep := dep.CompileReport()
	if rep.AnnotationFallbacks < 1 {
		t.Errorf("CompileReport.AnnotationFallbacks = %d, want >= 1", rep.AnnotationFallbacks)
	}
	found := false
	for _, o := range rep.AnnotationOutcomes {
		if o.Key == anno.KeyRegAlloc && o.Fallback {
			found = true
			if o.Version != 99 || !strings.Contains(o.Reason, "newer than supported") {
				t.Errorf("fallback outcome: %+v", o)
			}
		}
	}
	if !found {
		t.Errorf("no regalloc fallback in outcomes: %+v", rep.AnnotationOutcomes)
	}

	// The machine still runs correctly: accum(12) = 506.
	v, err := dep.Run("accum", IntArg(12))
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 506 {
		t.Errorf("accum(12) = %d, want 506", v.I)
	}

	// Engine counters: one compilation, one fallback compilation; a second
	// deployment is a cache hit and is not re-counted.
	if st := eng.CompileStats(); st.Compilations != 1 || st.FallbackCompilations != 1 {
		t.Errorf("CompileStats = %+v, want 1/1", st)
	}
	dep2, err := eng.Deploy(m, WithTarget(target.X86SSE))
	if err != nil {
		t.Fatal(err)
	}
	if !dep2.FromCache() {
		t.Error("second deployment missed the cache")
	}
	if rep2 := dep2.CompileReport(); rep2.AnnotationFallbacks < 1 || !rep2.FromCache {
		t.Errorf("cached CompileReport = %+v", rep2)
	}
	if st := eng.CompileStats(); st.Compilations != 1 || st.FallbackCompilations != 1 {
		t.Errorf("CompileStats after cache hit = %+v, want unchanged 1/1", st)
	}
}

func TestMinAnnotationVersionForcesFallbackAndSplitsCacheKey(t *testing.T) {
	eng := New()
	m, err := eng.Compile(annoTestSource, WithAnnotationVersion(AnnotationV0))
	if err != nil {
		t.Fatal(err)
	}

	dep, err := eng.Deploy(m, WithTarget(target.X86SSE))
	if err != nil {
		t.Fatal(err)
	}
	if rep := dep.CompileReport(); rep.AnnotationFallbacks != 0 {
		t.Errorf("v0 stream fell back without a minimum: %+v", rep.AnnotationOutcomes)
	}

	// Raising the floor rejects the stale stream — and must not share the
	// permissive deployment's cached image.
	strict, err := eng.Deploy(m, WithTarget(target.X86SSE), WithMinAnnotationVersion(AnnotationV1))
	if err != nil {
		t.Fatal(err)
	}
	if strict.FromCache() {
		t.Error("min-version deployment reused the permissive cache entry")
	}
	rep := strict.CompileReport()
	if rep.AnnotationFallbacks == 0 {
		t.Errorf("v0 stream survived min version 1: %+v", rep.AnnotationOutcomes)
	}

	// Both produce the same results regardless.
	a, err := dep.Run("accum", IntArg(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := strict.Run("accum", IntArg(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.I != b.I {
		t.Errorf("results diverge: %d vs %d", a.I, b.I)
	}
}

// TestDeployHeteroHonorsMinVersionAndCounters pins the hetero deploy path
// to the same negotiation contract as Deploy: the min-version floor applies
// to every per-core compilation and the engine counters see them, including
// with the cache disabled.
func TestDeployHeteroHonorsMinVersionAndCounters(t *testing.T) {
	eng := New()
	m, err := eng.Compile(annoTestSource, WithAnnotationVersion(AnnotationV0))
	if err != nil {
		t.Fatal(err)
	}
	sys := EmbeddedSoC() // two distinct core types -> two compilations
	rt, err := eng.DeployHetero(sys, m, HostOnly, WithCache(false), WithMinAnnotationVersion(AnnotationV1))
	if err != nil {
		t.Fatal(err)
	}
	st := eng.CompileStats()
	if st.Compilations != 2 {
		t.Errorf("CompileStats.Compilations = %d, want 2 (one per core type, cache off)", st.Compilations)
	}
	if st.FallbackCompilations != 2 {
		t.Errorf("CompileStats.FallbackCompilations = %d, want 2 (v0 module below min version 1)", st.FallbackCompilations)
	}
	for _, core := range []string{sys.Host.Name} {
		if d := rt.Deployment(core); d == nil || d.Link.Report().Fallbacks == 0 {
			t.Errorf("core %s: min-version floor not applied (deployment %+v)", core, d)
		}
	}
}

// TestV0AndV1DeployIdentically pins the interop rule: the same source
// compiled at both writer versions deploys to machines with identical
// behavior and identical spill decisions (the envelope is a re-encoding,
// not a different allocation).
func TestV0AndV1DeployIdentically(t *testing.T) {
	eng := New()
	for _, arch := range []target.Arch{target.X86SSE, target.MCU} {
		var spills [2]int
		var results [2]int64
		for i, version := range []uint32{AnnotationV0, AnnotationV1} {
			m, err := eng.Compile(annoTestSource, WithAnnotationVersion(version))
			if err != nil {
				t.Fatal(err)
			}
			dep, err := eng.Deploy(m, WithTarget(arch))
			if err != nil {
				t.Fatal(err)
			}
			slots, loads, stores := dep.SpillSummary()
			spills[i] = slots*10000 + loads*100 + stores
			v, err := dep.Run("accum", IntArg(31))
			if err != nil {
				t.Fatal(err)
			}
			results[i] = v.I
		}
		if spills[0] != spills[1] {
			t.Errorf("%s: spill decisions diverge between v0 and v1: %d vs %d", arch, spills[0], spills[1])
		}
		if results[0] != results[1] {
			t.Errorf("%s: results diverge between v0 and v1: %d vs %d", arch, results[0], results[1])
		}
	}
}
