package splitvm

import (
	"testing"
)

// heteroTestSource returns the mixed application of the Section 3 scenario:
// a control-heavy checksum that belongs on the host plus a vectorizable
// numerical kernel that belongs on an accelerator.
func heteroTestSource(t *testing.T) string {
	t.Helper()
	var checksum, saxpy string
	for _, k := range Kernels() {
		switch k.Name {
		case "checksum":
			checksum = k.Source
		case "saxpy_fp":
			saxpy = k.Source
		}
	}
	if checksum == "" || saxpy == "" {
		t.Fatal("kernel suite is missing checksum or saxpy_fp")
	}
	return checksum + saxpy
}

// saxpyCall invokes the numerical kernel on a hetero runtime and returns
// where it ran plus a result sample.
func saxpyCall(t *testing.T, rt *HeteroRuntime, n int) (*CallResult, float64) {
	t.Helper()
	y := NewArray(F64, n)
	x := NewArray(F64, n)
	for i := 0; i < n; i++ {
		y.SetFloat(i, float64(i%17))
		x.SetFloat(i, float64((i*3)%13))
	}
	res, err := rt.Call("saxpy",
		ArrayArg(y), ArrayArg(x),
		ScalarArg(F64, FloatArg(1.5)),
		ScalarArg(I32, IntArg(int64(n))))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 2 {
		t.Fatalf("saxpy returned %d output arrays, want the 2 array arguments copied back", len(res.Outputs))
	}
	return res, res.Outputs[0].Float(n - 1)
}

// TestDeployHeteroPlacement deploys one module on a Cell-like system under
// both policies through the public API and checks the paper's qualitative
// claims: the numerical kernel offloads under the annotation-guided policy,
// the control code stays on the host, and both mappings agree on results.
func TestDeployHeteroPlacement(t *testing.T) {
	eng := New()
	m, err := eng.Compile(heteroTestSource(t), WithModuleName("hetero-app"))
	if err != nil {
		t.Fatal(err)
	}
	sys := CellLike()

	host, err := eng.DeployHetero(sys, m, HostOnly)
	if err != nil {
		t.Fatal(err)
	}
	ann, err := eng.DeployHetero(sys, m, Annotated)
	if err != nil {
		t.Fatal(err)
	}

	const n = 512
	hres, hval := saxpyCall(t, host, n)
	if hres.Offloaded || hres.CoreName != sys.Host.Name {
		t.Errorf("host-only policy ran saxpy on %s (offloaded=%v)", hres.CoreName, hres.Offloaded)
	}
	ares, aval := saxpyCall(t, ann, n)
	if !ares.Offloaded {
		t.Errorf("annotation-guided policy kept the vectorizable kernel on %s", ares.CoreName)
	}
	if hval != aval {
		t.Errorf("policies disagree on saxpy results: host %v, offloaded %v", hval, aval)
	}
	if hres.Cycles <= 0 || ares.Cycles <= 0 {
		t.Errorf("call cycles must be positive (host %d, offloaded %d)", hres.Cycles, ares.Cycles)
	}

	// The branchy checksum must not be shipped to an accelerator.
	header := NewArray(U8, 64)
	for i := 0; i < header.Len(); i++ {
		header.SetInt(i, int64(i%251))
	}
	cres, err := ann.Call("checksum", ArrayArg(header), ScalarArg(I32, IntArg(64)))
	if err != nil {
		t.Fatal(err)
	}
	if cres.Offloaded {
		t.Errorf("annotation-guided policy offloaded the control-heavy checksum to %s", cres.CoreName)
	}
}

// TestDeployHeteroRedeployReusesCache extends the single-runtime cache test
// in engine_test.go: building a second runtime for the same module — even
// under a different policy — must reuse every native image.
func TestDeployHeteroRedeployReusesCache(t *testing.T) {
	eng := New()
	m, err := eng.Compile(heteroTestSource(t), WithModuleName("hetero-cache"))
	if err != nil {
		t.Fatal(err)
	}
	sys := CellLike() // ppe host + spu0/spu1: two distinct core types, three cores

	if _, err := eng.DeployHetero(sys, m, Annotated); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DeployHetero(sys, m, HostOnly); err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Misses != 2 {
		t.Errorf("misses = %d, want one JIT compilation per core type (2) across both runtimes", st.Misses)
	}
	if st.Hits != 4 {
		t.Errorf("hits = %d, want 4 (spu1 of the first runtime + all three cores of the second)", st.Hits)
	}
}

// TestDeployHeteroEmbeddedSoC smoke-tests the second built-in system
// description through the public surface.
func TestDeployHeteroEmbeddedSoC(t *testing.T) {
	eng := New()
	m, err := eng.Compile(heteroTestSource(t), WithModuleName("soc-app"))
	if err != nil {
		t.Fatal(err)
	}
	sys := EmbeddedSoC()
	if len(sys.Accel) != 1 {
		t.Fatalf("EmbeddedSoC has %d accelerators, want 1", len(sys.Accel))
	}
	rt, err := eng.DeployHetero(sys, m, Annotated)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := saxpyCall(t, rt, 256)
	if !res.Offloaded {
		t.Errorf("saxpy stayed on the MCU host; the DSP should take it")
	}
}

// TestDeployHeteroHonorsTiering: the per-machine deploy options reach every
// core's deployment, exactly as they would through Deploy — tiering
// enabled with WithTiering, with WithPromoteCalls and with WithProfile.
func TestDeployHeteroHonorsTiering(t *testing.T) {
	eng := New()
	m, err := eng.Compile(heteroTestSource(t), WithModuleName("hetero-tier"))
	if err != nil {
		t.Fatal(err)
	}
	sys := CellLike()
	for name, opt := range map[string]DeployOption{
		"WithTiering":      WithTiering(true),
		"WithPromoteCalls": WithPromoteCalls(2),
		"WithProfile":      WithProfile(&Profile{}),
	} {
		rt, err := eng.DeployHetero(sys, m, Annotated, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range append([]SystemCore{sys.Host}, sys.Accel...) {
			if !rt.Deployment(c.Name).Machine.TieringEnabled() {
				t.Errorf("%s: core %s is not tiered", name, c.Name)
			}
		}
	}
}
