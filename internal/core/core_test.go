package core

import (
	"strings"
	"testing"

	"repro/internal/anno"
	"repro/internal/cil"
	"repro/internal/jit"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/target"
	"repro/internal/vm"
)

const testSource = `
i32 weight(i32 n) {
    i32 acc = 0;
    for (i32 i = 0; i < n; i++) {
        acc = acc + i * 3;
    }
    return acc;
}
`

func TestCompileOfflineProducesAnnotatedModule(t *testing.T) {
	res, err := CompileOffline(testSource, OfflineOptions{ModuleName: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Module.Name != "m" || len(res.Encoded) == 0 {
		t.Fatal("missing module or encoding")
	}
	if res.AnnotationBytes == 0 || res.OfflineSteps == 0 {
		t.Error("expected annotations and offline step accounting")
	}
	m := res.Module.Method("weight")
	if anno.RegAllocInfoOf(m) == nil {
		t.Error("register allocation annotation missing")
	}
	if anno.HWReqOf(m) == nil {
		t.Error("hardware requirement annotation missing")
	}
	// The interpreter view of the offline result works.
	v, err := res.Interpret("weight", vm.IntValue(cil.I32, 10))
	if err != nil || v.Int() != 135 {
		t.Errorf("Interpret = %d (%v), want 135", v.Int(), err)
	}
}

func TestCompileOfflineOptions(t *testing.T) {
	plain, err := CompileOffline(kernels.MustGet("vecadd_fp").Source, OfflineOptions{DisableVectorize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range plain.Module.Method("vecadd").Code {
		if in.Op.IsVector() {
			t.Fatal("DisableVectorize left vector builtins in the code")
		}
	}
	stripped, err := CompileOffline(testSource, OfflineOptions{DisableAnnotations: true})
	if err != nil {
		t.Fatal(err)
	}
	if stripped.AnnotationBytes != 0 {
		t.Error("DisableAnnotations left annotations behind")
	}
	if _, err := CompileOffline("i32 broken(", OfflineOptions{}); err == nil {
		t.Error("syntax errors must propagate")
	}
	if _, err := CompileOffline("i32 f() { return x; }", OfflineOptions{}); err == nil {
		t.Error("type errors must propagate")
	}
	if _, _, err := CompileKernel("nope", OfflineOptions{}); err == nil {
		t.Error("unknown kernels must be rejected")
	}
}

func TestDeployAndRun(t *testing.T) {
	res, err := CompileOffline(testSource, OfflineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range target.Table1() {
		dep, err := Deploy(res.Encoded, tgt, jit.Options{RegAlloc: jit.RegAllocSplit})
		if err != nil {
			t.Fatal(err)
		}
		out, err := dep.Run("weight", sim.IntArg(100))
		if err != nil {
			t.Fatal(err)
		}
		if out.I != 14850 {
			t.Errorf("weight(100) on %s = %d, want 14850", tgt.Name, out.I)
		}
		if dep.Cycles() == 0 || dep.Link.Summary().JITSteps == 0 || dep.NativeCodeBytes() == 0 {
			t.Error("deployment statistics missing")
		}
		dep.ResetCycles()
		if dep.Cycles() != 0 {
			t.Error("ResetCycles did not clear the counter")
		}
	}
	if _, err := Deploy([]byte("junk"), target.MustLookup(target.PPC), jit.Options{}); err == nil {
		t.Error("Deploy accepted junk bytes")
	}
}

func TestRunKernelMatchesReference(t *testing.T) {
	res, k, err := CompileKernel("sum_u16", OfflineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in, err := kernels.NewInputs("sum_u16", 333, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := kernels.Reference("sum_u16", in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(res.Encoded, target.MustLookup(target.X86SSE), jit.Options{RegAlloc: jit.RegAllocSplit})
	if err != nil {
		t.Fatal(err)
	}
	run, err := dep.RunKernel(k, in)
	if err != nil {
		t.Fatal(err)
	}
	if float64(run.Result.I) != want {
		t.Errorf("sum_u16 = %d, reference %v", run.Result.I, want)
	}
	if run.Cycles <= 0 {
		t.Error("cycle accounting missing")
	}
	// Map kernels return their outputs.
	resMap, km, err := CompileKernel("dscal_fp", OfflineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inMap, _ := kernels.NewInputs("dscal_fp", 64, 5)
	refIn := inMap.Clone()
	if _, err := kernels.Reference("dscal_fp", refIn); err != nil {
		t.Fatal(err)
	}
	depMap, err := Deploy(resMap.Encoded, target.MustLookup(target.Sparc), jit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runMap, err := depMap.RunKernel(km, inMap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if runMap.Outputs[0].Float(i) != refIn.Arrays[0].Float(i) {
			t.Fatalf("dscal output %d mismatch", i)
		}
	}
}

func TestSpillSummaryAndWeight(t *testing.T) {
	src := strings.Replace(testSource, "weight", "w2", 1)
	res, err := CompileOffline(testSource+src, OfflineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Deploy(res.Encoded, target.MustLookup(target.MCU).WithIntRegs(2), jit.Options{RegAlloc: jit.RegAllocOnline})
	if err != nil {
		t.Fatal(err)
	}
	slots, loads, stores := dep.SpillSummary()
	if slots == 0 || loads == 0 || stores == 0 || dep.SpillWeight() == 0 {
		t.Errorf("expected spills on a 2-register target: slots=%d loads=%d stores=%d weight=%d",
			slots, loads, stores, dep.SpillWeight())
	}
}
