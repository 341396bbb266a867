package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/jit"
	"repro/internal/kernels"
	"repro/internal/target"
)

// lazyImage builds a lazy image from an encoded byte stream — the exact
// construction core.Deploy performs under SPLITVM_LAZY=1.
func lazyImage(t *testing.T, encoded []byte, tgt *target.Desc, jopts jit.Options, onCompile func(string, int64, bool)) *Image {
	t.Helper()
	img, err := BuildImage(encoded, tgt, jopts, ImageConfig{Lazy: true, OnCompile: onCompile})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// instantiate deploys one image as a link set of one.
func instantiate(t *testing.T, img *Image) *Deployment {
	t.Helper()
	ls, err := NewLinked([]LinkUnit{{Image: img}})
	if err != nil {
		t.Fatal(err)
	}
	return ls.Instantiate()
}

// TestLazyEagerTable1Differential is the acceptance differential: every
// Table 1 kernel, scalar and vectorized, on every Table 1 target, deployed
// eagerly and lazily, must produce identical results, identical output
// arrays and identical simulated cycle counts. Lazy compilation may move
// *when* methods compile, never *what* they compile to.
func TestLazyEagerTable1Differential(t *testing.T) {
	jopts := jit.Options{RegAlloc: jit.RegAllocSplit}
	for _, name := range kernels.Table1Names {
		for _, vectorize := range []struct {
			label string
			opts  OfflineOptions
		}{
			{"scalar", OfflineOptions{DisableVectorize: true}},
			{"vector", OfflineOptions{}},
		} {
			res, k, err := CompileKernel(name, vectorize.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", name, vectorize.label, err)
			}
			in, err := kernels.NewInputs(name, 256, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, tgt := range target.Table1() {
				eager, err := Deploy(res.Encoded, tgt, jopts)
				if err != nil {
					t.Fatalf("%s %s on %s: eager deploy: %v", name, vectorize.label, tgt.Arch, err)
				}
				lazy := instantiate(t, lazyImage(t, res.Encoded, tgt, jopts, nil))
				re, err := eager.RunKernel(k, in)
				if err != nil {
					t.Fatalf("%s %s on %s: eager run: %v", name, vectorize.label, tgt.Arch, err)
				}
				rl, err := lazy.RunKernel(k, in)
				if err != nil {
					t.Fatalf("%s %s on %s: lazy run: %v", name, vectorize.label, tgt.Arch, err)
				}
				if re.Result != rl.Result {
					t.Errorf("%s %s on %s: result eager %v, lazy %v", name, vectorize.label, tgt.Arch, re.Result, rl.Result)
				}
				if re.Cycles != rl.Cycles {
					t.Errorf("%s %s on %s: cycles eager %d, lazy %d", name, vectorize.label, tgt.Arch, re.Cycles, rl.Cycles)
				}
				if !reflect.DeepEqual(re.Outputs, rl.Outputs) {
					t.Errorf("%s %s on %s: output arrays differ", name, vectorize.label, tgt.Arch)
				}
			}
		}
	}
}

// TestLazyResolveCancelledLeavesStub pins the half-patched-table guarantee:
// resolution under a cancelled context returns the context error without
// starting a compilation, the method stays a stub, and a later resolution
// succeeds normally.
func TestLazyResolveCancelledLeavesStub(t *testing.T) {
	res, err := CompileOffline("i64 idsq(i64 x) { return x * x; }", OfflineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tgt := target.MustLookup(target.X86SSE)
	img := lazyImage(t, res.Encoded, tgt, jit.Options{RegAlloc: jit.RegAllocSplit}, nil)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := img.ResolveMethod(ctx, "idsq"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled resolve = %v, want context.Canceled", err)
	}
	if s := img.Summary(); s.Compiled != 0 || s.Total != 1 {
		t.Fatalf("counts after cancelled resolve = %d/%d, want 0/1", s.Compiled, s.Total)
	}
	if st := img.CompileState()["idsq"]; st.State != MethodStub {
		t.Fatalf("state after cancelled resolve = %v, want stub", st.State)
	}
	if _, err := img.ResolveMethod(context.Background(), "idsq"); err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if img.Summary().Compiled != 1 {
		t.Fatal("retry did not compile the method")
	}
}

// TestLazyResolveSingleflight: concurrent first resolutions of one method
// produce exactly one compilation, and every caller gets the same function.
func TestLazyResolveSingleflight(t *testing.T) {
	res, err := CompileOffline("i64 once(i64 x) { return x + 1; }", OfflineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tgt := target.MustLookup(target.X86SSE)
	var mu sync.Mutex
	compiles := 0
	img := lazyImage(t, res.Encoded, tgt, jit.Options{RegAlloc: jit.RegAllocSplit}, func(string, int64, bool) {
		mu.Lock()
		compiles++
		mu.Unlock()
	})

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := img.ResolveMethod(context.Background(), "once"); err != nil {
				t.Errorf("resolve: %v", err)
			}
		}()
	}
	wg.Wait()
	if compiles != 1 {
		t.Fatalf("%d compilations for 16 concurrent first calls, want 1", compiles)
	}
}
