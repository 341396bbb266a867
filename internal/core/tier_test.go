package core

import (
	"reflect"
	"testing"

	"repro/internal/jit"
	"repro/internal/kernels"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/target"
)

// TestTieringBitIdenticalAcrossTable1 is the differential gate of the
// tiered runtime: every Table 1 kernel on every Table 1 target under every
// register allocation mode, run past tier-2 promotion, must produce
// results, outputs and simulated cycles bit-identical to a plain tier-1
// deployment of the same image.
func TestTieringBitIdenticalAcrossTable1(t *testing.T) {
	const n = 257 // odd length: exercises vector body + scalar remainder
	modes := []jit.RegAllocMode{jit.RegAllocOnline, jit.RegAllocSplit, jit.RegAllocOptimal}
	for _, name := range kernels.Table1Names {
		res, k, err := CompileKernel(name, OfflineOptions{AnnotationVersion: 1})
		if err != nil {
			t.Fatal(err)
		}
		in, err := kernels.NewInputs(name, n, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, tgt := range target.Table1() {
			for _, mode := range modes {
				img, err := BuildImage(res.Encoded, tgt, jit.Options{RegAlloc: mode}, ImageConfig{})
				if err != nil {
					t.Fatal(err)
				}
				plain := instantiate(t, img)
				tiered := instantiate(t, img)
				tiered.EnableTiering(TierOptions{Policy: profile.Policy{PromoteCalls: 2}})
				for call := 0; call < 3; call++ {
					rp, errP := plain.RunKernel(k, in)
					rt, errT := tiered.RunKernel(k, in)
					if errP != nil || errT != nil {
						t.Fatalf("%s/%s/%v call %d: %v / %v", name, tgt.Arch, mode, call, errP, errT)
					}
					if rp.Result != rt.Result || rp.Cycles != rt.Cycles {
						t.Fatalf("%s/%s/%v call %d: result/cycles diverged: %v@%d vs %v@%d",
							name, tgt.Arch, mode, call, rp.Result, rp.Cycles, rt.Result, rt.Cycles)
					}
					if !reflect.DeepEqual(rp.Outputs, rt.Outputs) {
						t.Fatalf("%s/%s/%v call %d: outputs diverged", name, tgt.Arch, mode, call)
					}
				}
				if plain.Machine.Stats != tiered.Machine.Stats {
					t.Fatalf("%s/%s/%v: machine statistics diverged\nplain:  %+v\ntiered: %+v",
						name, tgt.Arch, mode, plain.Machine.Stats, tiered.Machine.Stats)
				}
				ts := tiered.TierStats()
				if ts.Promotions < 1 {
					t.Errorf("%s/%s/%v: no promotion after 3 calls: %+v", name, tgt.Arch, mode, ts)
				}
				if ts.ReallocChecked != ts.Promotions {
					t.Errorf("%s/%s/%v: realloc check did not run on every promotion: %+v",
						name, tgt.Arch, mode, ts)
				}
				if ts.ReallocConfirmed+ts.ReallocDiverged != ts.ReallocChecked {
					t.Errorf("%s/%s/%v: realloc accounting inconsistent: %+v", name, tgt.Arch, mode, ts)
				}
				if plain.TierStats() != (sim.TierStats{}) {
					t.Errorf("%s/%s/%v: plain deployment reports tiering", name, tgt.Arch, mode)
				}
			}
		}
	}
}

// TestTieringWarmStartAcrossDeployments exports the profile of one
// deployment and warms a fresh deployment of the same image with it: the
// warmed machine must promote on its first call (latency 1 instead of the
// threshold) and still match the cold machine's simulated behavior
// exactly — the measurable split-compilation payoff of the profile
// annotation.
func TestTieringWarmStartAcrossDeployments(t *testing.T) {
	res, k, err := CompileKernel("saxpy_fp", OfflineOptions{AnnotationVersion: 1})
	if err != nil {
		t.Fatal(err)
	}
	in, err := kernels.NewInputs("saxpy_fp", 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	img, err := BuildImage(res.Encoded, target.MustLookup(target.X86SSE), jit.Options{RegAlloc: jit.RegAllocSplit}, ImageConfig{})
	if err != nil {
		t.Fatal(err)
	}

	exporter := instantiate(t, img)
	exporter.EnableTiering(TierOptions{Policy: profile.Policy{PromoteCalls: -1}})
	for call := 0; call < 8; call++ {
		if _, err := exporter.RunKernel(k, in); err != nil {
			t.Fatal(err)
		}
	}
	exported := exporter.ExportProfile()
	if exported.Func(k.Entry) == nil {
		t.Fatalf("exported profile misses the entry point: %+v", exported)
	}

	const threshold = 5
	cold := instantiate(t, img)
	cold.EnableTiering(TierOptions{Policy: profile.Policy{PromoteCalls: threshold}})
	warm := instantiate(t, img)
	warm.EnableTiering(TierOptions{Policy: profile.Policy{PromoteCalls: threshold}, Profile: exported})

	for call := 0; call < threshold; call++ {
		rc, err := cold.RunKernel(k, in)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := warm.RunKernel(k, in)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Cycles != rw.Cycles || !reflect.DeepEqual(rc.Outputs, rw.Outputs) {
			t.Fatalf("call %d: warm deployment diverged from cold", call)
		}
	}

	tsCold, tsWarm := cold.TierStats(), warm.TierStats()
	if tsCold.Promotions != 1 || tsCold.PromoteCallsSum != threshold {
		t.Errorf("cold promotion latency = %+v, want %d calls", tsCold, threshold)
	}
	if tsWarm.Promotions != 1 || tsWarm.PromoteCallsSum != 1 {
		t.Errorf("warm promotion latency = %+v, want 1 call", tsWarm)
	}
	if tsWarm.WarmSeeded < 1 {
		t.Errorf("warm import did not seed counters: %+v", tsWarm)
	}
}
