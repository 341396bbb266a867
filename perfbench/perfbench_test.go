package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the tests check the program against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runOnce runs the command in process and decodes its last line.
func runOnce(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--out", t.TempDir())
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: exit %d, no result line: %v\nstdout:\n%s\nstderr:\n%s", args, code, err, stdout.String(), stderr.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%v: exit %d, correct %v, %d of %d failed\nstderr:\n%s", args, code, res.Correct, res.Failed, res.Attempted, stderr.String())
	}
	return res
}

func TestSpecMatchesMetricTables(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %v", len(s.Workloads), names)
	}
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(s.EndToEnd) != len(e2eUnits) || len(s.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(s.EndToEnd), len(s.PerLayer), len(e2eUnits), len(layerUnits))
	}
	var setupBound, maxBound float64
	for _, m := range s.EndToEnd {
		if e2eUnits[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, e2eUnits[m.Name])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for _, m := range s.PerLayer {
		if layerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer %s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, layerUnits[m.Name])
		}
	}
}

// TestShortRuns runs every workload for a few seconds: untraced and traced
// at the default seed, then untraced at a held-out seed. Every metric of
// BENCHMARK.json must be printed with its unit, and no operation may fail.
func TestShortRuns(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, c := range []struct {
				seed, trace string
			}{{"1", "0"}, {"1", "1"}, {"987654", "0"}} {
				res := runOnce(t, "--workload", w.Name, "--seed", c.seed, "--seconds", "2", "--trace", c.trace)
				want := map[string]string{}
				if c.trace == "0" {
					for _, m := range s.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range s.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("seed %s trace %s: %d metrics printed, want %d", c.seed, c.trace, len(res.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok || got.Unit != unit {
						t.Errorf("seed %s trace %s: metric %s = %+v, want unit %q", c.seed, c.trace, name, got, unit)
					}
				}
				if c.trace == "1" && res.Metrics["failed_frac"].Value != 0 {
					t.Errorf("failed_frac = %v", res.Metrics["failed_frac"].Value)
				}
			}
		})
	}
}

// TestSimCyclesRepeatExactly builds every workload's set-up twice from the
// same seed, on fresh engines and fleets: the verification pass's simulated
// cycles must be identical. Within one set-up, fleet-run also requires
// every deploy mode of a target (eager, lazy, tiered, governed) to spend
// the same cycles on the same request, and fleet-deploy eager and lazy.
func TestSimCyclesRepeatExactly(t *testing.T) {
	setups := map[string]func(rep *report) (int64, func(), error){
		"fleet-run": func(rep *report) (int64, func(), error) {
			w, err := newFleetRun(3, rep)
			if err != nil {
				return 0, nil, err
			}
			c, err := w.setup()
			return c, func() { stopFleet(w.f) }, err
		},
		"fleet-deploy": func(rep *report) (int64, func(), error) {
			w, err := newFleetDeploy(&config{seed: 3, workDir: t.TempDir()}, rep)
			if err != nil {
				return 0, nil, err
			}
			c, err := w.setup()
			return c, func() { stopFleet(w.f) }, err
		},
		"kernel-matrix": func(rep *report) (int64, func(), error) {
			w, err := newKernelMatrix(3, rep)
			if err != nil {
				return 0, nil, err
			}
			c, err := w.setup()
			return c, func() {}, err
		},
	}
	for name, setup := range setups {
		t.Run(name, func(t *testing.T) {
			var cycles []int64
			for i := 0; i < 2; i++ {
				rep := newReport()
				c, stop, err := setup(rep)
				if stop != nil {
					stop()
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.problems) > 0 {
					t.Fatalf("verification problems: %v", rep.problems)
				}
				cycles = append(cycles, c)
			}
			if cycles[0] != cycles[1] || cycles[0] <= 0 {
				t.Errorf("verification cycles %d then %d", cycles[0], cycles[1])
			}
		})
	}
}

func stopFleet(f *fleet) {
	if f != nil {
		f.stop()
	}
}

// TestLadderReconciles checks that BENCHMARK.json states the tolerance
// within which fleet-run's layer increments (engine, svd handler, svd HTTP,
// router) must add up to the untraced median request, and that a traced
// run at another seed reconciles; the traced run itself fails when it does
// not.
func TestLadderReconciles(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		if w.Name == "fleet-run" && !strings.Contains(w.Why, fmt.Sprintf("within %.0f%%", ladderTolerance*100)) {
			t.Errorf("fleet-run's why does not state the %.0f%% ladder tolerance: %q", ladderTolerance*100, w.Why)
		}
	}
	runOnce(t, "--workload", "fleet-run", "--seed", "5", "--seconds", "4", "--trace", "1")
}
