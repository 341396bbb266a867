package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/kernels"
	"repro/internal/target"
	"repro/pkg/splitvm"
)

// kernelN is the element count of every kernel-matrix input.
const kernelN = 4096

// kmMemBudget is the device memory a kernel-matrix deployment may hold
// before it is replaced by a fresh deployment of the same cached image.
// The simulated heap never frees (every RunKernel copies its inputs into
// new guest memory), so without a budget a run's footprint would grow with
// its length; with it, peak_rss_mb and op_p99_ms still carry the growth.
const kmMemBudget = 4 << 20

// kmCell is one kernel deployed on one target; the deployment lives for the
// whole run, as a device's would.
type kmCell struct {
	kernel splitvm.Kernel
	arch   target.Arch
	mod    *splitvm.Module
	dep    *splitvm.Deployment
	in     *splitvm.Inputs
	// want and wantOut are the reference result and output arrays.
	want    float64
	wantOut [][]byte
	// instr and guest accumulate the simulated instructions executed and
	// the guest memory grown by this cell's runs, across redeployments.
	instr, guest int64
	runs         int64
}

// kernelMatrix runs every Table 1 kernel on every built-in target, in
// process, one goroutine.
type kernelMatrix struct {
	rep *report
	eng *splitvm.Engine
	// redeploys counts deployments replaced on reaching kmMemBudget.
	redeploys int64
	names     []string
	targets   []target.Arch
	inputs    map[string]*splitvm.Inputs
	cells     []*kmCell
}

func newKernelMatrix(seed int64, rep *report) (*kernelMatrix, error) {
	w := &kernelMatrix{rep: rep, names: splitvm.Table1KernelNames(), inputs: map[string]*splitvm.Inputs{}}
	for _, d := range target.All() {
		w.targets = append(w.targets, d.Arch)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, name := range w.names {
		in, err := splitvm.NewInputs(name, kernelN, rng.Int63())
		if err != nil {
			return nil, err
		}
		w.inputs[name] = in
	}
	return w, nil
}

// setup compiles the six kernels (vectorized) on a fresh engine and deploys
// each on every target, then runs the verification pass: one run per cell,
// checked against the reference, returning the simulated cycles.
func (w *kernelMatrix) setup() (int64, error) {
	eng := splitvm.New(splitvm.WithVectorize(true))
	w.eng, w.cells = eng, nil
	for _, name := range w.names {
		m, k, err := eng.CompileKernel(name)
		if err != nil {
			return 0, err
		}
		in := w.inputs[name]
		ref := in.Clone()
		want, err := kernels.Reference(name, ref)
		if err != nil {
			return 0, err
		}
		var wantOut [][]byte
		for _, a := range ref.Arrays {
			wantOut = append(wantOut, a.Data)
		}
		for _, arch := range w.targets {
			dep, err := eng.Deploy(m, splitvm.WithTarget(arch))
			if err != nil {
				return 0, fmt.Errorf("deploying %s on %s: %w", name, arch, err)
			}
			w.cells = append(w.cells, &kmCell{kernel: k, arch: arch, mod: m, dep: dep, in: in, want: want, wantOut: wantOut})
		}
	}
	var total int64
	for _, c := range w.cells {
		run, ok := w.run(c)
		if !ok {
			return 0, fmt.Errorf("verification of %s on %s failed", c.kernel.Name, c.arch)
		}
		total += run.Cycles
	}
	return total, nil
}

// run executes one cell and checks its result and output arrays.
func (w *kernelMatrix) run(c *kmCell) (*splitvm.KernelRun, bool) {
	if c.dep.MemUsed() > kmMemBudget {
		dep, err := w.eng.Deploy(c.mod, splitvm.WithTarget(c.arch))
		if err != nil {
			w.rep.fail("redeploying %s on %s: %v", c.kernel.Name, c.arch, err)
			return nil, false
		}
		c.dep = dep
		w.redeploys++
	}
	instr0, mem0 := c.dep.Stats().Instructions, c.dep.MemUsed()
	run, err := c.dep.RunKernel(c.kernel, c.in)
	c.instr += c.dep.Stats().Instructions - instr0
	c.guest += c.dep.MemUsed() - mem0
	c.runs++
	if err != nil {
		w.rep.fail("%s on %s: %v", c.kernel.Name, c.arch, err)
		return nil, false
	}
	got := float64(run.Result.I)
	if c.kernel.Elem.IsFloat() && c.kernel.Reduction {
		got = run.Result.F
	}
	if c.kernel.Reduction && got != c.want {
		w.rep.fail("%s on %s = %v, reference %v", c.kernel.Name, c.arch, got, c.want)
		return run, false
	}
	for i, out := range run.Outputs {
		if !bytes.Equal(out.Data, c.wantOut[i]) {
			w.rep.fail("%s on %s: output array %d differs from the reference", c.kernel.Name, c.arch, i)
			return run, false
		}
	}
	return run, true
}

// pass is one operation: every cell once. When cellTimes is not nil each
// cell's RunKernel time, on the thread clock like the pass's, is appended to
// it.
func (w *kernelMatrix) pass(cellTimes [][]time.Duration) bool {
	ok := true
	for i, c := range w.cells {
		t0 := threadCPU()
		_, good := w.run(c)
		if cellTimes != nil {
			cellTimes[i] = append(cellTimes[i], threadCPU()-t0)
		}
		ok = ok && good
	}
	return ok
}

// guest sums the guest memory the cells' runs have grown so far.
func (w *kernelMatrix) guest() int64 {
	var total int64
	for _, c := range w.cells {
		total += c.guest
	}
	return total
}

func runKernelMatrix(cfg *config) (*report, error) {
	rep := newReport()
	w, err := newKernelMatrix(cfg.seed, rep)
	if err != nil {
		return nil, err
	}
	setup, cycles, err := repeatSetup(setups, w.setup, func() {})
	if err != nil {
		return nil, err
	}
	rep.metric("setup_s", setup)
	rep.metric("sim_cycles", float64(cycles))

	mem0, redeploys0, cache0 := w.guest(), w.redeploys, w.eng.CacheStats()
	tr := newTracer()
	cellTimes := make([][]time.Duration, len(w.cells))
	op := func(int, *rand.Rand) (int, bool) { return 0, w.pass(nil) }
	tracedOp := func(int, *rand.Rand) (int, bool) {
		t0 := time.Now()
		ok := w.pass(cellTimes)
		root := tr.record("kernel-matrix.pass", 0, 0, t0, time.Now())
		at := t0
		for i, c := range w.cells {
			d := cellTimes[i][len(cellTimes[i])-1]
			tr.record("engine.RunKernel/"+c.kernel.Name+"/"+string(c.arch), root, root, at, at.Add(d))
			at = at.Add(d)
		}
		return 0, ok
	}
	ph, tp := measure(cfg, 1, threadClock, op, tracedOp, nil)
	rep.account(ph)
	rep.account(tp)
	e2eFromPhase(rep, ph)
	ops := float64(len(ph.samples) + len(tp.samples))
	rep.layer("sim.guest_kib_per_op", float64(w.guest()-mem0)/ops/1024)
	rep.layer("engine.redeploys_per_op", float64(w.redeploys-redeploys0)/ops)
	if cfg.trace {
		rep.layer("trace.overhead_frac", 1-tp.opsPerSec()/ph.opsPerSec())
		cache := w.eng.CacheStats()
		if hits, misses := cache.Hits-cache0.Hits, cache.Misses-cache0.Misses; hits+misses > 0 {
			rep.layer("engine.cache_hit_ratio", float64(hits)/float64(hits+misses))
		}
		if err := w.traced(cfg, rep, tr, ph, cellTimes); err != nil {
			return nil, err
		}
	}
	rep.metric("peak_rss_mb", peakRSSMiB())
	return rep, nil
}

// traced derives the simulator's per-layer metrics from the traced slices:
// each cell's sim MIPS is its instructions per run over its median
// RunKernel time.
func (w *kernelMatrix) traced(cfg *config, rep *report, tr *tracer, ph phase, cellTimes [][]time.Duration) error {
	var simTotal time.Duration
	var instrTotal float64
	for i, c := range w.cells {
		med := median(cellTimes[i])
		simTotal += med
		instr := float64(c.instr) / float64(c.runs)
		instrTotal += instr
		rep.layer(cellMetric(c.kernel.Name, c.arch), instr/us(med))
	}
	p50 := median(ph.latencies())
	rep.layer("sim.run_us", us(simTotal))
	rep.layer("sim.mips", instrTotal/us(simTotal))
	rep.layer("sim.share", float64(simTotal)/float64(p50))
	rep.layer("trace.unexplained_us", us(p50-simTotal))
	var quarantines int64
	for _, c := range w.cells {
		quarantines += c.dep.GuardStats().Quarantines
	}
	rep.layer("core.quarantines", float64(quarantines))
	k, err := kernels.Get("saxpy_fp")
	if err != nil {
		return err
	}
	if err := compileProbe(rep, k.Source, target.X86SSE, 10); err != nil {
		return err
	}
	return tr.write(spanPath(cfg))
}
