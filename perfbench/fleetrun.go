package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"repro/internal/target"
	"repro/pkg/splitvm"
	"repro/pkg/splitvm/server"
)

// sumsqSource is the fleet-run module: scalar arguments only, so svd's
// textual run arguments apply, and a loop whose length is the request size.
const sumsqSource = `
i64 sumsq(i32 n) {
    i64 s = 0;
    for (i32 i = 1; i <= n; i++) { s = s + (i64) (i * i); }
    return s;
}
`

// fleetTargets are the targets the fleet workloads deploy on.
var fleetTargets = []string{"x86-sse", "ultrasparc", "powerpc", "mcu"}

// deployMode is one way of deploying a module, spelled both as an svd
// request and as in-process deploy options (for the ladder's engine rung).
type deployMode struct {
	name  string
	apply func(*server.DeployRequest)
	opts  []splitvm.DeployOption
}

// governedMemLimit and governedDeadline are generous enough that no
// fleet-run request breaches them: governed runs must match ungoverned ones.
const (
	governedMemLimit = 1 << 20
	governedDeadline = 2 * time.Second
)

var deployModes = []deployMode{
	{"eager", func(*server.DeployRequest) {}, nil},
	{"lazy", func(r *server.DeployRequest) { r.Lazy = true },
		[]splitvm.DeployOption{splitvm.WithLazyCompile(true)}},
	{"tiered", func(r *server.DeployRequest) { r.Tiering = true },
		[]splitvm.DeployOption{splitvm.WithTiering(true)}},
	{"governed", func(r *server.DeployRequest) {
		r.MemLimit = governedMemLimit
		r.RunDeadlineMillis = governedDeadline.Milliseconds()
	}, []splitvm.DeployOption{splitvm.WithMemLimit(governedMemLimit), splitvm.WithRunDeadline(governedDeadline)}},
}

// fleetRunSizes is how many distinct request sizes a seed draws: one per
// equal-width stratum of 64..1023, so every seed covers the whole range.
// Mirrored strata take mirrored offsets, so the sizes add up to the same
// total for every seed and the verification pass's cycles, linear in the
// sizes, barely depend on the seed.
const fleetRunSizes = 32

// fleetRun serves sumsq(n) run requests through a router over two svd
// backends; one request in eight is a run-batch over eight deployments.
type fleetRun struct {
	rep     *report
	f       *fleet
	encoded [][]byte // per deploy mode (each mode is its own module), compiled by setup
	deps    []frDeployment
	sizes   []int
	want    []int64
	bodies  [][]byte // run request per size
}

type frDeployment struct {
	ns, local string
	backend   int
	target    string
	mode      int
}

func newFleetRun(seed int64, rep *report) (*fleetRun, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &fleetRun{rep: rep}
	oracle, err := splitvm.New().Compile(sumsqSource)
	if err != nil {
		return nil, err
	}
	width := (1024 - 64) / fleetRunSizes
	w.sizes = make([]int, fleetRunSizes)
	for i := 0; i < fleetRunSizes/2; i++ {
		r, j := rng.Intn(width), fleetRunSizes-1-i
		w.sizes[i] = 64 + i*width + r
		w.sizes[j] = 64 + j*width + width - 1 - r
	}
	for _, n := range w.sizes {
		res, err := oracle.Interpret("sumsq", splitvm.IntArg(int64(n)))
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(server.RunRequest{Entry: "sumsq", Args: []string{strconv.Itoa(n)}})
		if err != nil {
			return nil, err
		}
		w.want = append(w.want, res.Value.I)
		w.bodies = append(w.bodies, body)
	}
	return w, nil
}

// setup starts the fleet, compiles one module per deploy mode offline,
// uploads each and deploys it on every fleet target, then runs the
// verification pass (which also pays the lazy deployments' first-call
// compilations). It returns the pass's simulated cycles.
func (w *fleetRun) setup() (int64, error) {
	w.f, w.deps, w.encoded = nil, nil, nil
	f, err := startFleet(fleetOptions{})
	if err != nil {
		return 0, err
	}
	w.f = f
	comp := splitvm.New()
	for mi, m := range deployModes {
		mod, err := comp.Compile(sumsqSource, splitvm.WithModuleName("sumsq_"+m.name))
		if err != nil {
			return 0, err
		}
		w.encoded = append(w.encoded, mod.Encoded())
		id, err := f.upload(w.encoded[mi])
		if err != nil {
			return 0, err
		}
		req := server.DeployRequest{Module: id, Targets: fleetTargets}
		m.apply(&req)
		infos, err := f.deploy(req)
		if err != nil {
			return 0, err
		}
		for _, in := range infos {
			b, local, err := backendOf(in.ID)
			if err != nil {
				return 0, err
			}
			w.deps = append(w.deps, frDeployment{ns: in.ID, local: local, backend: b, target: in.Target, mode: mi})
		}
	}
	return w.verify()
}

// verify runs every distinct request (deployment × size) once through the
// router, checks each result, and checks that every deploy mode of a target
// spent exactly the same simulated cycles on the same request.
func (w *fleetRun) verify() (int64, error) {
	var total int64
	cycles := map[string]int64{} // target/size → cycles of the first mode seen
	for _, d := range w.deps {
		for k := range w.sizes {
			var rr server.RunResponse
			if err := w.f.do(http.MethodPost, w.f.url+"/v1/deployments/"+d.ns+"/run", "application/json", w.bodies[k], &rr); err != nil {
				return 0, fmt.Errorf("verification run %s n=%d: %w", d.ns, w.sizes[k], err)
			}
			if rr.Value != w.want[k] {
				w.rep.fail("verification: %s (%s, %s) sumsq(%d) = %d, oracle %d",
					d.ns, d.target, deployModes[d.mode].name, w.sizes[k], rr.Value, w.want[k])
			}
			key := fmt.Sprintf("%s/%d", d.target, k)
			if c, ok := cycles[key]; ok && c != rr.Cycles {
				w.rep.fail("verification: %s sumsq(%d) took %d cycles %s, %d in another mode",
					d.target, w.sizes[k], rr.Cycles, deployModes[d.mode].name, c)
			}
			cycles[key] = rr.Cycles
			total += rr.Cycles
		}
	}
	return total, nil
}

// classOf numbers the single-run request classes (deployment × size).
func (w *fleetRun) classOf(dep, k int) int { return dep*len(w.sizes) + k }

// op issues one request: a run-batch over eight deployments with
// probability 1/8, otherwise one run.
func (w *fleetRun) op(_ int, rng *rand.Rand) (int, bool) {
	k := rng.Intn(len(w.sizes))
	if rng.Intn(8) == 0 {
		perm := rng.Perm(len(w.deps))[:8]
		ids := make([]string, len(perm))
		for i, p := range perm {
			ids[i] = w.deps[p].ns
		}
		var resp server.RunBatchResponse
		err := w.f.doJSON(http.MethodPost, w.f.url+"/v1/run-batch",
			server.RunBatchRequest{Deployments: ids, Entry: "sumsq", Args: []string{strconv.Itoa(w.sizes[k])}}, &resp)
		if err != nil {
			w.rep.fail("run-batch n=%d: %v", w.sizes[k], err)
			return -1, false
		}
		ok := len(resp.Results) == len(ids)
		for _, r := range resp.Results {
			if r.Error != "" || r.Value != w.want[k] {
				w.rep.fail("run-batch item %s sumsq(%d) = %d (%s), oracle %d", r.Deployment, w.sizes[k], r.Value, r.Error, w.want[k])
				ok = false
			}
		}
		return -1, ok
	}
	di := rng.Intn(len(w.deps))
	ok := w.runOne(w.f.url+"/v1/deployments/"+w.deps[di].ns+"/run", k)
	return w.classOf(di, k), ok
}

// runOne posts the run request of size index k to url and checks the reply.
func (w *fleetRun) runOne(url string, k int) bool {
	var rr server.RunResponse
	if err := w.f.do(http.MethodPost, url, "application/json", w.bodies[k], &rr); err != nil {
		w.rep.fail("run %s n=%d: %v", url, w.sizes[k], err)
		return false
	}
	if rr.Value != w.want[k] {
		w.rep.fail("run %s sumsq(%d) = %d, oracle %d", url, w.sizes[k], rr.Value, w.want[k])
		return false
	}
	return true
}

func runFleetRun(cfg *config) (*report, error) {
	rep := newReport()
	w, err := newFleetRun(cfg.seed, rep)
	if err != nil {
		return nil, err
	}
	setup, cycles, err := repeatSetup(setups, w.setup, func() { w.f.stop() })
	if w.f != nil {
		defer w.f.stop()
	}
	if err != nil {
		return nil, err
	}
	rep.metric("setup_s", setup)
	rep.metric("sim_cycles", float64(cycles))

	tr := newTracer()
	var lad *runLadder
	var ladErr error
	var between func(int)
	if cfg.trace {
		if lad, err = w.newRunLadder(cfg, tr); err != nil {
			return nil, err
		}
		between = func(i int) {
			if ladErr == nil {
				var bg phase
				bg, ladErr = lad.run(ladderRounds/traceSlices, cfg.seed+100+int64(i), w.op)
				rep.account(bg)
			}
		}
	}
	before, err := w.f.counters()
	if err != nil {
		return nil, err
	}
	ph, tp := measure(cfg, 2, wallClock, w.op, withSpan(tr, "router.request", w.op), between)
	rep.account(ph)
	e2eFromPhase(rep, ph)
	if err := w.facts(rep, ph); err != nil {
		return nil, err
	}
	if cfg.trace {
		if ladErr != nil {
			return nil, ladErr
		}
		rep.account(tp)
		rep.layer("trace.overhead_frac", 1-tp.opsPerSec()/ph.opsPerSec())
		after, err := w.f.counters()
		if err != nil {
			return nil, err
		}
		fleetLayers(rep, before, after, int64(len(ph.samples)+len(tp.samples)))
		if err := w.traced(cfg, rep, tr, ph, lad); err != nil {
			return nil, err
		}
	}
	rep.metric("peak_rss_mb", peakRSSMiB())
	return rep, nil
}

// facts records the measured traffic mix of a phase and the guest memory
// its operations grow: each fleet target's eager deployment, made in
// process and warmed up by one run, runs every request size once, and the
// growth per run is scaled by the phase's runs per operation (a run-batch
// is eight runs).
func (w *fleetRun) facts(rep *report, ph phase) error {
	var batches, lazy int
	for _, s := range ph.samples {
		if s.class < 0 {
			batches++
		} else if deployModes[w.deps[s.class/len(w.sizes)].mode].name == "lazy" {
			lazy++
		}
	}
	n := float64(max(len(ph.samples), 1))
	rep.layer("traffic.batch_share", float64(batches)/n)
	rep.layer("traffic.lazy_share", float64(lazy)/n)

	eng := splitvm.New()
	mod, err := eng.Load(w.encoded[0])
	if err != nil {
		return err
	}
	var grown, runs int64
	for _, t := range fleetTargets {
		dep, err := eng.Deploy(mod, splitvm.WithTarget(target.Arch(t)))
		if err != nil {
			return err
		}
		if _, err := dep.Run("sumsq", splitvm.IntArg(int64(w.sizes[0]))); err != nil {
			return err
		}
		mem0 := dep.MemUsed()
		for k, size := range w.sizes {
			v, err := dep.Run("sumsq", splitvm.IntArg(int64(size)))
			if err != nil {
				return err
			}
			if v.I != w.want[k] {
				w.rep.fail("guest-growth run on %s sumsq(%d) = %d, oracle %d", t, size, v.I, w.want[k])
			}
			runs++
		}
		grown += dep.MemUsed() - mem0
	}
	runsPerOp := 1 + 7*float64(batches)/n
	rep.layer("sim.guest_kib_per_op", float64(grown)/float64(runs)*runsPerOp/1024)
	return nil
}

// ladderRounds is how many requests the fleet-run ladder replays, spread
// over the traced run's slices.
const ladderRounds = 1600

// runLadder is fleet-run's ladder. Its rounds replay single-run requests
// drawn as the timed loop draws them (a seeded deployment and size per
// round, the same request at every rung); the engine rung runs on
// in-process twins of the fleet deployments, made on their backends'
// engines.
type runLadder struct {
	*ladder
	mods []*splitvm.Module // per fleet deployment
	// instr and sim total the engine rung's simulated instructions and
	// time.
	instr int64
	sim   time.Duration
}

func (w *fleetRun) newRunLadder(cfg *config, tr *tracer) (*runLadder, error) {
	l := &runLadder{}
	deps := make([]*splitvm.Deployment, len(w.deps))
	for i, d := range w.deps {
		eng := w.f.backends[d.backend].Engine()
		mod, err := eng.Load(w.encoded[d.mode])
		if err != nil {
			return nil, err
		}
		dep, err := eng.Deploy(mod, append([]splitvm.DeployOption{splitvm.WithTarget(target.Arch(d.target))}, deployModes[d.mode].opts...)...)
		if err != nil {
			return nil, err
		}
		if _, err := dep.Run("sumsq", splitvm.IntArg(int64(w.sizes[0]))); err != nil { // pays a lazy first call outside the ladder
			return nil, err
		}
		l.mods = append(l.mods, mod)
		deps[i] = dep
	}
	rng := rand.New(rand.NewSource(cfg.seed + 3))
	picks := make([]ladderPick, ladderRounds)
	for r := range picks {
		picks[r] = ladderPick{dep: rng.Intn(len(w.deps)), size: rng.Intn(len(w.sizes))}
	}
	var handlers, backends []poster
	for b, srv := range w.f.backends {
		handlers = append(handlers, direct(srv))
		backends = append(backends, w.f.via(w.f.urls[b]))
	}
	router := w.f.via(w.f.url)
	l.ladder = newLadder(tr, []rung{
		func(r int) ([]time.Duration, error) {
			dep, k := deps[picks[r].dep], picks[r].size
			instr0 := dep.Stats().Instructions
			t0 := time.Now()
			v, err := dep.Run("sumsq", splitvm.IntArg(int64(w.sizes[k])))
			el := time.Since(t0)
			l.instr += dep.Stats().Instructions - instr0
			l.sim += el
			if err == nil && v.I != w.want[k] {
				err = fmt.Errorf("engine sumsq(%d) = %d, oracle %d", w.sizes[k], v.I, w.want[k])
			}
			return []time.Duration{el}, err
		},
		w.runRung(picks, func(d frDeployment) (poster, string) {
			return handlers[d.backend], "/v1/deployments/" + d.local + "/run"
		}),
		w.runRung(picks, func(d frDeployment) (poster, string) {
			return backends[d.backend], "/v1/deployments/" + d.local + "/run"
		}),
		w.runRung(picks, func(d frDeployment) (poster, string) {
			return router, "/v1/deployments/" + d.ns + "/run"
		}),
	})
	return l, nil
}

// traced reports the per-layer metrics: the ladder's increments, whose
// total must match the untraced median request within ladderTolerance,
// svd's deploy path and the compilers.
func (w *fleetRun) traced(cfg *config, rep *report, tr *tracer, ph phase, lad *runLadder) error {
	p50 := median(ph.latencies())
	if total := ladderLayers(rep, lad.medians(), 0, p50); math.Abs(float64(p50-total)) > ladderTolerance*float64(p50) {
		rep.fail("ladder %v does not reconcile with the untraced median %v within %.0f%%", total, p50, ladderTolerance*100)
	}
	rep.layer("sim.mips", float64(lad.instr)/us(lad.sim))

	// svd's deploy path on one module and target: a code-cache hit through
	// the handler, against the same hit in process.
	d, mod := w.deps[0], lad.mods[0]
	srv, arch := w.f.backends[d.backend], target.Arch(d.target)
	var inproc, handler []time.Duration
	body, err := json.Marshal(server.DeployRequest{Module: mod.Hash(), Targets: []string{d.target}})
	if err != nil {
		return err
	}
	for r := 0; r < 40; r++ {
		t0 := time.Now()
		if _, err := srv.Engine().Deploy(mod, splitvm.WithTarget(arch)); err != nil {
			return err
		}
		inproc = append(inproc, time.Since(t0))
		t0 = time.Now()
		if err := direct(srv)("/v1/deploy", body, nil); err != nil {
			return err
		}
		handler = append(handler, time.Since(t0))
	}
	rep.layer("svd.deploy_us", us(median(handler)-median(inproc)))

	if err := compileProbe(rep, sumsqSource, arch, 10); err != nil {
		return err
	}
	return tr.write(spanPath(cfg))
}

// ladderPick is one ladder round's request: a deployment and a size index.
type ladderPick struct{ dep, size int }

// runRung is a ladder rung that posts each round's run request for the
// picked deployment to the layer and path at returns.
func (w *fleetRun) runRung(picks []ladderPick, at func(frDeployment) (poster, string)) rung {
	return func(r int) ([]time.Duration, error) {
		k := picks[r].size
		post, path := at(w.deps[picks[r].dep])
		t0 := time.Now()
		var rr server.RunResponse
		err := post(path, w.bodies[k], &rr)
		el := time.Since(t0)
		if err == nil && rr.Value != w.want[k] {
			err = fmt.Errorf("%s sumsq(%d) = %d, oracle %d", path, w.sizes[k], rr.Value, w.want[k])
		}
		return []time.Duration{el}, err
	}
}
