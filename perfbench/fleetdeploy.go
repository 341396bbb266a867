package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/kernels"
	"repro/internal/target"
	"repro/pkg/splitvm"
	"repro/pkg/splitvm/server"
)

// Fleet-deploy population: variants of one multi-kernel module, each on
// every fleet target, eager or lazy — more images than the capped code
// caches hold, so popular variants hit and the tail compiles.
const (
	fdVariants  = 16
	fdCacheSize = 56 // per backend engine
	fdN         = 256
	fdZipfS     = 1.2
	fdTTL       = 250 * time.Millisecond
)

// suiteTemplate calls five Table 1 kernels on arrays it allocates with new.
// The placeholders are the variant's constants: fill multipliers and powers
// of two for the scale factors, so every intermediate is an exact float and
// the result compares bit for bit against the reference interpreter.
const suiteTemplate = `
f64 suite(i32 n) {
    f64 a[] = new f64[n];
    f64 b[] = new f64[n];
    f64 c[] = new f64[n];
    u8 p[] = new u8[n];
    for (i32 i = 0; i < n; i++) {
        a[i] = (f64) ((i * K1) % 64);
        b[i] = (f64) ((i * K2) % 32);
        p[i] = (u8) ((i * K3) % 251);
    }
    vecadd(c, a, b, n);
    saxpy(c, a, ALPHA, n);
    dscal(c, BETA, n);
    f64 s = 0.0;
    for (i32 i = 0; i < n; i++) {
        s = s + c[i];
    }
    return s + (f64) sum_u8(p, n) + (f64) max_u8(p, n);
}
`

// suiteSource builds one seeded variant of the suite module.
func suiteSource(rng *rand.Rand) string {
	scales := []string{"0.25", "0.5", "2.0", "4.0"}
	r := strings.NewReplacer(
		"K1", strconv.Itoa(1+rng.Intn(97)),
		"K2", strconv.Itoa(1+rng.Intn(97)),
		"K3", strconv.Itoa(1+rng.Intn(97)),
		"ALPHA", scales[rng.Intn(len(scales))],
		"BETA", scales[rng.Intn(len(scales))],
	)
	src := r.Replace(suiteTemplate)
	for _, name := range []string{"vecadd_fp", "saxpy_fp", "dscal_fp", "sum_u8", "max_u8"} {
		src += kernels.MustGet(name).Source
	}
	return src
}

// fleetDeploy deploys a Zipf-popular variant on one target through the
// router, then runs suite(n) on the new deployment.
type fleetDeploy struct {
	rep     *report
	cfg     *config
	f       *fleet
	sources []string
	encoded [][]byte // per variant, compiled by setup
	ids     []string // module id per variant
	want    []float64
	runBody []byte
	setupNo int
	// cdf is the cumulative Zipf popularity of the variants.
	cdf []float64
}

func newFleetDeploy(cfg *config, rep *report) (*fleetDeploy, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	w := &fleetDeploy{rep: rep, cfg: cfg}
	oracle := splitvm.New()
	for v := 0; v < fdVariants; v++ {
		src := suiteSource(rng)
		m, err := oracle.Compile(src, splitvm.WithModuleName("suite"))
		if err != nil {
			return nil, fmt.Errorf("variant %d: %w", v, err)
		}
		res, err := m.Interpret("suite", splitvm.IntArg(fdN))
		if err != nil {
			return nil, err
		}
		w.sources = append(w.sources, src)
		w.want = append(w.want, res.Value.F)
	}
	var total float64
	for v := 0; v < fdVariants; v++ {
		total += math.Pow(float64(v+1), -fdZipfS)
		w.cdf = append(w.cdf, total)
	}
	for v := range w.cdf {
		w.cdf[v] /= total
	}
	var err error
	w.runBody, err = json.Marshal(server.RunRequest{Entry: "suite", Args: []string{strconv.Itoa(fdN)}})
	return w, err
}

// setup starts a journaled fleet with capped code caches and the idle
// sweeper, compiles every variant offline and uploads it, and runs the
// verification pass: each variant deployed and run once per target, eager
// and lazy.
func (w *fleetDeploy) setup() (int64, error) {
	w.f, w.ids, w.encoded = nil, nil, nil
	w.setupNo++
	dir := fmt.Sprintf("%s/setup-%d", w.cfg.workDir, w.setupNo)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	f, err := startFleet(fleetOptions{cacheSize: fdCacheSize, deployTTL: fdTTL, journal: dir})
	if err != nil {
		return 0, err
	}
	w.f = f
	comp := splitvm.New()
	for v, src := range w.sources {
		m, err := comp.Compile(src, splitvm.WithModuleName("suite"))
		if err != nil {
			return 0, fmt.Errorf("variant %d: %w", v, err)
		}
		w.encoded = append(w.encoded, m.Encoded())
		id, err := f.upload(m.Encoded())
		if err != nil {
			return 0, err
		}
		w.ids = append(w.ids, id)
	}
	var total int64
	for v := range w.ids {
		for _, t := range fleetTargets {
			var eager int64
			for _, lazy := range []bool{false, true} {
				_, rr, err := w.deployRun(f.url, v, t, lazy)
				if err != nil {
					return 0, fmt.Errorf("verification of variant %d on %s: %w", v, t, err)
				}
				if rr.Float != w.want[v] {
					w.rep.fail("verification: variant %d on %s (lazy %v) suite(%d) = %v, oracle %v", v, t, lazy, fdN, rr.Float, w.want[v])
				}
				if lazy && rr.Cycles != eager {
					w.rep.fail("verification: variant %d on %s took %d cycles lazy, %d eager", v, t, rr.Cycles, eager)
				}
				eager = rr.Cycles
				total += rr.Cycles
			}
		}
	}
	return total, nil
}

// deployRun deploys variant v on one target through base (the router or a
// backend) and runs suite(n) on the new deployment.
func (w *fleetDeploy) deployRun(base string, v int, tgt string, lazy bool) (server.DeploymentInfo, server.RunResponse, error) {
	var dr server.DeployResponse
	var rr server.RunResponse
	req := server.DeployRequest{Module: w.ids[v], Targets: []string{tgt}, Lazy: lazy}
	if err := w.f.doJSON(http.MethodPost, base+"/v1/deploy", req, &dr); err != nil {
		return server.DeploymentInfo{}, rr, fmt.Errorf("deploy: %w", err)
	}
	if len(dr.Deployments) != 1 {
		return server.DeploymentInfo{}, rr, fmt.Errorf("deploy created %d deployments", len(dr.Deployments))
	}
	info := dr.Deployments[0]
	err := w.f.do(http.MethodPost, base+"/v1/deployments/"+info.ID+"/run", "application/json", w.runBody, &rr)
	return info, rr, err
}

// opChoice is one drawn operation: a variant, a target and eager or lazy.
type opChoice struct {
	variant, target int
	lazy            bool
}

// classOf numbers an operation by its choice and by whether its deploy
// compiled (a code-cache miss), so hits and misses never share a class.
func (c opChoice) classOf(cold bool) int {
	class := (c.variant*len(fleetTargets) + c.target) * 4
	if c.lazy {
		class += 2
	}
	if cold {
		class++
	}
	return class
}

func choiceOf(class int) (c opChoice, cold bool) {
	return opChoice{variant: class / 4 / len(fleetTargets), target: class / 4 % len(fleetTargets), lazy: class&2 != 0}, class&1 != 0
}

// draw picks a Zipf-popular variant, a uniform target and eager or lazy with
// even odds.
func (w *fleetDeploy) draw(rng *rand.Rand) opChoice {
	u := rng.Float64()
	v := sort.SearchFloat64s(w.cdf, u)
	return opChoice{variant: min(v, fdVariants-1), target: rng.Intn(len(fleetTargets)), lazy: rng.Intn(2) == 1}
}

// op deploys a drawn variant through the router and runs it once.
func (w *fleetDeploy) op(_ int, rng *rand.Rand) (int, bool) {
	ch := w.draw(rng)
	tgt := fleetTargets[ch.target]
	info, rr, err := w.deployRun(w.f.url, ch.variant, tgt, ch.lazy)
	class := ch.classOf(!info.FromCache)
	if err != nil {
		w.rep.fail("variant %d on %s (lazy %v): %v", ch.variant, tgt, ch.lazy, err)
		return class, false
	}
	if rr.Float != w.want[ch.variant] {
		w.rep.fail("variant %d on %s (lazy %v) suite(%d) = %v, oracle %v", ch.variant, tgt, ch.lazy, fdN, rr.Float, w.want[ch.variant])
		return class, false
	}
	return class, true
}

func runFleetDeploy(cfg *config) (*report, error) {
	rep := newReport()
	w, err := newFleetDeploy(cfg, rep)
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

	before, err := w.f.counters()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	ph, tp := measure(cfg, 2, wallClock, w.op, withSpan(tr, "router.deploy+run", w.op), nil)
	rep.account(ph)
	e2eFromPhase(rep, ph)
	var cold, lazy int
	for _, s := range ph.samples {
		ch, c := choiceOf(s.class)
		if c {
			cold++
		}
		if ch.lazy {
			lazy++
		}
	}
	n := float64(max(len(ph.samples), 1))
	rep.layer("traffic.cold_jit_share", float64(cold)/n)
	rep.layer("traffic.lazy_share", float64(lazy)/n)
	if err := w.guestGrowth(rep); err != nil {
		return nil, err
	}
	if cfg.trace {
		rep.account(tp)
		rep.layer("trace.overhead_frac", 1-tp.opsPerSec()/ph.opsPerSec())
		after, err := w.f.counters()
		if err != nil {
			return nil, err
		}
		fleetLayers(rep, before, after, int64(len(ph.samples)+len(tp.samples)))
		if err := w.traced(cfg, rep, tr, ph); err != nil {
			return nil, err
		}
	}
	rep.metric("peak_rss_mb", peakRSSMiB())
	return rep, nil
}

// guestGrowth records the guest memory one operation grows: a fresh
// deployment of the first variant, made in process on each fleet target,
// eager and lazy, runs suite(n) once.
func (w *fleetDeploy) guestGrowth(rep *report) error {
	eng := splitvm.New()
	mod, err := eng.Load(w.encoded[0])
	if err != nil {
		return err
	}
	var grown, runs int64
	for _, t := range fleetTargets {
		for _, lazy := range []bool{false, true} {
			dep, err := eng.Deploy(mod, splitvm.WithTarget(target.Arch(t)), splitvm.WithLazyCompile(lazy))
			if err != nil {
				return err
			}
			mem0 := dep.MemUsed()
			v, err := dep.Run("suite", splitvm.IntArg(fdN))
			if err != nil {
				return err
			}
			if v.F != w.want[0] {
				w.rep.fail("guest-growth run on %s (lazy %v) suite(%d) = %v, oracle %v", t, lazy, fdN, v.F, w.want[0])
			}
			grown += dep.MemUsed() - mem0
			runs++
		}
	}
	rep.layer("sim.guest_kib_per_op", float64(grown)/float64(runs)/1024)
	return nil
}

// traced measures the per-layer metrics: the deploy-and-run ladder on the
// operation class whose untraced median is closest to the overall median,
// beside one background client.
func (w *fleetDeploy) traced(cfg *config, rep *report, tr *tracer, ph phase) error {
	p50 := median(ph.latencies())
	class := classMedianNear(ph, p50, 10)
	if class < 0 {
		return fmt.Errorf("no operation class has enough samples for the ladder")
	}
	ch, _ := choiceOf(class)
	tgt := fleetTargets[ch.target]
	// Find the backend the router places this variant on.
	info, _, err := w.deployRun(w.f.url, ch.variant, tgt, ch.lazy)
	if err != nil {
		return err
	}
	b, _, err := backendOf(info.ID)
	if err != nil {
		return err
	}
	srv := w.f.backends[b]
	mod, err := srv.Engine().Load(w.encoded[ch.variant])
	if err != nil {
		return err
	}
	opts := []splitvm.DeployOption{splitvm.WithTarget(target.Arch(tgt)), splitvm.WithLazyCompile(ch.lazy)}
	deployBody, err := json.Marshal(server.DeployRequest{Module: w.ids[ch.variant], Targets: []string{tgt}, Lazy: ch.lazy})
	if err != nil {
		return err
	}
	var runs, instr int64
	want := w.want[ch.variant]
	// deployRung deploys through post, then runs on the new deployment.
	deployRung := func(post poster) rung {
		return func(int) ([]time.Duration, error) {
			var dr server.DeployResponse
			var rr server.RunResponse
			t0 := time.Now()
			err := post("/v1/deploy", deployBody, &dr)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			if len(dr.Deployments) != 1 {
				return nil, fmt.Errorf("deploy created %d deployments", len(dr.Deployments))
			}
			err = post("/v1/deployments/"+dr.Deployments[0].ID+"/run", w.runBody, &rr)
			t2 := time.Now()
			if err == nil && rr.Float != want {
				err = fmt.Errorf("suite(%d) = %v, oracle %v", fdN, rr.Float, want)
			}
			return []time.Duration{t1.Sub(t0), t2.Sub(t1)}, err
		}
	}
	rungs := []rung{
		func(int) ([]time.Duration, error) {
			t0 := time.Now()
			dep, err := srv.Engine().Deploy(mod, opts...)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			v, err := dep.Run("suite", splitvm.IntArg(fdN))
			t2 := time.Now()
			if err == nil && v.F != want {
				err = fmt.Errorf("engine suite(%d) = %v, oracle %v", fdN, v.F, want)
			}
			runs++
			instr += dep.Stats().Instructions
			return []time.Duration{t1.Sub(t0), t2.Sub(t1)}, err
		},
		deployRung(direct(srv)),
		deployRung(w.f.via(w.f.urls[b])),
		deployRung(w.f.via(w.f.url)),
	}
	lad := newLadder(tr, rungs)
	bg, err := lad.run(150, cfg.seed+2, w.op)
	rep.account(bg)
	if err != nil {
		return err
	}
	meds := lad.medians()
	ladderLayers(rep, meds, 1, p50)
	rep.layer("svd.deploy_us", us(meds[1][0]-meds[0][0]))
	rep.layer("sim.mips", float64(instr)/float64(runs)/us(meds[0][1]))

	if err := compileProbe(rep, w.sources[ch.variant], target.Arch(tgt), 10); err != nil {
		return err
	}
	return tr.write(spanPath(cfg))
}
