package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/target"
	"repro/pkg/splitvm"
)

// span is one timed call into a layer. Spans of one request share trace;
// parent is the id of the span that caused it (0 for a root).
type span struct {
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record stores a finished span and returns its id.
func (t *tracer) record(name string, trace, parent int64, start, end time.Time) int64 {
	id := t.ids.Add(1)
	if trace == 0 {
		trace = id
	}
	s := span{Name: name, Trace: trace, ID: id, Parent: parent,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanPath is where a traced run leaves its spans: in the output
// directory, not the run's scratch directory, so they outlive the process.
func spanPath(cfg *config) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
}

// ladderTolerance is how far the ladder's total may sit from the untraced
// median operation, as a share of that median. BENCHMARK.json states it for
// fleet-run, whose traced run fails when its ladder does not reconcile.
const ladderTolerance = 0.25

// rungNames are the layers of the ladder, innermost first: the same
// request is issued to the engine, to svd's handler without a socket, to
// svd over loopback HTTP and through the router.
var rungNames = []string{"engine", "svd.handler", "svd.http", "router"}

// rung issues round r's request once at one layer and returns the time of
// each of its parts (one part for a run; deploy then run for a
// deploy-and-run operation).
type rung func(r int) ([]time.Duration, error)

// ladder issues each round's request at every rung in turn, so that drift
// and background load hit every rung alike, and keeps the time of each
// rung's parts. Each call is recorded as a span under one trace per round.
type ladder struct {
	tr    *tracer
	rungs []rung
	parts [][][]time.Duration // rung → part → one time per round
	round int
}

func newLadder(tr *tracer, rungs []rung) *ladder {
	return &ladder{tr: tr, rungs: rungs, parts: make([][][]time.Duration, len(rungs))}
}

// run issues the next n rounds beside one background client running op,
// so the ladder sees the timed loop's two-client contention, and returns
// the background client's operations.
func (l *ladder) run(n int, bgSeed int64, op opFunc) (phase, error) {
	bg := background(bgSeed, op)
	for end := l.round + n; l.round < end; l.round++ {
		var trace int64
		for i, call := range l.rungs {
			t0 := time.Now()
			p, err := call(l.round)
			if err != nil {
				return bg.stop(), fmt.Errorf("ladder rung %s: %w", rungNames[i], err)
			}
			id := l.tr.record("ladder."+rungNames[i], trace, 0, t0, time.Now())
			if trace == 0 {
				trace = id
			}
			if l.parts[i] == nil {
				l.parts[i] = make([][]time.Duration, len(p))
			}
			for j, d := range p {
				l.parts[i][j] = append(l.parts[i][j], d)
			}
		}
	}
	return bg.stop(), nil
}

// medians returns the median time of each rung's parts.
func (l *ladder) medians() [][]time.Duration {
	out := make([][]time.Duration, len(l.parts))
	for i := range l.parts {
		for _, ds := range l.parts[i] {
			out[i] = append(out[i], median(ds))
		}
	}
	return out
}

// sum adds the parts of one rung.
func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// ladderLayers turns the rung medians into per-layer increments, reports
// what of the untraced median operation the ladder leaves unexplained, and
// returns the ladder's total (the router rung).
func ladderLayers(rep *report, rungs [][]time.Duration, runPart int, p50 time.Duration) time.Duration {
	total := make([]time.Duration, len(rungs))
	for i := range rungs {
		total[i] = sum(rungs[i])
	}
	rep.layer("sim.run_us", us(rungs[0][runPart]))
	rep.layer("sim.share", float64(rungs[0][runPart])/float64(p50))
	rep.layer("svd.handler_us", us(rungs[1][runPart]-rungs[0][runPart]))
	rep.layer("svd.http_us", us(total[2]-total[1]))
	rep.layer("router.hop_us", us(total[3]-total[2]))
	rep.layer("trace.unexplained_us", us(p50-total[3]))
	return total[3]
}

// compileProbe times the offline and online compilers on one module, each
// call on a fresh engine so every compilation is cold: offline compile,
// CIL load, an eager deploy (whole-module JIT plus instantiation) and a
// lazy deploy forced through EnsureCompiled (first-call resolution of every
// method). It also times a deploy served from a warm engine's code cache.
func compileProbe(rep *report, source string, arch target.Arch, rounds int) error {
	var offline, load, jit, lazy, hit []time.Duration
	warm := splitvm.New(splitvm.WithTarget(arch))
	for r := 0; r < rounds; r++ {
		eng := splitvm.New(splitvm.WithTarget(arch))
		t0 := time.Now()
		m, err := eng.Compile(source)
		if err != nil {
			return err
		}
		offline = append(offline, time.Since(t0))
		enc := m.Encoded()
		t0 = time.Now()
		if m, err = eng.Load(enc); err != nil {
			return err
		}
		load = append(load, time.Since(t0))
		t0 = time.Now()
		if _, err := eng.Deploy(m); err != nil {
			return err
		}
		jit = append(jit, time.Since(t0))
		lz, err := splitvm.New(splitvm.WithTarget(arch)).Deploy(m, splitvm.WithLazyCompile(true))
		if err != nil {
			return err
		}
		t0 = time.Now()
		if err := lz.EnsureCompiled(context.Background()); err != nil {
			return err
		}
		lazy = append(lazy, time.Since(t0))
		if _, err := warm.Deploy(m); err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := warm.Deploy(m); err != nil {
			return err
		}
		hit = append(hit, time.Since(t0))
	}
	rep.layer("offline.compile_ms", ms(median(offline)))
	rep.layer("cil.load_us", us(median(load)))
	rep.layer("jit.compile_us", us(median(jit)))
	rep.layer("jit.lazy_resolve_us", us(median(lazy)))
	rep.layer("engine.deploy_hit_us", us(median(hit)))
	return nil
}
