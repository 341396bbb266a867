package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one timed operation: its latency, when it ended (since its
// phase started), the request class it belonged to (workload-defined; -1
// for none) and whether it succeeded.
type sample struct {
	lat, end time.Duration
	class    int
	ok       bool
}

// phase is the outcome of one closed-loop measurement.
type phase struct {
	samples []sample
	elapsed time.Duration
	clock   clock
}

// clock is what operation latencies are read from.
type clock int

const (
	// wallClock is wall time, as a caller waiting on the operation sees it.
	wallClock clock = iota
	// threadClock is the CPU time of the client's OS thread, its goroutine
	// locked to it (see threadCPU). On a shared VM it leaves out the time
	// other guests held the vCPU, which otherwise sets the tail of a
	// millisecond-long operation. It fits a lone client that computes and
	// never blocks, where it equals wall time on an idle host.
	threadClock
)

// opFunc performs one operation for client c and reports its class and
// success. It must check the operation's outcome against the oracle.
type opFunc func(c int, rng *rand.Rand) (class int, ok bool)

// closedLoop runs clients goroutines, each issuing its next operation only
// after the previous one answered, until d has elapsed; latencies are read
// from clk. Each client draws from its own generator seeded from seed, so a
// seed fixes the request sequence of every client.
func closedLoop(d time.Duration, clients int, seed int64, clk clock, op opFunc) phase {
	per := make([][]sample, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if clk == threadClock {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
			buf := make([]sample, 0, 1<<14)
			for time.Now().Before(deadline) {
				t0 := time.Now()
				var cpu0 time.Duration
				if clk == threadClock {
					cpu0 = threadCPU()
				}
				class, ok := op(c, rng)
				t1 := time.Now()
				lat := t1.Sub(t0)
				if clk == threadClock {
					lat = threadCPU() - cpu0
				}
				buf = append(buf, sample{lat: lat, end: t1.Sub(start), class: class, ok: ok})
			}
			per[c] = buf
		}(c)
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start), clock: clk}
	for _, b := range per {
		p.samples = append(p.samples, b...)
	}
	return p
}

// merge appends another phase's operations and time, as if q had run
// right after p.
func (p *phase) merge(q phase) {
	for _, s := range q.samples {
		s.end += p.elapsed
		p.samples = append(p.samples, s)
	}
	p.elapsed += q.elapsed
	p.clock = q.clock
}

// traceSlices is how many untraced/traced slice pairs a traced run
// alternates between.
const traceSlices = 8

// measure runs the timed closed loop. Untraced, it is one phase of the whole
// --seconds. Traced, the time is cut into slices alternating between op and
// tracedOp (op with spans recorded), so drift over the run — heap growth,
// cache churn, host noise — falls on both alike; the tracing overhead is the
// difference between the two phases. When between is not nil it is called
// after each pair of slices (with the pair's index), so a ladder can sample
// the same stretches of the run.
func measure(cfg *config, clients int, clk clock, op, tracedOp opFunc, between func(slice int)) (plain, traced phase) {
	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		return closedLoop(d, clients, cfg.seed, clk, op), phase{}
	}
	slice := d / (2 * traceSlices)
	for i := int64(0); i < traceSlices; i++ {
		plain.merge(closedLoop(slice, clients, cfg.seed+2*i, clk, op))
		traced.merge(closedLoop(slice, clients, cfg.seed+2*i+1, clk, tracedOp))
		if between != nil {
			between(int(i))
		}
	}
	return plain, traced
}

// withSpan wraps op so that each operation is recorded as one span.
func withSpan(tr *tracer, name string, op opFunc) opFunc {
	return func(c int, rng *rand.Rand) (int, bool) {
		t0 := time.Now()
		class, ok := op(c, rng)
		tr.record(name, 0, 0, t0, time.Now())
		return class, ok
	}
}

func (p phase) count() (attempted, failed int64) {
	for _, s := range p.samples {
		attempted++
		if !s.ok {
			failed++
		}
	}
	return attempted, failed
}

func (p phase) opsPerSec() float64 { return rate(p.latencies(), p.elapsed, p.clock) }

// rate is the throughput of operations with latencies lats that ran in wall
// time wall: over wall itself, or on the thread clock over the summed
// latencies, the lone client's busy time.
func rate(lats []time.Duration, wall time.Duration, clk clock) float64 {
	busy := wall
	if clk == threadClock {
		busy = 0
		for _, d := range lats {
			busy += d
		}
	}
	if busy <= 0 {
		return 0
	}
	return float64(len(lats)) / busy.Seconds()
}

func (p phase) latencies() []time.Duration {
	out := make([]time.Duration, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.lat
	}
	return out
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of ds; ds is
// sorted in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	r := int(q*float64(len(ds))+0.999999) - 1
	if r < 0 {
		r = 0
	}
	if r >= len(ds) {
		r = len(ds) - 1
	}
	return ds[r]
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// classMedianNear picks the request class whose median latency lies closest
// to target: the ladder replays that class as the "typical" request.
// Class -1 is skipped, and so are classes with fewer than minSamples
// samples, unless no class has that many (a very short or slow run).
func classMedianNear(p phase, target time.Duration, minSamples int) int {
	by := map[int][]time.Duration{}
	most := 0
	for _, s := range p.samples {
		if s.class >= 0 && s.ok {
			by[s.class] = append(by[s.class], s.lat)
			most = max(most, len(by[s.class]))
		}
	}
	minSamples = min(minSamples, most)
	class := -1
	best := time.Duration(1 << 62)
	keys := make([]int, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		if len(by[k]) < minSamples {
			continue
		}
		m := median(by[k])
		diff := m - target
		if diff < 0 {
			diff = -diff
		}
		if diff < best {
			best, class = diff, k
		}
	}
	return class
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// e2eWindows is how many equal stretches of time a phase is cut into by
// its operations' end times. The latency and throughput figures are the
// medians of the stretches' own figures, so a host stall that fills a few
// stretches does not move them; a p99 over the whole phase would be set by
// its worst one percent of time.
const e2eWindows = 10

// e2eFromPhase fills the latency and throughput end-to-end metrics.
func e2eFromPhase(rep *report, p phase) {
	width := p.elapsed / e2eWindows
	lats := make([][]time.Duration, e2eWindows)
	for _, s := range p.samples {
		w := min(int(s.end/width), e2eWindows-1)
		lats[w] = append(lats[w], s.lat)
	}
	var p50, p99 []time.Duration
	var rates []float64
	for _, ds := range lats {
		p50 = append(p50, quantile(ds, 0.50))
		p99 = append(p99, quantile(ds, 0.99))
		rates = append(rates, rate(ds, width, p.clock))
	}
	sort.Float64s(rates)
	rep.metric("op_p50_ms", ms(median(p50)))
	rep.metric("op_p99_ms", ms(median(p99)))
	rep.metric("ops_per_s", rates[(len(rates)-1)/2])
	rep.layer("op_samples", float64(len(p.samples)))
}

// bgLoad is a closed-loop client running in the background.
type bgLoad struct {
	stopped atomic.Bool
	done    chan phase
}

func background(seed int64, op opFunc) *bgLoad {
	b := &bgLoad{done: make(chan phase, 1)}
	go func() {
		rng := rand.New(rand.NewSource(seed))
		var p phase
		start := time.Now()
		for !b.stopped.Load() {
			t0 := time.Now()
			class, ok := op(0, rng)
			p.samples = append(p.samples, sample{lat: time.Since(t0), class: class, ok: ok})
		}
		p.elapsed = time.Since(start)
		b.done <- p
	}()
	return b
}

// stop ends the background client and returns its operations once it has
// finished its last one.
func (b *bgLoad) stop() phase {
	b.stopped.Store(true)
	return <-b.done
}

// repeatSetup builds the workload's set-up n times, tearing down all but the
// last, and returns the median set-up time in seconds and the verification
// cycles, which must repeat exactly across set-ups.
func repeatSetup(n int, setup func() (int64, error), teardown func()) (float64, int64, error) {
	var times []time.Duration
	var cycles int64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown()
		}
		t0 := time.Now()
		c, err := setup()
		if err != nil {
			return 0, 0, err
		}
		times = append(times, time.Since(t0))
		if i > 0 && c != cycles {
			return 0, 0, fmt.Errorf("verification cycles differ between set-ups: %d then %d", cycles, c)
		}
		cycles = c
	}
	return median(times).Seconds(), cycles, nil
}
