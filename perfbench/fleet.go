package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/pkg/splitvm"
	"repro/pkg/splitvm/server"
)

// fleet is a router in front of svd backends, all in this process on
// loopback listeners — the same wiring cmd/dacbench's serve harness uses,
// without separate processes whose scheduling would swamp the figures.
type fleet struct {
	backends []*server.Server
	urls     []string
	router   *server.Router
	url      string // router base URL
	client   *http.Client
	http     []*http.Server
	wg       sync.WaitGroup
}

// fleetBackends is how many svd backends a fleet's router spreads over.
const fleetBackends = 2

// fleetOptions configures the backends of a fleet.
type fleetOptions struct {
	cacheSize int           // engine code-cache bound per backend (0 = unbounded)
	deployTTL time.Duration // idle deployment sweeper (0 = off)
	journal   string        // directory for per-backend journals ("" = none)
}

func startFleet(o fleetOptions) (*fleet, error) {
	f := &fleet{client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
	}}}
	for i := 0; i < fleetBackends; i++ {
		var engOpts []splitvm.Option
		if o.cacheSize > 0 {
			engOpts = append(engOpts, splitvm.WithCacheSize(o.cacheSize))
		}
		scfg := server.Config{DeployTTL: o.deployTTL}
		if o.journal != "" {
			scfg.JournalPath = filepath.Join(o.journal, fmt.Sprintf("b%d.journal", i))
		}
		srv := server.New(splitvm.New(engOpts...), scfg)
		if err := srv.JournalErr(); err != nil {
			srv.Close()
			f.stop()
			return nil, fmt.Errorf("journal: %w", err)
		}
		url, err := f.serve(srv)
		if err != nil {
			srv.Close()
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, srv)
		f.urls = append(f.urls, url)
	}
	rt, err := server.NewRouter(server.RouterConfig{Backends: f.urls})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = rt
	if f.url, err = f.serve(rt); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// serve starts an HTTP server for h on a fresh loopback port.
func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.http = append(f.http, hs)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return "http://" + ln.Addr().String(), nil
}

// stop closes the listeners first (router last to be reached, first to go),
// then the router's prober and the backends' pools, and waits for every
// serving goroutine to end.
func (f *fleet) stop() {
	for i := len(f.http) - 1; i >= 0; i-- {
		f.http[i].Close()
	}
	f.wg.Wait()
	if f.router != nil {
		f.router.Close()
	}
	for _, b := range f.backends {
		b.Close()
	}
	f.client.CloseIdleConnections()
}

// backendOf returns the index of the backend a router-namespaced
// deployment id ("b1.d-000003") lives on, and the backend-local id.
func backendOf(nsID string) (int, string, error) {
	prefix, local, ok := strings.Cut(nsID, ".")
	var b int
	if !ok || len(prefix) < 2 || prefix[0] != 'b' {
		return 0, "", fmt.Errorf("deployment id %q is not router-namespaced", nsID)
	}
	if _, err := fmt.Sscanf(prefix[1:], "%d", &b); err != nil {
		return 0, "", fmt.Errorf("deployment id %q: %v", nsID, err)
	}
	return b, local, nil
}

// errStatus reports a non-2xx reply.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// doJSON posts v as JSON to url (no body when v is nil) and decodes a 2xx
// JSON reply into out.
func (f *fleet) doJSON(method, url string, v, out any) error {
	var data []byte
	if v != nil {
		var err error
		if data, err = json.Marshal(v); err != nil {
			return err
		}
	}
	return f.do(method, url, "application/json", data, out)
}

// do sends body to url and decodes a 2xx JSON reply into out (when out is
// not nil). The response body is always drained so the keep-alive
// connection is reused.
func (f *fleet) do(method, url, ctype string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &errStatus{resp.StatusCode, strings.TrimSpace(string(data))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// poster posts a JSON body to a path at one layer of the fleet and decodes
// the 2xx JSON reply into out (when not nil).
type poster func(path string, body []byte, out any) error

// via posts over loopback HTTP to base (a backend or the router).
func (f *fleet) via(base string) poster {
	return func(path string, body []byte, out any) error {
		return f.do(http.MethodPost, base+path, "application/json", body, out)
	}
}

// direct posts to a handler in process — no socket, no client.
func direct(h http.Handler) poster {
	return func(path string, body []byte, out any) error {
		return serveDirect(h, http.MethodPost, path, body, out)
	}
}

// serveDirect invokes a handler in process and decodes its JSON reply like
// do.
func serveDirect(h http.Handler, method, path string, body []byte, out any) error {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code/100 != 2 {
		return &errStatus{rec.Code, strings.TrimSpace(rec.Body.String())}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

// upload sends an encoded module through the router (which replicates it
// to every backend) and returns its id.
func (f *fleet) upload(encoded []byte) (string, error) {
	var info server.ModuleInfo
	if err := f.do(http.MethodPost, f.url+"/v1/modules", "application/octet-stream", encoded, &info); err != nil {
		return "", fmt.Errorf("upload: %w", err)
	}
	return info.ID, nil
}

// deploy creates deployments through the router.
func (f *fleet) deploy(req server.DeployRequest) ([]server.DeploymentInfo, error) {
	var resp server.DeployResponse
	if err := f.doJSON(http.MethodPost, f.url+"/v1/deploy", req, &resp); err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	if len(resp.Deployments) == 0 {
		return nil, errors.New("deploy: no deployments created")
	}
	return resp.Deployments, nil
}

// counters is a snapshot of the fleet's public statistics.
type counters struct {
	compiles, hits, misses, evictions int64
	rejected, evicted, journalRecords int64
	quarantines                       int64
	router                            server.RouterStats
}

func (f *fleet) counters() (counters, error) {
	var c counters
	for _, b := range f.backends {
		var st server.StatsResponse
		if err := serveDirect(b, http.MethodGet, "/v1/stats", nil, &st); err != nil {
			return c, err
		}
		c.compiles += st.Compile.Compilations + st.Compile.LazyCompiles
		c.hits += st.Cache.Hits
		c.misses += st.Cache.Misses
		c.evictions += st.Cache.Evictions
		c.rejected += st.Rejected + st.QuotaRejected + st.RunsShed
		c.evicted += st.DeploymentsEvicted
		c.quarantines += st.Guard.Quarantines
		if st.Journal != nil {
			c.journalRecords += st.Journal.Journal.Records
		}
	}
	c.router = f.router.Stats()
	return c, nil
}

// fleetLayers reports the counter-derived per-layer metrics over the timed
// operations (before → after).
func fleetLayers(rep *report, before, after counters, ops int64) {
	per := func(d int64) float64 { return float64(d) / float64(max(ops, 1)) }
	rep.layer("jit.compiles_per_op", per(after.compiles-before.compiles))
	hits, misses := after.hits-before.hits, after.misses-before.misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	rep.layer("engine.cache_hit_ratio", ratio)
	rep.layer("engine.cache_evictions_per_op", per(after.evictions-before.evictions))
	rep.layer("svd.rejected_per_op", per(after.rejected-before.rejected))
	rep.layer("svd.evicted_per_op", per(after.evicted-before.evicted))
	rep.layer("journal.records_per_op", per(after.journalRecords-before.journalRecords))
	rep.layer("core.quarantines", float64(after.quarantines))
	var opens int64
	for _, b := range after.router.Backends {
		opens += b.BreakerOpens
	}
	rep.layer("router.retries", float64(after.router.Retries))
	rep.layer("router.failovers", float64(after.router.Failovers))
	rep.layer("router.breaker_opens", float64(opens))
}
