package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// runOnce invokes sumsq(64) on one deployment and checks the result.
func runOnce(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/deployments/"+id+"/run", RunRequest{Entry: "sumsq", Args: []string{"64"}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	rr := decodeJSON[RunResponse](t, resp.Body)
	if want := int64(64 * 65 * 129 / 6); rr.Value != want {
		t.Fatalf("sumsq(64) = %d, want %d", rr.Value, want)
	}
}

// TestTieredDeployEndToEnd drives the whole profile loop over HTTP: deploy
// tiered, run to promotion, export the profile, warm a second deployment
// with it, and watch the tier counters in /v1/stats.
func TestTieredDeployEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := upload(t, ts, encodeModule(t, sumsqSource))

	// Plain deployment: no tiering, and asking for its profile is a 409.
	resp := postJSON(t, ts.URL+"/v1/deploy", DeployRequest{Module: id, Targets: []string{"mcu"}})
	plain := decodeJSON[DeployResponse](t, resp.Body)
	resp.Body.Close()
	if len(plain.Deployments) != 1 || plain.Deployments[0].Tiering {
		t.Fatalf("plain deployment unexpectedly tiered: %+v", plain.Deployments)
	}
	if r, err := http.Get(ts.URL + "/v1/deployments/" + plain.Deployments[0].ID + "/profile"); err != nil || r.StatusCode != http.StatusConflict {
		t.Fatalf("profile of untiered deployment: %v %v", r.StatusCode, err)
	} else {
		r.Body.Close()
	}

	// Tiered deployment, promoted after two calls.
	resp = postJSON(t, ts.URL+"/v1/deploy", DeployRequest{
		Module: id, Targets: []string{"x86-sse"}, Tiering: true, PromoteCalls: 2,
	})
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("tiered deploy: status %d: %s", resp.StatusCode, body)
	}
	tiered := decodeJSON[DeployResponse](t, resp.Body)
	resp.Body.Close()
	tid := tiered.Deployments[0].ID
	if !tiered.Deployments[0].Tiering {
		t.Fatalf("deployment did not report tiering: %+v", tiered.Deployments[0])
	}
	for i := 0; i < 6; i++ {
		runOnce(t, ts, tid)
	}
	st := getStats(t, ts)
	if st.TieredDeployments != 1 || st.Tier.Promotions != 1 || st.Tier.PromoteCallsSum != 2 {
		t.Fatalf("tier stats after promotion = %+v", st.Tier)
	}

	// Export the profile and warm a fresh deployment with it: promotion on
	// the first call instead of the threshold.
	r, err := http.Get(ts.URL + "/v1/deployments/" + tid + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	pr := decodeJSON[ProfileResponse](t, r.Body)
	r.Body.Close()
	if len(pr.Profile) == 0 || pr.Bytes != len(pr.Profile) {
		t.Fatalf("profile export = %+v", pr)
	}

	resp = postJSON(t, ts.URL+"/v1/deploy", DeployRequest{
		Module: id, Targets: []string{"x86-sse"}, PromoteCalls: 5, Profile: pr.Profile,
	})
	warm := decodeJSON[DeployResponse](t, resp.Body)
	resp.Body.Close()
	wid := warm.Deployments[0].ID
	if warm.Deployments[0].ProfileFallback != "" {
		t.Fatalf("warm deploy fell back: %+v", warm.Deployments[0])
	}
	runOnce(t, ts, wid)
	st = getStats(t, ts)
	if st.TieredDeployments != 2 || st.Tier.WarmSeeded < 1 {
		t.Fatalf("warm import not visible in stats: %+v", st.Tier)
	}
	// Warm deployment promoted on call 1: the sum grows by exactly 1.
	if st.Tier.Promotions != 2 || st.Tier.PromoteCallsSum != 3 {
		t.Fatalf("warm promotion latency wrong: %+v", st.Tier)
	}
}

// TestTieredDeployProfileFallback: a corrupt (or future-schema) profile
// blob degrades to deploying without warm counters — surfaced per
// deployment, never a failed batch.
func TestTieredDeployProfileFallback(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := upload(t, ts, encodeModule(t, sumsqSource))
	resp := postJSON(t, ts.URL+"/v1/deploy", DeployRequest{
		Module: id, Targets: []string{"mcu"}, Profile: []byte{0xde, 0xad, 0xbe, 0xef},
	})
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("deploy with bad profile: status %d: %s", resp.StatusCode, body)
	}
	dr := decodeJSON[DeployResponse](t, resp.Body)
	resp.Body.Close()
	d := dr.Deployments[0]
	if d.ProfileFallback == "" {
		t.Fatalf("bad profile did not surface a fallback: %+v", d)
	}
	if !d.Tiering {
		t.Fatalf("profile request should still imply tiering: %+v", d)
	}
	runOnce(t, ts, d.ID) // and the machine runs fine without it
}
