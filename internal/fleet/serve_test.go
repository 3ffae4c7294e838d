package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestObservabilityExportsDeterministicAcrossWorkerCounts pins the new
// observability surfaces to the fleet's concurrency contract: the Chrome
// trace (spans + events) and the folded-stack deep profile must be
// byte-identical between a serial and an 8-worker run of the same seeded
// chaos fleet, exactly like the Prometheus and JSONL exports.
func TestObservabilityExportsDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) (string, string) {
		f, err := New(chaosConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Run(); err != nil {
			t.Fatal(err)
		}
		var prof strings.Builder
		if err := f.WriteProfile(&prof); err != nil {
			t.Fatal(err)
		}
		return render(f.Telemetry().WriteChromeTrace), prof.String()
	}
	trace1, prof1 := run(1)
	trace8, prof8 := run(8)
	if trace1 != trace8 {
		t.Error("Chrome traces diverge across worker counts")
	}
	if prof1 != prof8 {
		t.Errorf("folded profiles diverge across worker counts:\n-- workers=1 --\n%s\n-- workers=8 --\n%s", prof1, prof8)
	}
	if !strings.Contains(trace1, `"ph":"X"`) {
		t.Error("chaos PC3D run recorded no spans")
	}
	if !strings.Contains(prof1, ";") {
		t.Errorf("profile carries no stacks:\n%s", prof1)
	}
	// The trace must parse as trace-event JSON (the Perfetto contract).
	var env struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace1), &env); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if len(env.TraceEvents) == 0 {
		t.Error("Chrome trace has no events")
	}
}

// TestLiveServeEndpoints drives the scrape surface against a running
// fleet: all four endpoints must answer mid-run, and the post-run scrape
// must carry the completed servers.
func TestLiveServeEndpoints(t *testing.T) {
	f, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		_, err := f.Run()
		done <- err
	}()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Wait until at least one server has published a snapshot, then hit
	// every endpoint while the run is still live (the run takes seconds;
	// publishing starts within the first few quanta).
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code, body := get("/healthz"); code == 200 && !strings.Contains(body, `"published":0`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no server published a live snapshot in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, path := range []string{"/metrics", "/trace", "/profile", "/healthz"} {
		code, body := get(path)
		if code != 200 {
			t.Errorf("GET %s = %d, want 200", path, code)
		}
		if body == "" {
			t.Errorf("GET %s returned an empty body", path)
		}
	}
	if code, body := get("/trace"); code == 200 {
		var env struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			t.Errorf("live /trace is not valid JSON: %v", err)
		}
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Post-run: every server has deposited its final snapshot.
	if _, body := get("/healthz"); !strings.Contains(body, `"published":5`) {
		t.Errorf("healthz after run = %s, want all 5 servers published", body)
	}
	if _, body := get("/metrics"); !strings.Contains(body, "protean_") {
		t.Error("post-run /metrics carries no metrics")
	}
	if _, body := get("/profile"); !strings.Contains(body, ";") {
		t.Errorf("post-run /profile carries no stacks:\n%.300s", body)
	}
}

// TestCoordinatorExportsServedLive scrapes the coordinator's five exports
// from another goroutine for the whole length of a crash-heavy migration +
// SLO run — under -race this is the check that the published snapshot needs
// no lock — then holds each endpoint to WriteExport's bytes, and a fleet
// that never ran to the placeholder bodies.
func TestCoordinatorExportsServedLive(t *testing.T) {
	names := []string{"contend", "audit", "slo", "alerts", "postmortem"}
	export := func(f *Fleet, name string) string {
		t.Helper()
		var b strings.Builder
		if err := f.WriteExport(name, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	idle, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"{\"epoch\": 0}\n", "{\"epochs_checked\": 0}\n", "{\"epoch\": 0}\n", "{\"fired\": 0}\n", "[]\n"} {
		if got := export(idle, names[i]); got != want {
			t.Errorf("%s before any barrier = %q, want %q", names[i], got, want)
		}
	}
	if err := idle.WriteExport("no-such-export", io.Discard); err == nil {
		t.Error("unknown export name accepted")
	}

	f, err := New(sloChaosConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	get := func(name string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/" + name)
		if err != nil {
			t.Fatalf("GET /%s: %v", name, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	done := make(chan error, 1)
	go func() {
		_, err := f.Run()
		done <- err
	}()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		for _, name := range names {
			var doc any
			if body := get(name); json.Unmarshal([]byte(body), &doc) != nil {
				t.Fatalf("live /%s is not valid JSON:\n%.300s", name, body)
			}
		}
	}
	for _, name := range names {
		if got, want := get(name), export(f, name); got != want {
			t.Errorf("/%s differs from WriteExport(%q)", name, name)
		}
	}
	if st := f.ContendStatus(); st == nil || st.Epoch == 0 || !strings.Contains(get("contend"), `"moves": [`) {
		t.Errorf("contend export carries no decision epochs: %+v", st)
	}
	if len(f.Postmortems()) == 0 || !strings.HasPrefix(get("postmortem"), "[\n{") {
		t.Errorf("postmortem export carries no bundles:\n%.200s", get("postmortem"))
	}
}
