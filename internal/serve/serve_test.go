package serve

// Shared test harness: an httptest server over a fresh manager, plus JSON
// request helpers. Tests live in package serve so they can reach the
// manager's internals (progress edges, refcounts) where the assertions need
// them; everything exercised over HTTP goes through the real handler stack.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/workload"
)

// startServer boots a Server over httptest and tears both down with the
// test.
func startServer(t *testing.T, cfg ManagerConfig) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// validateExplore resolves a wire request the way SubmitExplore does and
// returns what the direct library calls in identity_test.go need.
func validateExplore(req *ExploreRequest, cat *hw.Catalogue) ([]*workload.Model, hw.DesignSpace, dse.Constraints, error) {
	models, o, err := req.query().Resolve(cat)
	return models, o.Space, o.Constraints, err
}

// postJSON posts a body and returns the status code and response bytes.
func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// getJSON fetches a URL and decodes the body into v.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// syncResult posts a sync request and returns the raw result JSON from the
// job status envelope, failing the test on any non-done outcome.
func syncResult(t *testing.T, url string, body any) json.RawMessage {
	t.Helper()
	code, out := postJSON(t, url, body)
	if code != http.StatusOK {
		t.Fatalf("sync request returned %d: %s", code, out)
	}
	var env struct {
		State  string          `json:"state"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(out, &env); err != nil {
		t.Fatal(err)
	}
	if env.State != "done" {
		t.Fatalf("sync job state %q (error %q)", env.State, env.Error)
	}
	return env.Result
}

// waitState polls a job until it reaches a terminal state, with timeout.
func waitState(t *testing.T, base, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st Status
		if code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%s", base, id), &st); code != http.StatusOK {
			t.Fatalf("job %s lookup returned %d", id, code)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle", id)
	return Status{}
}
