package cluster

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/si"
)

// errorReply issues one request and returns its status and the error
// message of its JSON body ("" when the body carries none).
func errorReply(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply struct {
		Error string `json:"error"`
	}
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatalf("%s %s: status %d with an undecodable body: %v", method, url, resp.StatusCode, err)
		}
	}
	return resp.StatusCode, reply.Error
}

// TestBadParamsParity sends the same malformed parameters to a node
// and to the router: both parse through server.ParseParams and
// server.BoundParams, so each must answer the same 400 with the same
// message, on every GET query endpoint and in /batch bodies.
func TestBadParamsParity(t *testing.T) {
	ref, _, rts := newParityPair(t, si.GenerateCorpus(2012, 60), 2, 1)
	gets := []struct{ name, query string }{
		{"missing q", "limit=5"},
		{"non-numeric limit", "q=NP&limit=ten"},
		{"non-numeric offset", "q=NP&offset=x"},
		{"negative offset", "q=NP&offset=-1"},
		{"zero timeout", "q=NP&timeout=0s"},
		{"negative timeout", "q=NP&timeout=-5ms"},
		{"unparsable timeout", "q=NP&timeout=soon"},
		{"bad explain", "q=NP&explain=maybe"},
	}
	for _, endpoint := range []string{"/search", "/count", "/stream"} {
		for _, tc := range gets {
			path := endpoint + "?" + tc.query
			wantStatus, wantMsg := errorReply(t, http.MethodGet, ref.URL+path, "")
			gotStatus, gotMsg := errorReply(t, http.MethodGet, rts.URL+path, "")
			if wantStatus != http.StatusBadRequest || wantMsg == "" {
				t.Fatalf("%s (%s): node answered %d %q, want a 400 with a message", path, tc.name, wantStatus, wantMsg)
			}
			if gotStatus != wantStatus || gotMsg != wantMsg {
				t.Errorf("%s (%s): router answered %d %q, node %d %q", path, tc.name, gotStatus, gotMsg, wantStatus, wantMsg)
			}
		}
	}
	bodies := []struct{ name, body string }{
		{"negative offset", `{"queries":["NP"],"offset":-1}`},
		{"zero timeout", `{"queries":["NP"],"timeout":"0s"}`},
		{"unparsable timeout", `{"queries":["NP"],"timeout":"soon"}`},
	}
	for _, tc := range bodies {
		wantStatus, wantMsg := errorReply(t, http.MethodPost, ref.URL+"/batch", tc.body)
		gotStatus, gotMsg := errorReply(t, http.MethodPost, rts.URL+"/batch", tc.body)
		if wantStatus != http.StatusBadRequest || wantMsg == "" {
			t.Fatalf("/batch (%s): node answered %d %q, want a 400 with a message", tc.name, wantStatus, wantMsg)
		}
		if gotStatus != wantStatus || gotMsg != wantMsg {
			t.Errorf("/batch (%s): router answered %d %q, node %d %q", tc.name, gotStatus, gotMsg, wantStatus, wantMsg)
		}
	}
}

// TestRouterRefusesExplain: a node answers explain=1 with per-piece
// diagnostics, which the router cannot merge yet — it must refuse the
// request with a 400 saying so rather than answer without them, while
// explain=0 stays an ordinary routed query.
func TestRouterRefusesExplain(t *testing.T) {
	ref, _, rts := newParityPair(t, si.GenerateCorpus(2012, 60), 2, 1)
	if status, msg := errorReply(t, http.MethodGet, ref.URL+"/search?q=NP(DT)&explain=1", ""); status != http.StatusOK {
		t.Fatalf("node explain: %d %q, want 200", status, msg)
	}
	for _, endpoint := range []string{"/search", "/count", "/stream"} {
		status, msg := errorReply(t, http.MethodGet, rts.URL+endpoint+"?q=NP(DT)&explain=1", "")
		if status != http.StatusBadRequest || !strings.Contains(msg, "explain is not yet supported through sirouter") {
			t.Errorf("router %s explain=1: %d %q, want 400 naming the unsupported explain", endpoint, status, msg)
		}
		if status, msg := errorReply(t, http.MethodGet, rts.URL+endpoint+"?q=NP(DT)&explain=0", ""); status != http.StatusOK {
			t.Errorf("router %s explain=0: %d %q, want 200", endpoint, status, msg)
		}
	}
}
