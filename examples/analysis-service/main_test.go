package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzUpload throws arbitrary bodies at POST /modules: whatever the bytes,
// the service answers with a 2xx or a 4xx and never panics. Each input
// gets a fresh service, so accepted uploads do not pile up across inputs.
func FuzzUpload(f *testing.F) {
	valid := workModule()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(make([]byte, maxUploadBytes+1))
	f.Fuzz(func(t *testing.T, body []byte) {
		mux, err := newService(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/modules", bytes.NewReader(body)))
		if code := rec.Code; code < 200 || code >= 300 && code < 400 || code >= 500 {
			t.Fatalf("upload of %d bytes: HTTP %d (%s), want 2xx or 4xx", len(body), code, rec.Body)
		}
		if len(body) > maxUploadBytes && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("upload of %d bytes over the %d-byte cap: HTTP %d, want 413", len(body), maxUploadBytes, rec.Code)
		}
	})
}

// TestAnalyzeRejectsBadArg: an arg that is not an int32 is answered 400
// naming it, instead of running the entry with 0; a good one still runs.
func TestAnalyzeRejectsBadArg(t *testing.T) {
	mux, err := newService(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	up := httptest.NewRecorder()
	mux.ServeHTTP(up, httptest.NewRequest(http.MethodPost, "/modules", bytes.NewReader(workModule())))
	var mod uploadReply
	if err := json.NewDecoder(up.Body).Decode(&mod); err != nil || up.Code != http.StatusOK {
		t.Fatalf("upload: HTTP %d, %v", up.Code, err)
	}
	for _, c := range []struct {
		arg  string
		code int
	}{{"abc", http.StatusBadRequest}, {"99999999999", http.StatusBadRequest}, {"10", http.StatusOK}} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/modules/"+mod.ID+"/analyze?entry=main&arg="+c.arg, nil))
		if rec.Code != c.code {
			t.Errorf("arg=%s: HTTP %d (%s), want %d", c.arg, rec.Code, rec.Body, c.code)
		}
		if c.code == http.StatusBadRequest && !strings.Contains(rec.Body.String(), c.arg) {
			t.Errorf("arg=%s: reply %q does not name the argument", c.arg, rec.Body)
		}
		var reply analyzeReply
		if c.code == http.StatusOK && (json.NewDecoder(rec.Body).Decode(&reply) != nil || reply.Return != 285) {
			t.Errorf("arg=%s: main returned %d, want the sum of the first 10 squares, 285", c.arg, reply.Return)
		}
	}
}
