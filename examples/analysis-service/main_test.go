package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
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
