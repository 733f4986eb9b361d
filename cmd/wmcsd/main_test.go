package main

import (
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerTimeouts pins the connection timeouts: slow or idle
// clients are cut off, while request bodies and responses carry no
// deadline that could cut off a long evaluation.
func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Fatalf("address or handler not wired: %q %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != 120*time.Second {
		t.Errorf("IdleTimeout = %v, want 120s", srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v, want both unset", srv.ReadTimeout, srv.WriteTimeout)
	}
}
