package main

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerTimeouts pins the connection timeouts: a server built
// without them lets a client that never finishes its headers, or an idle
// keep-alive connection, hold a socket forever.
func TestHTTPServerTimeouts(t *testing.T) {
	type ctxKey struct{}
	ctx := context.WithValue(context.Background(), ctxKey{}, "base")
	h := http.NotFoundHandler()
	s := newHTTPServer(ctx, ":9999", h)
	if s.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %s, want 10s", s.ReadHeaderTimeout)
	}
	if s.IdleTimeout != 120*time.Second {
		t.Errorf("IdleTimeout = %s, want 120s", s.IdleTimeout)
	}
	if s.Addr != ":9999" || s.Handler == nil {
		t.Errorf("Addr = %q, Handler = %v; want the given address and handler", s.Addr, s.Handler)
	}
	if s.BaseContext == nil || s.BaseContext(nil).Value(ctxKey{}) != "base" {
		t.Error("request contexts do not derive from the service context")
	}
}
