package service

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
)

// TestLoopbackReusesConnection pins that answer callbacks share one
// keep-alive connection: deliver must read each receipt to the end
// before closing it, or the client opens a new TCP connection for every
// answer.
func TestLoopbackReusesConnection(t *testing.T) {
	var conns atomic.Int32
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(AnswerReceipt{TaskID: "t1", Queries: []string{"q1"}}); err != nil {
			t.Error(err)
		}
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	l := NewLoopback(nil, ts.URL)
	const n = 20
	for i := 0; i < n; i++ {
		if err := l.deliver("t1", crowd.Answer{Rel: ctable.LT}); err != nil {
			t.Fatal(err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("%d answer callbacks opened %d connections, want 1", n, got)
	}
}
