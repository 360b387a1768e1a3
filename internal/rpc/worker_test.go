package rpc

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"objmig/internal/transport"
	"objmig/internal/wire"
)

// The worker tests count goroutines process-wide, so they do not run in
// parallel; every other test in the package does, and parallel tests
// start only after the sequential ones have finished.

// gate blocks "block" requests in the handler until it is opened; any
// other payload is echoed at once.
type gate struct {
	entered chan struct{}
	open    chan struct{}
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}, 64), open: make(chan struct{})}
}

func (g *gate) handler(ctx context.Context, kind wire.Kind, body, dst []byte) ([]byte, error) {
	var req wire.PingReq
	if err := wire.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	if req.Payload == "block" {
		g.entered <- struct{}{}
		select {
		case <-g.open:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return wire.MarshalAppend(dst, wire.PingResp{Payload: req.Payload})
}

// peerPair connects a client-only peer to a peer served by h over an
// in-memory pipe.
func peerPair(t testing.TB, h Handler) (client, server *Peer) {
	t.Helper()
	tr := transport.NewNetwork().Transport()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conns := make(chan transport.Conn, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			conns <- c
		}
	}()
	dialed, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return NewPeer(dialed, nil), NewPeer(<-conns, h)
}

// burst starts k blocking calls and returns once all k handlers are
// inside the gate; the returned channel yields each call's error.
func burst(t *testing.T, p *Peer, g *gate, k int) <-chan error {
	t.Helper()
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		go func() {
			var resp wire.PingResp
			errs <- p.Call(context.Background(), wire.KPing, &wire.PingReq{Payload: "block"}, &resp)
		}()
	}
	for i := 0; i < k; i++ {
		select {
		case <-g.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d blocking requests reached the handler", i, k)
		}
	}
	return errs
}

// settle polls until the process's goroutine count is at most want.
func settle(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, want at most %d\n%s", what, n, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkersNoHeadOfLineBlocking: requests blocked in the handler
// hold up neither the read loop nor a later request on the same
// connection.
func TestWorkersNoHeadOfLineBlocking(t *testing.T) {
	g := newGate()
	client, server := peerPair(t, g.handler)
	defer server.Close()
	defer client.Close()

	const k = 16
	errs := burst(t, client, g, k)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var resp wire.PingResp
	if err := client.Call(ctx, wire.KPing, &wire.PingReq{Payload: "fast"}, &resp); err != nil || resp.Payload != "fast" {
		t.Fatalf("call behind %d blocked requests: %q, %v", k, resp.Payload, err)
	}
	close(g.open)
	for i := 0; i < k; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("blocked call %d: %v", i, err)
		}
	}
}

// TestWorkersIdleCap: once a burst of blocked requests drains, the
// served peer keeps at most maxIdleWorkers workers.
func TestWorkersIdleCap(t *testing.T) {
	base := runtime.NumGoroutine()
	g := newGate()
	client, server := peerPair(t, g.handler)
	defer server.Close()
	defer client.Close()

	const k = 32
	errs := burst(t, client, g, k)
	close(g.open)
	for i := 0; i < k; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("blocked call %d: %v", i, err)
		}
	}
	// Two read loops plus the idle workers of the served peer.
	settle(t, base+2+maxIdleWorkers, "after the burst drained")
}

// TestWorkersNoLeakAfterClose: closing both ends stops every read loop
// and worker, idle or blocked in a handler.
func TestWorkersNoLeakAfterClose(t *testing.T) {
	base := runtime.NumGoroutine()
	g := newGate()
	client, server := peerPair(t, g.handler)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp wire.PingResp
			_ = client.Call(context.Background(), wire.KPing, &wire.PingReq{Payload: "x"}, &resp)
		}()
	}
	wg.Wait()
	// Leave some handlers blocked: Close must cancel them and wait.
	errs := burst(t, client, g, 4)
	_ = server.Close()
	_ = client.Close()
	for i := 0; i < 4; i++ {
		if err := <-errs; err == nil {
			t.Fatal("a call blocked across Close succeeded")
		}
	}
	settle(t, base, "after Close")
}

// TestServerDropsDeadPeers: a server forgets each inbound peer once its
// connection dies, so redials after link faults do not accumulate.
func TestServerDropsDeadPeers(t *testing.T) {
	t.Parallel()
	tr := transport.NewNetwork().Transport()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, echoHandler)
	defer srv.Close()

	dialCall := func() *Peer {
		conn, err := tr.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		p := NewPeer(conn, nil)
		var resp wire.PingResp
		if err := p.Call(context.Background(), wire.KPing, &wire.PingReq{Payload: "x"}, &resp); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for i := 0; i < 20; i++ {
		_ = dialCall().Close()
	}
	live := dialCall()
	defer live.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		n := len(srv.peers)
		srv.mu.Unlock()
		if n == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server holds %d peers, want the 1 live one", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// BenchmarkPeerCall: one serial ping round trip between two peers over
// the in-memory transport: encode, send, hand-off to a serve worker,
// handler, response and decode.
func BenchmarkPeerCall(b *testing.B) {
	client, server := peerPair(b, echoHandler)
	defer server.Close()
	defer client.Close()
	ctx := context.Background()
	req := &wire.PingReq{Payload: "ping"}
	var resp wire.PingResp
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Call(ctx, wire.KPing, req, &resp); err != nil {
			b.Fatal(err)
		}
	}
}
