package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// proxy is a byte-counting HTTP reverse proxy on loopback, placed in
// front of one fleet worker in traced runs. It counts every byte on its
// connections to the worker (request and response, headers included)
// and times each shard call from request to the last response byte.
type proxy struct {
	url       string
	srv       *http.Server
	transport *http.Transport
	served    chan struct{}
	out, in   atomic.Int64 // bytes written to / read from the worker

	mu     sync.Mutex
	shards []shardCall
}

// shardCall is one POST /v1/shard through the proxy.
type shardCall struct{ start, end time.Time }

// countingConn adds a connection's traffic to its proxy's counters.
type countingConn struct {
	net.Conn
	p *proxy
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.p.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.p.out.Add(int64(n))
	return n, err
}

// newProxy starts a proxy to target (a base URL). Shard calls are
// recorded as "dist.shard" spans on rec under the request id the
// coordinator forwards.
func newProxy(target string, rec *recorder) (*proxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	var dialer net.Dialer
	p.transport = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: c, p: p}, nil
		},
		DisableCompression:  true,
		MaxIdleConnsPerHost: 8,
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.Transport = p.transport
	p.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sp := rec.start("dist.shard", r.Header.Get("X-Deviant-Request-Id"), -1, 10)
		rp.ServeHTTP(w, r)
		rec.end(sp)
		if r.URL.Path == "/v1/shard" {
			p.mu.Lock()
			p.shards = append(p.shards, shardCall{start, time.Now()})
			p.mu.Unlock()
		}
	})}
	go func() {
		defer close(p.served)
		p.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return p, nil
}

// reset zeroes the counters, so they cover only the measured window.
func (p *proxy) reset() {
	p.out.Store(0)
	p.in.Store(0)
	p.mu.Lock()
	p.shards = nil
	p.mu.Unlock()
}

// calls returns the shard calls recorded since the last reset.
func (p *proxy) calls() []shardCall {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]shardCall(nil), p.shards...)
}

// close stops the proxy and waits for its server goroutine to end.
func (p *proxy) close() {
	p.srv.Close()
	<-p.served
	p.transport.CloseIdleConnections()
}

// lastReply is the end of the latest shard call that started at or
// after sent, across all proxies (zero when there was none).
func lastReply(proxies []*proxy, sent time.Time) time.Time {
	var last time.Time
	for _, p := range proxies {
		for _, c := range p.calls() {
			if !c.start.Before(sent) && c.end.After(last) {
				last = c.end
			}
		}
	}
	return last
}
