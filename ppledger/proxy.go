package main

import (
	"net"
	"sync"
	"time"
)

// delayProxy is a TCP relay that delays every byte by a fixed amount in
// each direction, standing in for the link between two ring nodes. Chunks
// are timestamped on arrival and released in FIFO order once their delay
// has passed, so the delay adds latency without throttling bandwidth.
type delayProxy struct {
	ln       net.Listener
	upstream string
	delay    time.Duration

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// newDelayProxy listens on a free loopback port and relays every
// connection to upstream.
func newDelayProxy(upstream string, delay time.Duration) (*delayProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &delayProxy{ln: ln, upstream: upstream, delay: delay, conns: map[net.Conn]struct{}{}}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// addr is the proxy's listen address, host:port.
func (p *delayProxy) addr() string { return p.ln.Addr().String() }

// close stops accepting, severs every relayed connection and waits for
// all relay goroutines to end.
func (p *delayProxy) close() {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.ln.Close()
	p.wg.Wait()
}

// track registers c for close; false when the proxy is already closed.
func (p *delayProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *delayProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	c.Close()
}

func (p *delayProxy) serve() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		if !p.track(c) {
			c.Close()
			return
		}
		p.wg.Add(1)
		go p.relay(c)
	}
}

func (p *delayProxy) relay(client net.Conn) {
	defer p.wg.Done()
	defer p.untrack(client)
	up, err := net.Dial("tcp", p.upstream)
	if err != nil {
		return
	}
	if !p.track(up) {
		up.Close()
		return
	}
	defer p.untrack(up)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p.pipe(up, client) }()
	go func() { defer wg.Done(); p.pipe(client, up) }()
	wg.Wait()
}

// pipe copies src to dst, holding each chunk until delay after it was
// read. When src ends, dst's write side is closed so the peer sees EOF.
func (p *delayProxy) pipe(dst, src net.Conn) {
	type chunk struct {
		b  []byte
		at time.Time
	}
	// 64 chunks of 32 KiB bound the bytes in flight per direction at 2 MiB,
	// well above what a 1 ms delay holds at loopback rates for the request
	// sizes the ring exchanges.
	q := make(chan chunk, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		failed := false
		for c := range q {
			if failed {
				continue // keep draining so the reader never blocks
			}
			if d := time.Until(c.at.Add(p.delay)); d > 0 {
				time.Sleep(d)
			}
			if _, err := dst.Write(c.b); err != nil {
				failed = true
			}
		}
		if tc, ok := dst.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
	}()
	for {
		buf := make([]byte, 32<<10)
		n, err := src.Read(buf)
		if n > 0 {
			q <- chunk{b: buf[:n], at: time.Now()}
		}
		if err != nil {
			break
		}
	}
	close(q)
	<-done
}
