package netio

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"qav/internal/metrics"
	"qav/internal/video"
)

// clientIdle is how long Stream waits with no data before treating the
// stream as over.
const clientIdle = 2 * time.Second

// Client requests a stream from a server (directly or through a Pipe)
// and acknowledges every data packet, mirroring the RAP receiver. With
// a playout model attached (DialVideo) it additionally drives the
// hierarchical decoder simulation and requests selective
// retransmissions for base-layer holes. It is a socket, a lock and a
// start time around one viewer.
type Client struct {
	conn *net.UDPConn

	mu      sync.Mutex // guards v and started: Stats may run during Stream
	v       viewer
	started time.Time

	// reg is the per-stream metrics registry; snapshot functions lock
	// c.mu, so it is safe to snapshot concurrently with streaming.
	reg *metrics.Registry
}

// Dial connects a client to addr (the server or an emulating pipe).
func Dial(addr string) (*Client, error) {
	conn, err := dialUDP(addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, v: newViewer(nil), reg: metrics.NewRegistry()}
	counter := func(name string, read func(*ClientStats) int64) {
		c.reg.CounterFunc(name, func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return read(&c.v.st)
		})
	}
	counter("netio.rx.packets", func(st *ClientStats) int64 { return st.Packets })
	counter("netio.rx.bytes", func(st *ClientStats) int64 { return st.Bytes })
	counter("netio.rx.reorders", func(st *ClientStats) int64 { return st.ReorderEvents })
	counter("netio.rx.retransmits", func(st *ClientStats) int64 { return st.Retransmits })
	counter("netio.rx.duplicates", func(st *ClientStats) int64 { return st.Duplicates })
	counter("netio.rx.nacks", func(st *ClientStats) int64 { return st.NacksSent })
	return c, nil
}

// Metrics returns the client's per-stream metrics registry. Snapshots
// are safe to take concurrently with streaming.
func (c *Client) Metrics() *metrics.Registry { return c.reg }

// DialVideo connects a client with a playout model attached: received
// bytes feed a hierarchical-decoding receiver whose quality metrics
// appear in Stats().Playback, and base-layer holes are NACKed for
// selective retransmission.
func DialVideo(addr string, cfg video.Config) (*Client, error) {
	rx, err := video.NewReceiver(cfg)
	if err != nil {
		return nil, err
	}
	cl, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	cl.v.rx = rx
	return cl, nil
}

// Close releases the socket.
func (c *Client) Close() error { return c.conn.Close() }

// Stats returns a snapshot of receive-side statistics, with the playout
// model advanced to now (not at all before Stream).
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var now float64
	if !c.started.IsZero() {
		now = time.Since(c.started).Seconds()
	}
	return c.v.Stats(now)
}

// Stream requests dur of streaming and acknowledges packets until the
// flow goes idle or ctx is cancelled. It fails if no data arrived.
func (c *Client) Stream(ctx context.Context, dur time.Duration) error {
	c.mu.Lock()
	c.started = time.Now() // Stream is its only writer
	c.mu.Unlock()
	got, err := stream(ctx, c.conn, dur, clientIdle, c.started, make([]byte, 64<<10), c.onData)
	if err == nil && !got {
		err = fmt.Errorf("netio: no data received within %v", dur+clientIdle+3*time.Second)
	}
	return err
}

func (c *Client) onData(now float64, h DataHeader, size int) Ack {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v.OnData(now, h, size)
}
