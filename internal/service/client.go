package service

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
)

// Client speaks the chaosd wire protocol over one connection.
// Requests on a single client are serialized (one frame in flight at
// a time); open several clients for concurrency — the daemon batches
// identical requests server-side, so extra connections are cheap.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	out  []byte // the request frame, encoded in place
	in   []byte // the response payload; no decoded Response aliases it
}

// Dial connects a Client to a chaosd daemon at addr ("host:port" or,
// with network "unix", a socket path).
func Dial(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("service: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection. The Client owns conn and
// closes it on Close.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<16),
	}
}

// Do sends one partition request and waits for its response. Errors
// the daemon signals come back as typed wire errors — check with
// errors.Is against ErrOverloaded (retryable), ErrUnknownGraph
// (re-send the full graph), ErrBadRequest, or context.Canceled.
// Cancelling ctx tears the connection down (the daemon notices the
// disconnect and abandons the compute); the Client is unusable after
// that and after any transport error.
func (cl *Client) Do(ctx context.Context, req *Request) (*Response, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()

	if ctx != nil && ctx.Done() != nil {
		// Unblock the pending read on cancellation by closing the
		// connection; the watcher is released on return.
		watch := make(chan struct{})
		defer close(watch)
		go func() {
			select {
			case <-ctx.Done():
				cl.conn.Close()
			case <-watch:
			}
		}()
	}

	cl.out = endFrame(appendRequest(beginFrame(cl.out[:0], msgPartition), req))
	if _, err := cl.conn.Write(cl.out); err != nil {
		return nil, wrapCtx(ctx, fmt.Errorf("service: send request: %w", err))
	}
	t, payload, err := readFrame(cl.br, maxFrame, cl.in)
	if err != nil {
		return nil, wrapCtx(ctx, fmt.Errorf("service: read response: %w", err))
	}
	cl.in = payload
	switch t {
	case msgOK:
		return decodeResponse(payload)
	case msgError:
		return nil, decodeError(payload)
	default:
		return nil, fmt.Errorf("service: unexpected frame type %d in response", t)
	}
}

// wrapCtx prefers the context's cancellation cause over the transport
// error it provoked (closing the connection to unblock I/O surfaces as
// "use of closed network connection", which would mask the real cause).
func wrapCtx(ctx context.Context, err error) error {
	if ctx != nil && ctx.Err() != nil {
		return fmt.Errorf("service: request cancelled: %w", ctx.Err())
	}
	return err
}

// Close tears the connection down.
func (cl *Client) Close() error {
	return cl.conn.Close()
}

// LoadGraph builds synthetic graph variant v deterministically: a ring
// (guaranteed connectivity) plus seeded chords up to the requested
// degree. Exposed so tests and benchmark clients construct the same
// request graphs.
func LoadGraph(v, nnode, degree int) (e1, e2 []int) {
	rng := rand.New(rand.NewSource(int64(0x10ad<<16 + v)))
	e1 = make([]int, 0, nnode*degree/2)
	e2 = make([]int, 0, cap(e1))
	for i := 0; i < nnode; i++ {
		e1 = append(e1, i)
		e2 = append(e2, (i+1)%nnode)
	}
	for i := 0; len(e1) < nnode*degree/2; i++ {
		a, b := rng.Intn(nnode), rng.Intn(nnode)
		if a != b {
			e1 = append(e1, a)
			e2 = append(e2, b)
		}
	}
	return e1, e2
}
