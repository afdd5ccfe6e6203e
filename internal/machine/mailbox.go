package machine

import (
	"fmt"
	"sync"
)

// message is one in-flight point-to-point message.
type message struct {
	payload any
	arrive  float64 // virtual time at which the message is available
}

type mkey struct {
	src, tag int
}

// mailbox is the per-rank receive queue. Senders append under the lock;
// the owning rank blocks on the condition variable until a matching
// (src, tag) message exists or the machine aborts.
type mailbox struct {
	m    *Machine
	mu   sync.Mutex
	cond *sync.Cond
	q    map[mkey][]message
}

func newMailbox(m *Machine) *mailbox {
	b := &mailbox{m: m, q: make(map[mkey][]message)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) put(src, tag int, msg message) {
	b.mu.Lock()
	k := mkey{src, tag}
	b.q[k] = append(b.q[k], msg)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// pop removes and returns the head message for k. Callers hold b.mu
// and have checked the queue is non-empty.
func (b *mailbox) pop(k mkey) message {
	lst := b.q[k]
	msg := lst[0]
	if len(lst) == 1 {
		delete(b.q, k)
	} else {
		b.q[k] = lst[1:]
	}
	return msg
}

// tryTake returns a matching message without blocking.
func (b *mailbox) tryTake(src, tag int) (message, bool) {
	k := mkey{src, tag}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.q[k]) > 0 {
		return b.pop(k), true
	}
	return message{}, false
}

func (b *mailbox) take(src, tag int) (message, bool) {
	k := mkey{src, tag}
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if len(b.q[k]) > 0 {
			return b.pop(k), true
		}
		if ab, _ := b.m.abortedErr(); ab {
			return message{}, false
		}
		b.cond.Wait()
	}
}

// wake rouses the owner so it re-checks for an abort; under the lock,
// for the reason given at rendezvous.wake.
func (b *mailbox) wake() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cond.Broadcast()
}

// Send transmits payload to rank dst with the given tag. bytes is the
// modeled wire size used for the cost model; it does not constrain the
// payload. The payload is delivered by reference: the sender must not
// mutate it after sending (helpers such as SendInts copy for safety).
func (c *Ctx) Send(dst, tag int, payload any, bytes int) {
	c.checkAborted()
	if dst < 0 || dst >= c.procs {
		panic(fmt.Sprintf("machine: Send to invalid rank %d (P=%d)", dst, c.procs))
	}
	cfg := c.m.cfg
	c.clock += cfg.SendOverhead + float64(bytes)*cfg.ByteTime
	arrive := c.clock + float64(cfg.Hops(c.rank, dst))*cfg.HopLatency
	c.m.boxes[dst].put(c.rank, tag, message{payload: payload, arrive: arrive})
}

// Recv blocks until a message with the given source and tag arrives and
// returns its payload, advancing the virtual clock to the later of the
// local clock and the message arrival time plus the receive overhead.
// On the Real backend the rank yields its compute slot while blocked,
// and slice payloads ([]int, []float64) are copied into fresh
// receiver-owned memory on delivery.
func (c *Ctx) Recv(src, tag int) any {
	c.checkAborted()
	if src < 0 || src >= c.procs {
		panic(fmt.Sprintf("machine: Recv from invalid rank %d (P=%d)", src, c.procs))
	}
	box := c.m.boxes[c.rank]
	msg, ok := box.tryTake(src, tag)
	if !ok {
		c.yield(func() {
			msg, ok = box.take(src, tag)
		})
	}
	if !ok {
		panic(abortSignal{})
	}
	if msg.arrive > c.clock {
		c.clock = msg.arrive
	}
	c.clock += c.m.cfg.RecvOverhead
	if c.m.real {
		return realClone(msg.payload)
	}
	return msg.payload
}

// realClone copies slice payloads into receiver-owned memory — the
// Real backend's physical delivery. Payload types the machine does not
// know stay shared by reference, as documented on Send.
func realClone(payload any) any {
	switch xs := payload.(type) {
	case []int:
		cp := make([]int, len(xs))
		copy(cp, xs)
		return cp
	case []float64:
		cp := make([]float64, len(xs))
		copy(cp, xs)
		return cp
	}
	return payload
}

// SendInts sends a copy of xs to dst.
func (c *Ctx) SendInts(dst, tag int, xs []int) {
	cp := make([]int, len(xs))
	copy(cp, xs)
	c.Send(dst, tag, cp, 8*len(xs))
}

// RecvInts receives an []int sent with SendInts.
func (c *Ctx) RecvInts(src, tag int) []int {
	return c.Recv(src, tag).([]int)
}

// SendFloats sends a copy of xs to dst.
func (c *Ctx) SendFloats(dst, tag int, xs []float64) {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	c.Send(dst, tag, cp, 8*len(xs))
}

// RecvFloats receives a []float64 sent with SendFloats.
func (c *Ctx) RecvFloats(src, tag int) []float64 {
	return c.Recv(src, tag).([]float64)
}
