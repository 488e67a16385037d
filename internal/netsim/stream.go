package netsim

import (
	"openresolver/internal/ipv4"
)

// This file adds a TCP-like reliable stream service to the simulator.
// DNS falls back to TCP when a UDP response is truncated (RFC 1035
// §4.2.2, RFC 7766); the recursion engine and the authoritative server use
// this service for that path.
//
// The model is deliberately at the same altitude as the datagram service:
// a connection is a reliable, ordered, loss-free bidirectional byte pipe
// with per-segment latency (TCP's retransmissions are why the loss model
// does not apply). Connection setup costs one round trip, as a SYN/ACK
// handshake would.

// StreamAccept is a server's callback for an incoming connection.
type StreamAccept func(c *Conn)

// listenerKey identifies a TCP listener.
type listenerKey struct {
	addr ipv4.Addr
	port uint16
}

// Conn is one end of an established stream connection.
type Conn struct {
	sim    *Sim
	local  ipv4.Addr
	remote ipv4.Addr
	// peer is the opposite endpoint (nil until established).
	peer    *Conn
	onData  func([]byte)
	onClose func()
	closed  bool
}

// OnData registers the receive callback. Data sent before registration is
// NOT buffered; register in the accept/dial callback before returning.
func (c *Conn) OnData(fn func([]byte)) { c.onData = fn }

// Send transmits bytes to the peer, delivered in order after the latency
// of one segment. Sends on a closed connection are dropped.
func (c *Conn) Send(data []byte) {
	if c.closed || c.peer == nil {
		return
	}
	payload := append([]byte(nil), data...)
	peer := c.peer
	delay := c.sim.cfg.Latency(c.local, c.remote, c.sim.rng)
	c.sim.stats.Sent++
	c.sim.stats.StreamBytes += uint64(len(payload))
	c.sim.afterFunc(delay, func() {
		if peer.closed {
			return
		}
		c.sim.stats.Delivered++
		if peer.onData != nil {
			peer.onData(payload)
		}
	})
}

// Close tears the connection down in both directions (after the latency of
// a FIN segment for the peer's notification).
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	peer := c.peer
	if peer == nil || peer.closed {
		return
	}
	delay := c.sim.cfg.Latency(c.local, c.remote, c.sim.rng)
	c.sim.afterFunc(delay, func() {
		if peer.closed {
			return
		}
		peer.closed = true
		if peer.onClose != nil {
			peer.onClose()
		}
	})
}

// Listen registers a stream acceptor at (addr, port). Registering twice
// replaces the acceptor.
func (s *Sim) Listen(addr ipv4.Addr, port uint16, accept StreamAccept) {
	if s.listeners == nil {
		s.listeners = make(map[listenerKey]StreamAccept)
	}
	s.listeners[listenerKey{addr, port}] = accept
}

// Dial opens a connection from the node to (dst, port). The dialer's
// callback fires once the connection is established (one RTT later) or
// with nil if the destination is not listening (a RST, after one RTT).
func (n *Node) Dial(dst ipv4.Addr, port uint16, connected func(c *Conn)) {
	s := n.sim
	rtt := s.cfg.Latency(n.addr, dst, s.rng) + s.cfg.Latency(dst, n.addr, s.rng)
	accept, ok := s.listeners[listenerKey{dst, port}]
	if !ok {
		s.afterFunc(rtt, func() {
			connected(nil)
		})
		return
	}
	local := n.addr
	s.afterFunc(rtt, func() {
		client := &Conn{sim: s, local: local, remote: dst}
		server := &Conn{sim: s, local: dst, remote: local}
		client.peer, server.peer = server, client
		// The server's acceptor installs its callbacks first, then the
		// dialer's; both run at establishment time.
		accept(server)
		connected(client)
	})
}
