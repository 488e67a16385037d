package netsim

import (
	"bytes"
	"testing"
	"time"

	"openresolver/internal/ipv4"
)

func TestStreamDialSendClose(t *testing.T) {
	s := New(Config{Seed: 1, Latency: ConstantLatency(10 * time.Millisecond)})
	var serverGot [][]byte
	var serverClosed bool
	s.Listen(addrB, 53, func(c *Conn) {
		c.OnData(func(b []byte) {
			serverGot = append(serverGot, b)
			c.Send(append([]byte("ack:"), b...))
		})
		c.OnClose(func() { serverClosed = true })
	})
	dialer := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))

	var clientGot []byte
	var establishedAt time.Duration
	dialer.Dial(addrB, 53, func(c *Conn) {
		if c == nil {
			t.Error("dial failed")
			return
		}
		establishedAt = s.Now()
		if c.Local() != addrA || c.Remote() != addrB {
			t.Errorf("conn endpoints: %v → %v", c.Local(), c.Remote())
		}
		c.OnData(func(b []byte) {
			clientGot = b
			c.Close()
		})
		c.Send([]byte("hello"))
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if establishedAt != 20*time.Millisecond {
		t.Errorf("established at %v, want one RTT (20ms)", establishedAt)
	}
	if len(serverGot) != 1 || string(serverGot[0]) != "hello" {
		t.Errorf("server got %q", serverGot)
	}
	if string(clientGot) != "ack:hello" {
		t.Errorf("client got %q", clientGot)
	}
	if !serverClosed {
		t.Error("server not notified of close")
	}
	if s.Stats().StreamBytes == 0 {
		t.Error("stream bytes not counted")
	}
}

func TestStreamDialRefused(t *testing.T) {
	s := New(Config{Seed: 2, Latency: ConstantLatency(5 * time.Millisecond)})
	dialer := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	var gotNil, called bool
	dialer.Dial(addrC, 53, func(c *Conn) {
		called = true
		gotNil = c == nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if !called || !gotNil {
		t.Errorf("refused dial: called=%v nil=%v", called, gotNil)
	}
}

func TestStreamOrderingPreserved(t *testing.T) {
	s := New(Config{Seed: 3, Latency: ConstantLatency(time.Millisecond)})
	var got []byte
	s.Listen(addrB, 53, func(c *Conn) {
		c.OnData(func(b []byte) { got = append(got, b...) })
	})
	dialer := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	dialer.Dial(addrB, 53, func(c *Conn) {
		for i := byte(0); i < 10; i++ {
			c.Send([]byte{i})
		}
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !bytes.Equal(got, want) {
		t.Errorf("stream order = %v", got)
	}
}

func TestSendOnClosedConnDropped(t *testing.T) {
	s := New(Config{Seed: 4, Latency: ConstantLatency(time.Millisecond)})
	var received int
	s.Listen(addrB, 53, func(c *Conn) {
		c.OnData(func([]byte) { received++ })
	})
	dialer := s.Register(addrA, HostFunc(func(*Node, Datagram) {}))
	dialer.Dial(addrB, 53, func(c *Conn) {
		c.Send([]byte("one"))
		c.Close()
		c.Send([]byte("two")) // dropped
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if received != 1 {
		t.Errorf("received = %d, want 1", received)
	}
}

// Local returns the connection's local address.
func (c *Conn) Local() ipv4.Addr { return c.local }

// Remote returns the connection's remote address.
func (c *Conn) Remote() ipv4.Addr { return c.remote }

// OnClose registers a callback fired when the peer closes.
func (c *Conn) OnClose(fn func()) { c.onClose = fn }
