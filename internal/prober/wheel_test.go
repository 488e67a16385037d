package prober

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"openresolver/internal/netsim"
)

// refEntry is one in-flight timeout of the reference queue.
type refEntry struct {
	idx, cluster int
	deadline     time.Duration
}

// refSweep is the prober's timeout handling before the wheel, kept as the
// reference the wheel is checked against: a plain slice in arm order,
// swept by the single-shot prober's early-break FIFO walk (deadlines are
// monotone there) or, with the retransmission engine on, by a full scan.
func refSweep(p *Prober, pending []refEntry, now time.Duration) []refEntry {
	if !p.retransmitting() {
		i := 0
		for ; i < len(pending); i++ {
			pn := pending[i]
			if pn.deadline > now {
				break
			}
			if pn.cluster == p.cluster {
				if !p.cfg.DisableReuse && !p.isBurned(pn.idx) {
					p.avail = append(p.avail, pn.idx)
					p.reused++
				}
				p.sendAt[pn.idx] = -1
			}
		}
		n := copy(pending, pending[i:])
		return pending[:n]
	}
	out := pending[:0]
	for _, pn := range pending {
		if pn.deadline > now {
			out = append(out, pn)
			continue
		}
		if pn.cluster != p.cluster {
			continue
		}
		if p.sendAt[pn.idx] < 0 {
			continue
		}
		if int(p.attempts[pn.idx]) < p.cfg.Retries {
			p.retryq = append(p.retryq, retryEntry{idx: int32(pn.idx), at: now})
			continue
		}
		p.giveUp(pn.idx)
	}
	return out
}

// modelProber is a prober without a network: enough state for the timeout
// path, with Start's Config defaults applied.
func modelProber(cfg Config) *Prober {
	if cfg.MinRTO <= 0 {
		cfg.MinRTO = 100 * time.Millisecond
	}
	if cfg.MaxRTO <= 0 {
		cfg.MaxRTO = 4 * cfg.Timeout
	}
	cfg.SLD = sld
	p := &Prober{cfg: cfg}
	p.wheel.init(p.horizon())
	p.refillCluster(0)
	return p
}

// TestWheelMatchesReferenceSweeps drives the wheel and the reference
// sweeps through the same random sequences of arm, answer, late burn,
// retransmit, shed and cluster rotation, sweeping at every tick-grid
// instant, and requires identical prober state after every sweep.
func TestWheelMatchesReferenceSweeps(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"single-shot", Config{Timeout: 2 * time.Second}},
		{"single-shot-no-reuse", Config{Timeout: 300 * time.Millisecond, DisableReuse: true}},
		{"adaptive", Config{Timeout: 2 * time.Second, AdaptiveTimeout: true}},
		{"retries-1", Config{Timeout: 200 * time.Millisecond, Retries: 1}},
		{"retries-3-adaptive", Config{Timeout: 2 * time.Second, Retries: 3, AdaptiveTimeout: true, MaxRTO: 8 * time.Second}},
		{"retries-3-no-reuse", Config{Timeout: 100 * time.Millisecond, Retries: 3, DisableReuse: true}},
		{"retries-255", Config{Timeout: 50 * time.Millisecond, Retries: 255, MaxRTO: 400 * time.Millisecond}},
		{"maxrto-below-timeout", Config{Timeout: 2 * time.Second, Retries: 3, MaxRTO: 500 * time.Millisecond}},
		{"maxrto-below-timeout-adaptive", Config{Timeout: time.Second, Retries: 3, AdaptiveTimeout: true, MinRTO: 20 * time.Millisecond, MaxRTO: 150 * time.Millisecond}},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			tc.cfg.ClusterSize = 256
			runWheelVsReference(t, tc.name, tc.cfg, seed)
		}
	}
}

func runWheelVsReference(t *testing.T, name string, cfg Config, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p, ref := modelProber(cfg), modelProber(cfg)
	// backoff draws its jitter from the node's rng; only p needs one, since
	// every deadline is computed once and armed on both sides.
	p.node = netsim.New(netsim.Config{Seed: seed}).Register(proberAddr, p)
	var pending []refEntry
	both := func(f func(*Prober)) { f(p); f(ref) }
	arm := func(idx int, deadline time.Duration) {
		p.arm(idx, deadline)
		pending = append(pending, refEntry{idx: idx, cluster: ref.cluster, deadline: deadline})
	}
	// deadline picks a timeout the prober could arm for a probe on its
	// attempts-th transmission: rto/backoff as the send paths compute them,
	// and on the retransmitting paths also the horizon itself.
	deadline := func(now time.Duration, attempts uint8) time.Duration {
		if !p.retransmitting() {
			return now + p.rto()
		}
		switch rng.Intn(4) {
		case 0:
			return now + p.horizon()
		case 1:
			return now + time.Duration(1+rng.Int63n(int64(p.horizon())))
		}
		if attempts == 0 {
			return now + p.rto()
		}
		return now + p.backoff(attempts)
	}

	const ticks = 2500
	expired := 0
	for k := 0; k < ticks; k++ {
		now := time.Duration(k) * tickInterval
		inFlight := p.wheel.n
		p.sweep(now)
		expired += inFlight - p.wheel.n
		pending = refSweep(ref, pending, now)
		if msg := diffProbers(p, ref, len(pending)); msg != "" {
			t.Fatalf("%s seed %d tick %d: wheel and reference diverge: %s", name, seed, k, msg)
		}

		for ops := rng.Intn(10); ops > 0; ops-- {
			switch r := rng.Intn(100); {
			case r < 55: // fresh probe
				if len(p.avail) == 0 {
					continue
				}
				d := deadline(now, 0)
				var idx int
				both(func(q *Prober) {
					idx = q.avail[len(q.avail)-1]
					q.avail = q.avail[:len(q.avail)-1]
					q.sendAt[idx] = now
					if q.retransmitting() {
						q.attempts[idx] = 0
					}
				})
				arm(idx, d)
			case r < 70: // first answer for an in-flight probe
				idx := rng.Intn(cfg.ClusterSize)
				if p.sendAt[idx] < 0 {
					continue
				}
				lat := time.Duration(1 + rng.Int63n(int64(3*time.Second)))
				both(func(q *Prober) {
					q.sendAt[idx] = -1
					q.rtt.observe(lat)
					q.burn(idx)
				})
			case r < 78: // late answer: burns a name already swept
				idx := rng.Intn(cfg.ClusterSize)
				if p.sendAt[idx] >= 0 {
					continue
				}
				both(func(q *Prober) { q.burn(idx) })
			case r < 93: // retransmit the retry queue's head
				if len(p.retryq) == 0 {
					continue
				}
				idx := int(p.retryq[0].idx)
				both(func(q *Prober) { q.retryq = q.retryq[1:] })
				if p.sendAt[idx] < 0 {
					continue
				}
				both(func(q *Prober) {
					q.attempts[idx]++
					q.sendAt[idx] = now
				})
				arm(idx, deadline(now, p.attempts[idx]))
			case r < 98: // shed the retry queue's head
				if len(p.retryq) == 0 {
					continue
				}
				idx := int(p.retryq[0].idx)
				both(func(q *Prober) {
					q.retryq = q.retryq[1:]
					if q.sendAt[idx] >= 0 {
						q.giveUp(idx)
					}
				})
			default: // rotate, stranding whatever is still armed
				if rng.Intn(8) == 0 {
					both(func(q *Prober) { q.refillCluster(q.cluster + 1) })
				}
			}
		}
	}
	if expired == 0 {
		t.Fatalf("%s seed %d: no probe ever expired", name, seed)
	}
}

// diffProbers reports the first difference in timeout-path state between
// the wheel prober p and the reference ref, or "" when they agree.
func diffProbers(p, ref *Prober, refInFlight int) string {
	switch {
	case p.wheel.n != refInFlight:
		return "in-flight count"
	case !slices.Equal(p.avail, ref.avail):
		return "avail"
	case !slices.Equal(p.retryq, ref.retryq):
		return "retryq"
	case !slices.Equal(p.sendAt, ref.sendAt):
		return "sendAt"
	case p.reused != ref.reused:
		return "reused"
	case p.gaveUp != ref.gaveUp:
		return "gaveUp"
	}
	return ""
}

// TestWheelHorizonCoversLongestBackoff: no timeout the prober can compute
// exceeds horizon, and a timeout of exactly horizon armed at any tick
// fires at its own tick — neither aliased onto an earlier ring slot nor
// rejected.
func TestWheelHorizonCoversLongestBackoff(t *testing.T) {
	for _, cfg := range []Config{
		{Timeout: 2 * time.Second, Retries: 3, AdaptiveTimeout: true, MaxRTO: 8 * time.Second},
		{Timeout: 2 * time.Second, Retries: 255},
		{Timeout: 2 * time.Second, Retries: 3, MaxRTO: 500 * time.Millisecond},
		{Timeout: time.Second, Retries: 3, AdaptiveTimeout: true, MinRTO: 3 * time.Second, MaxRTO: 2 * time.Second},
		{Timeout: 7 * time.Millisecond, Retries: 2, MaxRTO: 13 * time.Millisecond},
	} {
		cfg.ClusterSize = 4
		name := fmt.Sprintf("timeout %v, MaxRTO %v, MinRTO %v, adaptive %t", cfg.Timeout, cfg.MaxRTO, cfg.MinRTO, cfg.AdaptiveTimeout)
		p := modelProber(cfg)
		p.node = netsim.New(netsim.Config{Seed: 1}).Register(proberAddr, p)
		h := p.horizon()
		// The estimator's extremes: no sample yet (rto = Timeout), and a
		// sample so large the clamp pins rto to MaxRTO.
		for _, est := range []rttEstimator{{}, {srtt: time.Hour, rttvar: time.Hour, samples: 1}} {
			p.rtt = est
			if d := p.rto(); d > h {
				t.Fatalf("%s: rto %v exceeds horizon %v", name, d, h)
			}
			for a := 1; a <= 255; a++ {
				for i := 0; i < 20; i++ {
					if d := p.backoff(uint8(a)); d > h {
						t.Fatalf("%s: backoff(%d) = %v exceeds horizon %v", name, a, d, h)
					}
				}
			}
		}

		for k0 := int64(0); k0 < 3*(p.wheel.mask+1); k0 += 7 {
			now := time.Duration(k0) * tickInterval
			p.sweep(now)
			p.arm(0, now+h)
			want := slotOf(now + h)
			for k := k0 + 1; ; k++ {
				p.sweep(time.Duration(k) * tickInterval)
				if p.wheel.n == 0 {
					if k != want {
						t.Fatalf("%s: horizon timeout armed at tick %d fired at tick %d, want %d", name, k0, k, want)
					}
					break
				}
				if k > want {
					t.Fatalf("%s: horizon timeout armed at tick %d still pending at tick %d", name, k0, k)
				}
			}
		}
	}
}

// TestWheelRejectsDeadlineBeyondHorizon: a deadline the ring cannot hold
// would alias an earlier slot and fire early, so arming one panics.
func TestWheelRejectsDeadlineBeyondHorizon(t *testing.T) {
	p := modelProber(Config{Timeout: time.Second, ClusterSize: 4})
	p.arm(0, p.horizon())
	defer func() {
		if recover() == nil {
			t.Fatal("arming past the wheel horizon did not panic")
		}
	}()
	p.arm(1, time.Duration(p.wheel.mask+1)*tickInterval)
}
