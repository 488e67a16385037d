package prober

// This file is the adaptive retransmission engine (DESIGN.md §8). The
// paper's measurement sent exactly one query per candidate IP, so every
// transient loss was a lost measurement — the 2013 campaign forfeited ~29%
// of its probes that way. This adds what production scanners (ZDNS et al.)
// ship: a bounded per-probe retransmission budget with exponential backoff
// and jitter, and a Jacobson/Karn RTT estimator that can replace the fixed
// timeout. Timeouts of first transmissions and retransmissions alike go
// through the one timeout wheel (wheel.go) and the one expire path
// (prober.go); this file decides how long they are and what happens to an
// expired probe that still has budget. Everything is off by default; with
// Retries == 0 and AdaptiveTimeout == false the prober is bit-identical to
// the single-shot paper behaviour (the golden tests pin this).

import (
	"time"

	"openresolver/internal/obs"
)

// rttEstimator is the Jacobson/Karn smoothed RTT tracker (RFC 6298
// weights): SRTT ← 7/8·SRTT + 1/8·sample, RTTVAR ← 3/4·RTTVAR +
// 1/4·|SRTT − sample|. Only clean first-transmission responses are
// sampled — a response to a retransmitted probe is ambiguous (which copy
// did it answer?), so Karn's rule excludes it.
type rttEstimator struct {
	srtt    time.Duration
	rttvar  time.Duration
	samples uint64
}

func (e *rttEstimator) observe(sample time.Duration) {
	if e.samples == 0 {
		e.srtt = sample
		e.rttvar = sample / 2
	} else {
		d := e.srtt - sample
		if d < 0 {
			d = -d
		}
		e.rttvar += (d - e.rttvar) / 4
		e.srtt += (sample - e.srtt) / 8
	}
	e.samples++
}

// rto returns SRTT + 4·RTTVAR clamped to [min, max], or fallback before
// the first sample.
func (e *rttEstimator) rto(fallback, min, max time.Duration) time.Duration {
	if e.samples == 0 {
		return fallback
	}
	d := e.srtt + 4*e.rttvar
	if d < min {
		d = min
	}
	if d > max {
		d = max
	}
	return d
}

// retryEntry queues a timed-out probe for retransmission; at is the enqueue
// instant, used by the shedding horizon.
type retryEntry struct {
	idx int32
	at  time.Duration
}

// retransmitting reports whether the engine is active; when false the
// prober runs the single-shot path (fixed timeout, no per-probe retry
// state, no retry queue).
func (p *Prober) retransmitting() bool {
	return p.cfg.Retries > 0 || p.cfg.AdaptiveTimeout
}

// rto is the current first-transmission timeout: the fixed Timeout, or the
// estimator's clamped RTO under AdaptiveTimeout.
func (p *Prober) rto() time.Duration {
	if !p.cfg.AdaptiveTimeout {
		return p.cfg.Timeout
	}
	return p.rtt.rto(p.cfg.Timeout, p.cfg.MinRTO, p.cfg.MaxRTO)
}

// backoff returns the timeout for a probe on its n-th retransmission:
// RTO × 2ⁿ capped at MaxRTO, plus ±12.5% jitter so retry storms across
// thousands of probes decorrelate instead of hammering the same tick.
// The jitter draw comes from the simulation rng — runs stay deterministic.
func (p *Prober) backoff(attempts uint8) time.Duration {
	d := p.rto()
	for i := uint8(0); i < attempts; i++ {
		d *= 2
		if d >= p.cfg.MaxRTO {
			d = p.cfg.MaxRTO
			break
		}
	}
	j := d / 8
	if j > 0 {
		d += time.Duration(p.node.Rand().Int63n(int64(2*j+1))) - j
	}
	return d
}

// horizon is the longest timeout the prober can arm, and so what the
// timeout wheel is sized for: rto never exceeds max(Timeout, MaxRTO) — its
// fallback is Timeout and the estimator clamps to MaxRTO last — backoff
// never raises it past that, and jitter adds at most an eighth.
func (p *Prober) horizon() time.Duration {
	d := max(p.cfg.Timeout, p.cfg.MaxRTO)
	return d + d/8
}

// giveUp abandons an in-flight probe: its subdomain returns to the pool
// (unless burned or reuse is disabled) and, when a retry budget exists,
// the gave-up counter records the loss the budget could not recover.
func (p *Prober) giveUp(idx int) {
	if p.cfg.Retries > 0 {
		p.gaveUp++
		p.cfg.Obs.Inc(obs.CProbeGaveUp)
	}
	if !p.cfg.DisableReuse && !p.isBurned(idx) {
		p.avail = append(p.avail, idx)
		p.reused++
		p.cfg.Obs.Inc(obs.CProbeReused)
	}
	p.sendAt[idx] = -1
}

// serveRetries retransmits queued probes, spending at most budget send
// tokens, and returns how many it spent. Graceful degradation lives here:
// an entry that has waited longer than the shed horizon (4×RTO — the queue
// is backing up faster than it drains) is abandoned rather than sent, so a
// loss spike sheds retries instead of starving fresh probes.
func (p *Prober) serveRetries(now time.Duration, budget float64) float64 {
	shed := 4 * p.rto()
	spent := 0.0
	q := p.retryq
	kept := q[:0]
	for i := 0; i < len(q); i++ {
		idx := int(q[i].idx)
		if p.sendAt[idx] < 0 {
			continue // answered while queued
		}
		if now-q[i].at > shed {
			p.giveUp(idx)
			continue
		}
		if spent+1 > budget {
			kept = append(kept, q[i:]...) // out of tokens; keep the tail
			break
		}
		p.retransmit(idx, now)
		spent++
	}
	p.retryq = kept
	return spent
}

// retransmit re-sends the probe for subdomain idx to its original target,
// reusing the original query ID, and re-arms its (backed-off) deadline.
func (p *Prober) retransmit(idx int, now time.Duration) {
	p.attempts[idx]++
	if len(p.tmpl) == 0 {
		// The first transmission encoded, so this cannot happen; bail safely.
		p.giveUp(idx)
		return
	}
	p.transmit(p.target[idx], idx, p.qid[idx])
	p.retransmits++
	p.cfg.Obs.Inc(obs.CProbeRetransmits)
	p.sendAt[idx] = now
	p.arm(idx, now+p.backoff(p.attempts[idx]))
}

// Stats is a snapshot of the prober's counters for the campaign report.
type Stats struct {
	Sent         uint64 // unique probes transmitted (Q1 targets)
	Skipped      uint64 // probes suppressed by the SendSkip model
	Received     uint64 // R2 packets collected
	Answered     uint64 // subdomains burned by a first response
	Reused       uint64 // subdomains returned to the pool unanswered
	Retransmits  uint64 // extra transmissions by the retry engine
	Late         uint64 // responses after their subdomain was swept/rotated
	DupResponses uint64 // responses for an already-answered subdomain
	GaveUp       uint64 // probes abandoned with the retry budget exhausted
	BadPackets   uint64 // R2 packets that failed to decode (e.g. corrupted)
	ClustersUsed int
	RTTSamples   uint64        // clean first-transmission latency samples
	SRTT, RTTVar time.Duration // adaptive-timeout estimator state
	RTO          time.Duration // current effective timeout
}

// Stats returns the counter snapshot.
func (p *Prober) Stats() Stats {
	return Stats{
		Sent:         p.sent,
		Skipped:      p.skipped,
		Received:     p.received,
		Answered:     p.answered,
		Reused:       p.reused,
		Retransmits:  p.retransmits,
		Late:         p.late,
		DupResponses: p.dupResponses,
		GaveUp:       p.gaveUp,
		BadPackets:   p.badPackets,
		ClustersUsed: p.ClustersUsed(),
		RTTSamples:   p.rtt.samples,
		SRTT:         p.rtt.srtt,
		RTTVar:       p.rtt.rttvar,
		RTO:          p.rto(),
	}
}

// Merge combines s with another shard's snapshot into the campaign total:
// counters sum (ClustersUsed too — every shard consumes its own disjoint
// cluster range), the estimator state merges as the sample-weighted mean of
// SRTT and RTTVAR, and RTO takes the maximum — the campaign-level
// "current effective timeout" is the most conservative shard's. The merge
// is associative over shard order and independent of worker scheduling.
func (s Stats) Merge(o Stats) Stats {
	out := s
	out.Sent += o.Sent
	out.Skipped += o.Skipped
	out.Received += o.Received
	out.Answered += o.Answered
	out.Reused += o.Reused
	out.Retransmits += o.Retransmits
	out.Late += o.Late
	out.DupResponses += o.DupResponses
	out.GaveUp += o.GaveUp
	out.BadPackets += o.BadPackets
	out.ClustersUsed += o.ClustersUsed
	n := s.RTTSamples + o.RTTSamples
	if n > 0 {
		out.SRTT = (s.SRTT*time.Duration(s.RTTSamples) + o.SRTT*time.Duration(o.RTTSamples)) / time.Duration(n)
		out.RTTVar = (s.RTTVar*time.Duration(s.RTTSamples) + o.RTTVar*time.Duration(o.RTTSamples)) / time.Duration(n)
	}
	out.RTTSamples = n
	if o.RTO > out.RTO {
		out.RTO = o.RTO
	}
	return out
}

// Late returns responses that arrived after their subdomain was swept or
// its cluster rotated away (previously indistinguishable from noise).
func (p *Prober) Late() uint64 { return p.late }

// Retransmits returns the number of retry transmissions sent.
func (p *Prober) Retransmits() uint64 { return p.retransmits }

// GaveUp returns probes abandoned after exhausting their retry budget.
func (p *Prober) GaveUp() uint64 { return p.gaveUp }

// Answered returns the number of subdomains answered by at least one
// response — the recovery metric the chaos tests compare across fault
// configurations.
func (p *Prober) Answered() uint64 { return p.answered }
