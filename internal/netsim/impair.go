package netsim

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"openresolver/internal/ipv4"
)

// This file is the simulator's fault-injection layer. The paper's 2013
// campaign lost ~29% of its probes to network conditions it could neither
// control nor model (Table II discussion); the composable Impairment
// pipeline below reproduces exactly those adverse conditions — burst loss,
// duplication, reordering, corruption, dead prefixes and time-windowed
// brownouts — as deterministic functions of (configuration, seed), so the
// retransmission machinery in prober and dnssrv can be exercised against
// them and every run stays bit-reproducible.
//
// Impairments are applied in configuration order to every datagram
// submitted to the network (stream segments are not impaired: the stream
// service models TCP, whose retransmissions hide link loss). Each
// impairment reads and updates a shared Fate; the simulator then executes
// the combined verdict: drop, deliver with extra delay, inject duplicate
// copies, or flip a payload bit. The verdict depends on the datagram's
// addresses and length only, so the simulator executes it before the
// payload of a deferred send exists. Duplicate copies are cloned from the
// original payload before any corruption is applied, so a corrupted
// primary never leaks into its twins.

// DropCause attributes an impairment drop for the FaultStats counters.
type DropCause uint8

// Drop causes.
const (
	CauseNone DropCause = iota
	CauseLoss
	CauseBurst
	CauseBlackhole
	CauseBrownout
)

// Fate is the accumulated verdict of the impairment pipeline for one
// datagram. Impairments may set Drop (with a Cause), add delivery delay,
// request duplicate copies, or mark a payload bit for corruption.
type Fate struct {
	Drop       bool
	Cause      DropCause
	ExtraDelay time.Duration
	Duplicates int
	// CorruptBit is the payload bit to flip, or -1 for an intact payload.
	CorruptBit int
}

// Impairment is one composable element of the fault pipeline. Apply is
// called once per datagram in configuration order; rng is the simulation's
// deterministic source. Stateful impairments (e.g. the Gilbert–Elliott
// chain) must advance their state on every call — including calls where the
// packet is already doomed — so the chain's trajectory is a function of the
// packet sequence alone.
//
// On a deferred send (Node.SendDeferred) the payload is not built yet. When
// every element of the pipeline, including any a Windowed wraps, is one of
// this package's impairments, Apply then sees a Payload of the declared
// length whose bytes are unspecified: those impairments read only the
// addresses, now and len(Payload). A pipeline holding any other Impairment
// gets the built payload, as on every other send.
type Impairment interface {
	Apply(dg *Datagram, now time.Duration, rng *rand.Rand, f *Fate)
}

// ownImpairments reports whether every element of imps, including those a
// Windowed wraps, is one of this package's impairments.
func ownImpairments(imps []Impairment) bool {
	for _, imp := range imps {
		if !ownImpairment(imp) {
			return false
		}
	}
	return true
}

func ownImpairment(imp Impairment) bool {
	switch imp := imp.(type) {
	case *IIDLoss, *GilbertElliott, *Duplicator, *Reorderer, *Corruptor, *Blackhole, *Brownout:
		return true
	case *Windowed:
		return ownImpairment(imp.Inner)
	}
	return false
}

// FaultStats count the impairment pipeline's interventions. They live
// beside (not inside) Stats so the pristine counters — and everything
// golden-hashed from them — are untouched by the fault layer's existence.
type FaultStats struct {
	Dropped    uint64 // all impairment drops (also counted in Stats.Lost)
	LossDrops  uint64 // i.i.d. loss (IIDLoss)
	BurstDrops uint64 // Gilbert–Elliott bad-state loss
	Blackholed uint64 // per-prefix blackhole / dead host drops
	BrownedOut uint64 // time-windowed brownout drops
	Duplicated uint64 // extra copies injected
	Corrupted  uint64 // payloads with a flipped bit
	Reordered  uint64 // packets delivered with impairment-added delay
}

// Add accumulates o into s — the shard-merge path of the parallel
// simulation, where every sub-simulation carries its own fault pipeline and
// the campaign total is the field-wise sum.
func (s *FaultStats) Add(o FaultStats) {
	s.Dropped += o.Dropped
	s.LossDrops += o.LossDrops
	s.BurstDrops += o.BurstDrops
	s.Blackholed += o.Blackholed
	s.BrownedOut += o.BrownedOut
	s.Duplicated += o.Duplicated
	s.Corrupted += o.Corrupted
	s.Reordered += o.Reordered
}

// Cloner is the optional forking extension of Impairment: a pipeline
// element whose Apply mutates receiver state (the Gilbert–Elliott chain, a
// window wrapping one) implements Clone to hand an independent pristine
// copy to each private sub-simulation of a sharded campaign. Stateless
// impairments need not implement it — their Apply only reads configuration
// fields, so sharing one value across concurrent pipelines is safe.
type Cloner interface {
	Clone() Impairment
}

// Clone implements Cloner: a fresh chain in the Good state with zeroed
// step counters, so every sub-simulation walks its own trajectory from the
// same transition matrix.
func (g *GilbertElliott) Clone() Impairment {
	return &GilbertElliott{
		PGoodBad: g.PGoodBad, PBadGood: g.PBadGood,
		LossGood: g.LossGood, LossBad: g.LossBad,
	}
}

// Clone implements Cloner, forking the wrapped impairment as well.
func (w *Windowed) Clone() Impairment {
	return &Windowed{From: w.From, Until: w.Until, Inner: CloneImpairment(w.Inner)}
}

// CloneImpairment returns a copy of imp safe to run in a second pipeline:
// stateful impairments are forked through Cloner, stateless ones are shared
// as-is (their Apply never writes the receiver).
func CloneImpairment(imp Impairment) Impairment {
	if c, ok := imp.(Cloner); ok {
		return c.Clone()
	}
	return imp
}

// CloneImpairments forks a whole pipeline for a private sub-simulation,
// preserving configuration order.
func CloneImpairments(imps []Impairment) []Impairment {
	if len(imps) == 0 {
		return nil
	}
	out := make([]Impairment, len(imps))
	for i, imp := range imps {
		out[i] = CloneImpairment(imp)
	}
	return out
}

// --- loss models ---------------------------------------------------------

// IIDLoss drops each packet independently with probability P. It is the
// impairment form of Config.Loss, usable inside Windowed phases and stacks.
type IIDLoss struct {
	P float64
}

// Apply implements Impairment.
func (l *IIDLoss) Apply(_ *Datagram, _ time.Duration, rng *rand.Rand, f *Fate) {
	if rng.Float64() < l.P && !f.Drop {
		f.Drop, f.Cause = true, CauseLoss
	}
}

// GilbertElliott is the classic two-state Markov burst-loss channel: a Good
// state with light loss and a Bad state with heavy loss, with per-packet
// transition probabilities. Real networks lose packets in bursts (queue
// overflows, flapping links), which is what breaks naive single-retry
// schemes — retransmitting into the same burst loses again.
//
// The chain advances once per packet regardless of prior verdicts, so its
// trajectory depends only on the packet sequence and the rng stream.
type GilbertElliott struct {
	// PGoodBad and PBadGood are the per-packet transition probabilities.
	PGoodBad, PBadGood float64
	// LossGood and LossBad are the drop probabilities in each state.
	LossGood, LossBad float64

	bad bool // current state

	// Packets counts chain steps; BadPackets counts steps spent in Bad.
	Packets, BadPackets uint64
}

// Apply implements Impairment. Exactly two rng draws per packet (state
// transition, then loss) keep the stream advance constant regardless of
// state, so stacked impairments see a stable draw sequence.
func (g *GilbertElliott) Apply(_ *Datagram, _ time.Duration, rng *rand.Rand, f *Fate) {
	p := rng.Float64()
	if g.bad {
		if p < g.PBadGood {
			g.bad = false
		}
	} else {
		if p < g.PGoodBad {
			g.bad = true
		}
	}
	g.Packets++
	loss := g.LossGood
	if g.bad {
		g.BadPackets++
		loss = g.LossBad
	}
	if rng.Float64() < loss && !f.Drop {
		f.Drop, f.Cause = true, CauseBurst
	}
}

// --- duplication, reordering, corruption ---------------------------------

// Duplicator injects duplicate deliveries: with probability P a packet is
// delivered Copies extra times (each copy drawing its own latency, so dups
// arrive reordered relative to the original). Observed in the wild on
// misconfigured links and middleboxes; exercises the prober's duplicate-R2
// accounting.
type Duplicator struct {
	P      float64
	Copies int // extra copies per duplication event; 0 means 1
}

// Apply implements Impairment. Dropped packets are not duplicated.
func (d *Duplicator) Apply(_ *Datagram, _ time.Duration, rng *rand.Rand, f *Fate) {
	if f.Drop || rng.Float64() >= d.P {
		return
	}
	n := d.Copies
	if n <= 0 {
		n = 1
	}
	f.Duplicates += n
}

// Reorderer models bounded reordering: with probability P a packet is held
// back by an extra delay drawn uniformly from (0, Window]. A reordered
// packet therefore arrives at most Window later than its unimpaired
// schedule — the bound the property tests pin.
type Reorderer struct {
	P      float64
	Window time.Duration
}

// Apply implements Impairment.
func (r *Reorderer) Apply(_ *Datagram, _ time.Duration, rng *rand.Rand, f *Fate) {
	if f.Drop || r.Window <= 0 || rng.Float64() >= r.P {
		return
	}
	f.ExtraDelay += 1 + time.Duration(rng.Int63n(int64(r.Window)))
}

// Corruptor flips one payload bit with probability P, exercising every
// decoder error path downstream (dnswire.UnpackInto failures, header ID
// mismatches, mangled qnames). Only the delivered primary copy is
// corrupted; duplicate copies keep the original bytes.
type Corruptor struct {
	P float64
}

// Apply implements Impairment.
func (c *Corruptor) Apply(dg *Datagram, _ time.Duration, rng *rand.Rand, f *Fate) {
	if f.Drop || len(dg.Payload) == 0 || rng.Float64() >= c.P {
		return
	}
	f.CorruptBit = rng.Intn(len(dg.Payload) * 8)
}

// --- topology and time-windowed faults -----------------------------------

// Blackhole silently drops every packet addressed into Block — a dead
// prefix (withdrawn route, filtered AS) or, at /32, a single dead host.
// With MatchSrc it also eats packets *from* the prefix, modeling a
// bidirectionally unreachable network.
type Blackhole struct {
	Block    ipv4.Block
	MatchSrc bool
}

// Apply implements Impairment.
func (b *Blackhole) Apply(dg *Datagram, _ time.Duration, _ *rand.Rand, f *Fate) {
	if f.Drop {
		return
	}
	if b.Block.Contains(dg.Dst) || (b.MatchSrc && b.Block.Contains(dg.Src)) {
		f.Drop, f.Cause = true, CauseBlackhole
	}
}

// Brownout degrades the whole network inside a virtual-time window: between
// From (inclusive) and Until (exclusive) every packet is dropped with
// probability Loss. With Loss 1 it is a full outage; the campaign degrades
// when the window opens and recovers when it closes.
type Brownout struct {
	From, Until time.Duration
	Loss        float64
}

// Apply implements Impairment.
func (b *Brownout) Apply(_ *Datagram, now time.Duration, rng *rand.Rand, f *Fate) {
	if now < b.From || now >= b.Until {
		return
	}
	if rng.Float64() < b.Loss && !f.Drop {
		f.Drop, f.Cause = true, CauseBrownout
	}
}

// Windowed activates Inner only between From (inclusive) and Until
// (exclusive) of virtual time; a zero Until means "forever after From".
// Stacking several Windowed impairments schedules fault phases on the
// virtual clock: a campaign can run clean, degrade mid-run, and recover.
type Windowed struct {
	From, Until time.Duration
	Inner       Impairment
}

// Apply implements Impairment.
func (w *Windowed) Apply(dg *Datagram, now time.Duration, rng *rand.Rand, f *Fate) {
	if now < w.From || (w.Until > 0 && now >= w.Until) {
		return
	}
	w.Inner.Apply(dg, now, rng, f)
}

// --- spec parser ---------------------------------------------------------

// ParseImpairments builds an impairment pipeline from a compact spec
// string, the format behind the CLIs' -loss-model flag. Specs are
// semicolon-separated elements, applied in order:
//
//	loss:P                    i.i.d. loss with probability P
//	ge:PGB,PBG,LG,LB          Gilbert–Elliott (transition and loss probs)
//	dup:P[,COPIES]            duplication, COPIES in [1, 16] (default 1)
//	reorder:P,WINDOW          bounded reordering (WINDOW a duration)
//	corrupt:P                 single-bit payload corruption
//	blackhole:CIDR[,src]      dead prefix (",src" also eats its sources)
//	brownout:FROM,UNTIL,P     windowed degradation (durations + loss prob)
//
// Any element may carry an activation window suffix "@FROM..UNTIL"
// (UNTIL optional), wrapping it in a Windowed phase:
//
//	"ge:0.05,0.2,0.125,1@2m..20m;dup:0.01"
//
// runs a 30%-mean burst-loss channel only between minutes 2 and 20 while
// 1% duplication runs throughout. Every probability must lie in [0, 1];
// NaN and infinities are rejected. COPIES is capped at 16 so a
// spec cannot multiply every packet without bound.
func ParseImpairments(spec string) ([]Impairment, error) {
	var out []Impairment
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		imp, err := parseOne(part)
		if err != nil {
			return nil, err
		}
		out = append(out, imp)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("netsim: empty impairment spec %q", spec)
	}
	return out, nil
}

func parseOne(part string) (Impairment, error) {
	var window *Windowed
	if i := strings.LastIndex(part, "@"); i >= 0 {
		from, until, err := parseWindow(part[i+1:])
		if err != nil {
			return nil, fmt.Errorf("netsim: impairment %q: %w", part, err)
		}
		window = &Windowed{From: from, Until: until}
		part = part[:i]
	}
	kind, args, _ := strings.Cut(part, ":")
	imp, err := parseKind(strings.TrimSpace(kind), strings.TrimSpace(args))
	if err != nil {
		return nil, err
	}
	if window != nil {
		window.Inner = imp
		return window, nil
	}
	return imp, nil
}

// maxDupCopies bounds the COPIES argument of a parsed dup element.
const maxDupCopies = 16

func parseKind(kind, args string) (Impairment, error) {
	fields := strings.Split(args, ",")
	prob := func(i int) (float64, error) {
		if i >= len(fields) {
			return 0, fmt.Errorf("netsim: impairment %q needs %d arguments", kind, i+1)
		}
		p, err := strconv.ParseFloat(strings.TrimSpace(fields[i]), 64)
		if err != nil || !(p >= 0 && p <= 1) { // NaN fails both comparisons
			return 0, fmt.Errorf("netsim: impairment %q: bad probability %q", kind, fields[i])
		}
		return p, nil
	}
	dur := func(i int) (time.Duration, error) {
		if i >= len(fields) {
			return 0, fmt.Errorf("netsim: impairment %q needs %d arguments", kind, i+1)
		}
		d, err := time.ParseDuration(strings.TrimSpace(fields[i]))
		if err != nil || d < 0 {
			return 0, fmt.Errorf("netsim: impairment %q: bad duration %q", kind, fields[i])
		}
		return d, nil
	}
	switch kind {
	case "loss":
		p, err := prob(0)
		if err != nil {
			return nil, err
		}
		return &IIDLoss{P: p}, nil
	case "ge":
		var ps [4]float64
		for i := range ps {
			p, err := prob(i)
			if err != nil {
				return nil, err
			}
			ps[i] = p
		}
		return &GilbertElliott{PGoodBad: ps[0], PBadGood: ps[1], LossGood: ps[2], LossBad: ps[3]}, nil
	case "dup":
		p, err := prob(0)
		if err != nil {
			return nil, err
		}
		copies := 1
		if len(fields) > 1 {
			n, err := strconv.Atoi(strings.TrimSpace(fields[1]))
			if err != nil || n < 1 || n > maxDupCopies {
				return nil, fmt.Errorf("netsim: impairment dup: bad copy count %q (want an integer in [1, %d])", fields[1], maxDupCopies)
			}
			copies = n
		}
		return &Duplicator{P: p, Copies: copies}, nil
	case "reorder":
		p, err := prob(0)
		if err != nil {
			return nil, err
		}
		w, err := dur(1)
		if err != nil {
			return nil, err
		}
		return &Reorderer{P: p, Window: w}, nil
	case "corrupt":
		p, err := prob(0)
		if err != nil {
			return nil, err
		}
		return &Corruptor{P: p}, nil
	case "blackhole", "dead":
		if args == "" {
			return nil, fmt.Errorf("netsim: impairment %q needs a CIDR", kind)
		}
		matchSrc := false
		cidr := strings.TrimSpace(fields[0])
		if len(fields) > 1 {
			if strings.TrimSpace(fields[1]) != "src" {
				return nil, fmt.Errorf("netsim: impairment %q: unknown option %q", kind, fields[1])
			}
			matchSrc = true
		}
		block, err := ipv4.ParseBlock(cidr)
		if err != nil {
			return nil, fmt.Errorf("netsim: impairment %q: %w", kind, err)
		}
		return &Blackhole{Block: block, MatchSrc: matchSrc}, nil
	case "brownout":
		from, err := dur(0)
		if err != nil {
			return nil, err
		}
		until, err := dur(1)
		if err != nil {
			return nil, err
		}
		p, err := prob(2)
		if err != nil {
			return nil, err
		}
		if until <= from {
			return nil, fmt.Errorf("netsim: impairment brownout: window [%v, %v) is empty", from, until)
		}
		return &Brownout{From: from, Until: until, Loss: p}, nil
	default:
		return nil, fmt.Errorf("netsim: unknown impairment kind %q", kind)
	}
}

func parseWindow(s string) (from, until time.Duration, err error) {
	lo, hi, _ := strings.Cut(s, "..")
	from, err = time.ParseDuration(strings.TrimSpace(lo))
	if err != nil {
		return 0, 0, fmt.Errorf("bad window start %q", lo)
	}
	if strings.TrimSpace(hi) != "" {
		until, err = time.ParseDuration(strings.TrimSpace(hi))
		if err != nil || until <= from {
			return 0, 0, fmt.Errorf("bad window end %q", hi)
		}
	}
	return from, until, nil
}

// --- canonical descriptions ----------------------------------------------

// Impairment String methods render the *configuration* of each pipeline
// element — never its mutable state (the Gilbert–Elliott chain position,
// step counters) and never pointer addresses — so two pipelines built from
// the same spec always describe identically. DescribeImpairments is the
// stable identity the crash-safe campaign engine hashes into its
// checkpoint campaign key: a resumed run validates that its fault plan
// matches the one that wrote the checkpoints.

// String describes the loss configuration.
func (l *IIDLoss) String() string { return fmt.Sprintf("loss(p=%g)", l.P) }

// String describes the chain's transition and loss configuration.
func (g *GilbertElliott) String() string {
	return fmt.Sprintf("ge(pgb=%g,pbg=%g,lossg=%g,lossb=%g)",
		g.PGoodBad, g.PBadGood, g.LossGood, g.LossBad)
}

// String describes the duplication configuration.
func (d *Duplicator) String() string { return fmt.Sprintf("dup(p=%g,copies=%d)", d.P, d.Copies) }

// String describes the reordering configuration.
func (r *Reorderer) String() string { return fmt.Sprintf("reorder(p=%g,window=%s)", r.P, r.Window) }

// String describes the corruption configuration.
func (c *Corruptor) String() string { return fmt.Sprintf("corrupt(p=%g)", c.P) }

// String describes the blackholed prefix.
func (b *Blackhole) String() string { return fmt.Sprintf("blackhole(%s,src=%t)", b.Block, b.MatchSrc) }

// String describes the brownout window and severity.
func (b *Brownout) String() string {
	return fmt.Sprintf("brownout(%s..%s,loss=%g)", b.From, b.Until, b.Loss)
}

// String describes the window and the wrapped impairment.
func (w *Windowed) String() string {
	return fmt.Sprintf("windowed(%s..%s,%s)", w.From, w.Until, DescribeImpairment(w.Inner))
}

// DescribeImpairment returns imp's canonical configuration description:
// its String when it has one, its concrete type name otherwise (a custom
// impairment without a String still gets a stable — if coarse — identity).
func DescribeImpairment(imp Impairment) string {
	if s, ok := imp.(fmt.Stringer); ok {
		return s.String()
	}
	return fmt.Sprintf("%T", imp)
}

// DescribeImpairments renders a whole pipeline in configuration order,
// semicolon-joined — pointer-free and state-free, identical for every
// pipeline built from the same spec.
func DescribeImpairments(imps []Impairment) string {
	var b strings.Builder
	for i, imp := range imps {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(DescribeImpairment(imp))
	}
	return b.String()
}
