package core

import (
	"flag"
	"fmt"
	"strconv"

	"openresolver/internal/netsim"
	"openresolver/internal/paperdata"
)

// Spec is the portable description of a campaign: every Config field that
// shapes the campaign's bytes, and nothing that doesn't (Workers, Obs, Ctx
// and Checkpoints are deliberately absent, exactly as they are absent from
// the campaign key). The campaign CLIs fill one from their flags, and a
// fabric LEASE carries one to a worker as JSON. Loss keeps the impairment
// plan as its -loss-model string because that grammar is the plan's
// parseable canonical form; Config parses it, and the campaign key proves
// that both sides of a wire compiled the same plan.
type Spec struct {
	Year      int    `json:"year"`
	Shift     uint8  `json:"shift"`
	Seed      int64  `json:"seed"`
	PPS       uint64 `json:"pps,omitempty"`
	Keep      bool   `json:"keep_packets,omitempty"`
	Loss      string `json:"loss,omitempty"`
	Retries   int    `json:"retries,omitempty"`
	Adaptive  bool   `json:"adaptive_timeout,omitempty"`
	Backoff   bool   `json:"upstream_backoff,omitempty"`
	MaxEvents int    `json:"max_events,omitempty"`
}

// SpecFor builds the spec for cfg. lossSpec must be the -loss-model string
// cfg.Faults.Impairments was parsed from ("" or "none" for a pristine
// network): the string cannot be recovered from the parsed plan, so the
// caller that parsed it must pass it through.
func SpecFor(cfg Config, lossSpec string) Spec {
	if lossSpec == "none" {
		lossSpec = ""
	}
	return Spec{
		Year:      int(cfg.Year),
		Shift:     cfg.SampleShift,
		Seed:      cfg.Seed,
		PPS:       cfg.PacketsPerSec,
		Keep:      cfg.KeepPackets,
		Loss:      lossSpec,
		Retries:   cfg.Faults.Retries,
		Adaptive:  cfg.Faults.AdaptiveTimeout,
		Backoff:   cfg.Faults.UpstreamBackoff,
		MaxEvents: cfg.Faults.MaxQueuedEvents,
	}
}

// Config compiles the spec into a runnable Config; Loss "" and "none" both
// mean the pristine network. The result has no Workers, Obs, Ctx or
// Checkpoints: the caller supplies its own runtime plumbing.
func (s Spec) Config() (Config, error) {
	var imps []netsim.Impairment
	if s.Loss != "" && s.Loss != "none" {
		var err error
		if imps, err = netsim.ParseImpairments(s.Loss); err != nil {
			return Config{}, fmt.Errorf("core: loss model: %w", err)
		}
	}
	return Config{
		Year:          paperdata.Year(s.Year),
		SampleShift:   s.Shift,
		Seed:          s.Seed,
		PacketsPerSec: s.PPS,
		KeepPackets:   s.Keep,
		Faults: FaultPlan{
			Impairments:     imps,
			Retries:         s.Retries,
			AdaptiveTimeout: s.Adaptive,
			UpstreamBackoff: s.Backoff,
			MaxQueuedEvents: s.MaxEvents,
		},
	}, nil
}

// RegisterFlags binds the campaign flags orsurvey, ortrend and orfabric
// share — -shift, -seed, -loss-model, -retries, -adaptive-timeout and
// -upstream-backoff — to s's fields. Each flag's default is the field's
// value at registration, so the caller fills in its defaults first.
func (s *Spec) RegisterFlags(fs *flag.FlagSet) {
	ShiftVar(fs, &s.Shift, "sample shift: scale the campaign to 1/2^`N` (sim mode needs N ≥ 6)")
	fs.Int64Var(&s.Seed, "seed", s.Seed, "deterministic seed")
	fs.StringVar(&s.Loss, "loss-model", s.Loss, `network impairment spec (sim mode): "none" or e.g. "ge:0.05,0.2,0.125,1;dup:0.1;reorder:0.2,40ms"`)
	fs.IntVar(&s.Retries, "retries", s.Retries, "per-probe retransmission budget (sim mode; 0 = the paper's single-shot prober)")
	fs.BoolVar(&s.Adaptive, "adaptive-timeout", s.Adaptive, "replace the fixed 2s probe timeout with a Jacobson/Karn RTO estimator (sim mode)")
	fs.BoolVar(&s.Backoff, "upstream-backoff", s.Backoff, "resolvers retry upstream queries with exponential backoff and jitter (sim mode)")
}

// ShiftVar registers a -shift flag that stores a sample shift in p,
// defaulting to p's value at registration. Values above 255 are rejected:
// a plain Uint flag converted to the engines' uint8 would wrap instead,
// turning -shift 256 into a full-scale campaign.
func ShiftVar(fs *flag.FlagSet, p *uint8, usage string) {
	fs.Var((*shiftValue)(p), "shift", usage)
}

type shiftValue uint8

func (v *shiftValue) String() string { return strconv.Itoa(int(*v)) }

func (v *shiftValue) Set(s string) error {
	n, err := strconv.ParseUint(s, 0, 8)
	if err != nil {
		return fmt.Errorf("want an integer from 0 to 255")
	}
	*v = shiftValue(n)
	return nil
}
