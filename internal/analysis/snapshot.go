package analysis

import (
	"openresolver/internal/ipv4"
	"openresolver/internal/paperdata"
)

// AccumulatorState is the serializable form of an Accumulator: every
// aggregate and per-unique-value map, with exported fields so it survives a
// JSON round trip byte-exactly. It is the checkpoint/restore unit of the
// crash-safe campaign engine (core's shard checkpoints) and the payload the
// future distributed fabric streams from workers to the coordinator — both
// rely on State → Restore reproducing Report output bit-for-bit.
//
// Map-valued fields use integer or string keys only, which encoding/json
// round-trips exactly; the configuration (year, threat DB, geo registry) is
// deliberately not part of the state — the restoring side supplies its own,
// and the enclosing checkpoint's campaign digest guards against mixing
// states across configurations.
type AccumulatorState struct {
	tables

	IPCounts  map[ipv4.Addr]uint64 `json:"ip_counts,omitempty"`
	URLCounts map[string]uint64    `json:"url_counts,omitempty"`
	StrCounts map[string]uint64    `json:"str_counts,omitempty"`

	MalPackets map[paperdata.MalCategory]uint64    `json:"mal_packets,omitempty"`
	MalUnique  map[ipv4.Addr]paperdata.MalCategory `json:"mal_unique,omitempty"`
	MalGeo     map[string]uint64                   `json:"mal_geo,omitempty"`
}

// State captures the accumulator's full analysis state. The maps are deep
// copies: mutating the accumulator afterwards never changes a taken state,
// so a checkpoint written while the campaign continues stays consistent.
func (a *Accumulator) State() *AccumulatorState {
	st := &AccumulatorState{tables: a.tab}
	if len(a.ipCounts) > 0 {
		st.IPCounts = make(map[ipv4.Addr]uint64, len(a.ipCounts))
		for k, v := range a.ipCounts {
			st.IPCounts[k] = v
		}
	}
	if len(a.urlCounts) > 0 {
		st.URLCounts = make(map[string]uint64, len(a.urlCounts))
		for k, v := range a.urlCounts {
			st.URLCounts[k] = *v
		}
	}
	if len(a.strCounts) > 0 {
		st.StrCounts = make(map[string]uint64, len(a.strCounts))
		for k, v := range a.strCounts {
			st.StrCounts[k] = *v
		}
	}
	if len(a.malPackets) > 0 {
		st.MalPackets = make(map[paperdata.MalCategory]uint64, len(a.malPackets))
		for k, v := range a.malPackets {
			st.MalPackets[k] = v
		}
	}
	if len(a.malUnique) > 0 {
		st.MalUnique = make(map[ipv4.Addr]paperdata.MalCategory, len(a.malUnique))
		for k, v := range a.malUnique {
			st.MalUnique[k] = v
		}
	}
	if len(a.malGeo) > 0 {
		st.MalGeo = make(map[string]uint64, len(a.malGeo))
		for k, v := range a.malGeo {
			st.MalGeo[k] = v
		}
	}
	return st
}

// NewAccumulatorFromState reconstructs an accumulator from a taken (or
// deserialized) state under cfg. Restore then Report produces bytes
// identical to the original accumulator's, and the restored accumulator
// keeps accepting packets and merging — it is a full replacement, not a
// read-only view.
func NewAccumulatorFromState(cfg Config, st *AccumulatorState) *Accumulator {
	a := NewAccumulator(cfg)
	a.tab = st.tables
	for k, v := range st.IPCounts {
		a.ipCounts[k] = v
	}
	for k, v := range st.URLCounts {
		a.urlCounts.add(k, v)
	}
	for k, v := range st.StrCounts {
		a.strCounts.add(k, v)
	}
	for k, v := range st.MalPackets {
		a.malPackets[k] = v
	}
	for k, v := range st.MalUnique {
		a.malUnique[k] = v
	}
	for k, v := range st.MalGeo {
		a.malGeo[k] = v
	}
	return a
}
