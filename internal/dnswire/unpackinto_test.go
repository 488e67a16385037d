package dnswire

import (
	"reflect"
	"testing"
)

// sectionsEqual compares two messages semantically: headers and section
// contents must match, but a nil section and a length-0 section are the
// same (UnpackInto keeps empty sections non-nil to reuse their backing
// arrays).
func messagesEqual(a, b *Message) bool {
	if a.Header != b.Header {
		return false
	}
	secs := func(m *Message) [][]RR { return [][]RR{m.Answers, m.Authority, m.Additional} }
	if len(a.Questions) != len(b.Questions) {
		return false
	}
	for i := range a.Questions {
		if a.Questions[i] != b.Questions[i] {
			return false
		}
	}
	as, bs := secs(a), secs(b)
	for s := range as {
		if len(as[s]) != len(bs[s]) {
			return false
		}
		for i := range as[s] {
			x, y := as[s][i], bs[s][i]
			// Data buffers may differ in nil-ness for empty RDATA.
			if string(x.Data) != string(y.Data) {
				return false
			}
			x.Data, y.Data = nil, nil
			if !reflect.DeepEqual(x, y) {
				return false
			}
		}
	}
	return true
}

// TestUnpackIntoReuse decodes a sequence of differently shaped messages
// through one scratch Message and checks each result against a fresh
// Unpack — stale state from a bigger earlier message must never leak into
// a smaller later one.
func TestUnpackIntoReuse(t *testing.T) {
	q := NewQuery(7, "www.example.com", TypeA)
	rich := NewResponse(q)
	rich.Header.RA = true
	rich.AnswerA(0x01020304, 300)
	rich.AnswerA(0x05060708, 300)
	rich.Answers = append(rich.Answers, RR{
		Name: "www.example.com", Type: TypeCNAME, Class: ClassIN, TTL: 60,
		Target: "alias.example.net",
	})
	rich.Authority = append(rich.Authority, RR{
		Name: "example.com", Type: TypeNS, Class: ClassIN, TTL: 60,
		Target: "ns1.example.com",
	})

	txt := NewResponse(q)
	txt.Answers = append(txt.Answers, RR{
		Name: "www.example.com", Type: TypeTXT, Class: ClassIN, TTL: 5, Target: "hello",
	})

	empty := NewResponse(q)
	empty.Questions = nil
	empty.Header.Rcode = RcodeRefused

	var scratch Message
	for i, m := range []*Message{rich, txt, empty, q, rich, empty} {
		wire := m.MustPack()
		want, err := Unpack(wire)
		if err != nil {
			t.Fatalf("step %d: Unpack: %v", i, err)
		}
		if err := UnpackInto(&scratch, wire); err != nil {
			t.Fatalf("step %d: UnpackInto: %v", i, err)
		}
		if !messagesEqual(&scratch, want) {
			t.Fatalf("step %d: reused decode differs:\n got %+v\nwant %+v", i, &scratch, want)
		}
	}
}

// TestUnpackIntoErrors mirrors Unpack's rejection behavior and confirms
// the scratch stays usable after an error.
func TestUnpackIntoErrors(t *testing.T) {
	var scratch Message
	if err := UnpackInto(&scratch, []byte{1, 2, 3}); err == nil {
		t.Error("short header accepted")
	}
	wire := NewQuery(9, "ok.example.com", TypeA).MustPack()
	if err := UnpackInto(&scratch, append(wire, 0xFF)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if err := UnpackInto(&scratch, wire); err != nil {
		t.Fatalf("scratch unusable after errors: %v", err)
	}
	if q, ok := scratch.Question1(); !ok || q.Name != "ok.example.com" {
		t.Errorf("decode after errors: %+v", scratch)
	}
}

// TestUnpackIntoAllocs bounds the steady-state allocations of the reusing
// decode path: after warm-up, only name/target strings allocate; and those
// of a fresh decode, whose arena is one allocation.
func TestUnpackIntoAllocs(t *testing.T) {
	q := NewQuery(7, "or003.0001234.ucfsealresearch.net", TypeA)
	resp := NewResponse(q)
	resp.Header.RA = true
	resp.AnswerA(0x01020304, 60)
	wire := resp.MustPack()

	var scratch Message
	if err := UnpackInto(&scratch, wire); err != nil {
		t.Fatal(err)
	}
	steady := testing.AllocsPerRun(200, func() {
		if err := UnpackInto(&scratch, wire); err != nil {
			t.Fatal(err)
		}
	})
	// One question name + one RR name string; everything structural reused.
	if steady > 2 {
		t.Errorf("steady-state UnpackInto allocates %.1f times per op, want ≤ 2", steady)
	}

	fresh := testing.AllocsPerRun(50, func() {
		if _, err := Unpack(wire); err != nil {
			t.Fatal(err)
		}
	})
	if steady >= fresh {
		t.Errorf("reusing decode (%.1f allocs/op) not cheaper than fresh Unpack (%.1f)", steady, fresh)
	}
	// A fresh decode reserves its name arena once, at the message's length,
	// instead of growing it name by name.
	if fresh > 4 {
		t.Errorf("fresh Unpack allocates %.1f times per op, want ≤ 4", fresh)
	}
}
