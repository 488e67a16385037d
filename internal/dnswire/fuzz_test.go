package dnswire

import (
	"testing"
)

// Native fuzz targets. Without -fuzz these run their seed corpora as
// regression tests; with `go test -fuzz=FuzzUnpack ./internal/dnswire`
// they explore the parser adversarially.

func FuzzUnpack(f *testing.F) {
	// Seed corpus: the message shapes the measurement encounters.
	f.Add(NewQuery(1, "or000.0000001.ucfsealresearch.net", TypeA).MustPack())
	resp := NewResponse(NewQuery(2, "www.example.com", TypeA))
	resp.Header.RA = true
	resp.AnswerA(0x01020304, 60)
	f.Add(resp.MustPack())
	eq := &Message{Header: Header{ID: 3, QR: true, Rcode: RcodeServFail}}
	f.Add(eq.MustPack())
	mal := &Message{
		Header:  Header{QR: true},
		Answers: []RR{{Name: "x.net", Type: TypeA, Class: ClassIN, Data: []byte{0}}},
	}
	f.Add(mal.MustPack())
	edns := NewQuery(4, "e.net", TypeANY)
	edns.SetEDNS(EDNS{UDPSize: 4096, DO: true})
	f.Add(edns.MustPack())
	f.Add([]byte{})
	f.Add([]byte{0xC0, 0x0C})
	for _, name := range boundaryNames {
		q := &Message{Questions: []Question{{Name: name, Type: TypeA, Class: ClassIN}}}
		if wire, err := q.Pack(); err == nil {
			f.Add(wire)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Unpack(data)
		if err != nil {
			return
		}
		// Anything that parses must re-encode and re-parse to an equivalent
		// header and question. (Answers with compressed names re-encode in
		// uncompressed form, so sizes may differ; equivalence is semantic.)
		wire, err := msg.Pack()
		if err != nil {
			// Some decodable messages are not re-encodable (e.g. a label
			// that only fit via compression); that is acceptable.
			return
		}
		back, err := Unpack(wire)
		if err != nil {
			t.Fatalf("re-parse failed: %v (wire %x)", err, wire)
		}
		if back.Header != msg.Header {
			t.Fatalf("header changed: %+v vs %+v", back.Header, msg.Header)
		}
		if len(back.Questions) != len(msg.Questions) {
			t.Fatalf("question count changed")
		}
		for i := range msg.Questions {
			if back.Questions[i] != msg.Questions[i] {
				t.Fatalf("question %d changed: %+v vs %+v", i, back.Questions[i], msg.Questions[i])
			}
		}
		if len(back.Answers) != len(msg.Answers) {
			t.Fatalf("answer count changed")
		}
	})
}

func FuzzStreamParser(f *testing.F) {
	q := NewQuery(1, "x.example.net", TypeA)
	framed, _ := q.PackTCP()
	f.Add(framed, 3)
	f.Add([]byte{0, 0}, 1)
	f.Add([]byte{0xFF, 0xFF, 1}, 2)

	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		if chunk <= 0 {
			chunk = 1
		}
		// Feeding in chunks must agree with feeding at once.
		whole := &StreamParser{}
		wholeMsgs, wholeErr := whole.Feed(append([]byte(nil), data...))

		parts := &StreamParser{}
		var partMsgs []*Message
		var partErr error
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			msgs, err := parts.Feed(data[off:end])
			partMsgs = append(partMsgs, msgs...)
			if err != nil {
				partErr = err
				break
			}
		}
		if (wholeErr == nil) != (partErr == nil) {
			// An error can surface earlier or later depending on chunking,
			// but only in the direction of "later": the whole-feed sees the
			// bad frame immediately. Messages parsed before the error must
			// still agree.
			if wholeErr == nil {
				t.Fatalf("chunked feed errored (%v) but whole feed did not", partErr)
			}
		}
		n := len(partMsgs)
		if len(wholeMsgs) < n {
			n = len(wholeMsgs)
		}
		for i := 0; i < n; i++ {
			if wholeMsgs[i].Header.ID != partMsgs[i].Header.ID {
				t.Fatalf("message %d differs between feeds", i)
			}
		}
		if wholeErr == nil && partErr == nil && len(wholeMsgs) != len(partMsgs) {
			t.Fatalf("message counts differ: %d vs %d", len(wholeMsgs), len(partMsgs))
		}
	})
}
