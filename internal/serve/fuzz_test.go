package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobSpec: a POST /v1/jobs body is decoded as the router decodes it,
// compiled and keyed. No body may panic that path; a rejected spec yields
// an error and no spec; and an accepted spec compiles to the same SpecKey
// every time, which is what the digest cache relies on.
func FuzzJobSpec(f *testing.F) {
	for _, js := range append(append([]*JobSpec{}, equivalentJobSpecs...), badJobSpecs...) {
		body, err := json.Marshal(js)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"mode":"synth","years":["2015.5"],"cell_workers":[0,2],"shift":12}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var js JobSpec
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&js); err != nil {
			return
		}
		spec, err := js.Compile()
		if err != nil {
			if spec != nil {
				t.Fatalf("rejected job %s returned a spec", body)
			}
			return
		}
		key, err := SpecKey(spec)
		if err != nil {
			t.Fatalf("job %s compiled but has no key: %v", body, err)
		}
		again, err := js.Compile()
		if err != nil {
			t.Fatalf("job %s: second compile failed: %v", body, err)
		}
		if key2, err := SpecKey(again); err != nil || key2 != key {
			t.Fatalf("job %s: keys differ across compiles: %s vs %s (%v)", body, key, key2, err)
		}
	})
}
