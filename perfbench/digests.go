package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// digests.json holds the digest recorded for each (workload, scale, seed):
// the synth report hash, the sim FaultDigest, or the fleet's cell digests
// joined in grid order. The paper-scale synth report does not depend on the
// seed (digestKey), so that workload has one entry for every seed. A run
// whose reference path disagrees with it fails. Regenerate with
// --record-digests after a change that is meant to alter campaign output.
//
//go:embed digests.json
var digestsJSON []byte

var recordedDigests = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
	return m
}()

// recordedSeeds is the seed range digests.json covers.
const recordedSeeds = 32

// recordDigests runs every workload once for each seed below recordedSeeds
// and writes the digest both of its execution paths agree on to path. Seeds
// that share a key must agree on its digest too.
func recordDigests(path, stateRoot string, log io.Writer) error {
	out := map[string]string{}
	for _, name := range workloadNames() {
		for seed := int64(0); seed < recordedSeeds; seed++ {
			b := &bench{w: workloads[name], seed: seed, stateRoot: stateRoot, log: log}
			res, err := b.run()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: execution paths disagree", name, seed)
			}
			key := digestKey(b.w, seed)
			if prev, ok := out[key]; ok && prev != b.digest {
				return fmt.Errorf("%s seed %d: digest %.16s, another seed of %q gave %.16s", name, seed, b.digest, key, prev)
			}
			out[key] = b.digest
			fmt.Fprintf(log, "recorded %s seed %d: %.16s\n", name, seed, b.digest)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
