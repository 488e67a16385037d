package core

import (
	"flag"
	"io"
	"testing"
)

// The binder's defaults come from the spec the caller fills in, parsed
// flags land in its fields, and the result compiles; "none" is the
// pristine network.
func TestSpecRegisterFlags(t *testing.T) {
	spec := Spec{Year: 2013, Shift: 10, Seed: 7, Retries: 3}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	spec.RegisterFlags(fs)
	for name, want := range map[string]string{"shift": "10", "seed": "7", "retries": "3", "loss-model": ""} {
		if got := fs.Lookup(name).DefValue; got != want {
			t.Errorf("-%s default = %q, want %q", name, got, want)
		}
	}
	if err := fs.Parse([]string{"-shift", "255", "-loss-model", "none", "-adaptive-timeout"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Year != 2013 || cfg.SampleShift != 255 || cfg.Seed != 7 || len(cfg.Faults.Impairments) != 0 ||
		cfg.Faults.Retries != 3 || !cfg.Faults.AdaptiveTimeout || cfg.Faults.UpstreamBackoff {
		t.Errorf("compiled config %+v does not match the parsed flags", cfg)
	}
	for _, bad := range []string{"256", "-1", "x"} {
		if err := fs.Parse([]string{"-shift", bad}); err == nil {
			t.Errorf("-shift %s accepted", bad)
		}
	}
	if _, err := (Spec{Loss: "bogus:1"}).Config(); err == nil {
		t.Error("unknown impairment compiled")
	}
}
