package interp

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// FuzzParseText feeds arbitrary bytes through the external-trace import
// path of `swpfbench -trace`: trace.ParseText, NewImage, and a replay on
// a machine with the IMP prefetcher, which reads the (empty) memory
// replica. Nothing may panic; an input that parses must replay.
func FuzzParseText(f *testing.F) {
	for _, seed := range []string{
		"# comment, then a blank line\n\n17 0x1000 4 L\n17 4100 4 S\n3 0x2000 8 P\n",
		"# strided loads with a store and a prefetch\n1 4096 8 L\n2 0x100000 8 S\n3 5120 8 P\n1 4160 8 L\n",
		"1 2 3 X\n",
		"1 0xffffffffffffffff 8 L\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	cfg := sim.DefaultConfig()
	cfg.HWPrefetcher = "imp"
	imp := sim.NewCoreModel(cfg)
	f.Fuzz(func(t *testing.T, text []byte) {
		tr, err := trace.ParseText(bytes.NewReader(text), "fuzz")
		if err != nil {
			return
		}
		im, err := NewImage(tr)
		if err != nil {
			t.Fatalf("a parsed trace does not decode: %v", err)
		}
		if _, err := im.Replay(imp); err != nil {
			t.Fatalf("replay of a parsed trace failed: %v", err)
		}
	})
}
