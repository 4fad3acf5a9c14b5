package core

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// TestRecordReplayMatchesRun is the end-to-end bit-identity contract:
// for real workloads (including G500, whose driver interleaves
// host-side memory writes between kernel invocations, and pass-
// transformed variants with prefetches), a trace recorded once replays
// on every machine with a Result identical to a direct Run there —
// Pass excepted, which replay does not reconstruct.
func TestRecordReplayMatchesRun(t *testing.T) {
	ws := []*workloads.Workload{
		workloads.IS(1<<10, 1<<12),
		workloads.G500(8, 8),
		workloads.HJ(1<<9, 2),
	}
	cfgs := append(uarch.All(), uarch.WithHWPrefetcher(uarch.Haswell(), "imp"))
	o := Options{}
	for _, w := range ws {
		for _, v := range []Variant{VariantPlain, VariantAuto} {
			tr, recRes, err := NewContext().Record(w, cfgs[0], v, o)
			if err != nil {
				t.Fatalf("record %s/%s: %v", w.Name, v, err)
			}
			im, err := interp.NewImage(tr)
			if err != nil {
				t.Fatalf("image %s/%s: %v", w.Name, v, err)
			}
			cx := NewContext()
			for i, cfg := range cfgs {
				want, err := cx.Run(w, cfg, v, o)
				if err != nil {
					t.Fatalf("run %s/%s on %s: %v", w.Name, v, cfg.Name, err)
				}
				want.Pass = nil // replay carries nil, like store-served results
				got, err := cx.ReplayImage(im, cfg)
				if err != nil {
					t.Fatalf("replay %s/%s on %s: %v", w.Name, v, cfg.Name, err)
				}
				if *got != *want {
					t.Errorf("%s/%s on %s:\nreplay %+v\ndirect %+v", w.Name, v, cfg.Name, got, want)
				}
				if i == 0 {
					// The recording run's own Result is the direct result
					// for the recording configuration.
					recRes.Pass = nil
					if *recRes != *want {
						t.Errorf("%s/%s: Record result differs from Run on %s", w.Name, v, cfg.Name)
					}
				}
			}
		}
	}
}

// TestRecordMachineIndependentAcrossUarch: recording the same cell on
// different Table 1 machines yields byte-identical traces.
func TestRecordMachineIndependentAcrossUarch(t *testing.T) {
	w := workloads.IS(1<<10, 1<<12)
	var traces []*trace.Trace
	for _, cfg := range uarch.All() {
		tr, _, err := NewContext().Record(w, cfg, VariantAuto, Options{})
		if err != nil {
			t.Fatalf("record on %s: %v", cfg.Name, err)
		}
		traces = append(traces, tr)
	}
	for i := 1; i < len(traces); i++ {
		if !trace.Equal(traces[0], traces[i]) {
			t.Errorf("trace recorded on %s differs from %s",
				uarch.All()[i].Name, uarch.All()[0].Name)
		}
	}
}

// TestReplayTraceRoundTripsSerialization: the store path (encode →
// decode → replay) produces the same Result as replaying the freshly
// recorded trace.
func TestReplayTraceRoundTripsSerialization(t *testing.T) {
	w := workloads.IS(1<<9, 1<<10)
	cfg := uarch.A53()
	tr, _, err := NewContext().Record(w, cfg, VariantAuto, Options{})
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	decoded, err := trace.Decode(tr.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	imA, err := interp.NewImage(tr)
	if err != nil {
		t.Fatalf("image: %v", err)
	}
	imB, err := interp.NewImage(decoded)
	if err != nil {
		t.Fatalf("image decoded: %v", err)
	}
	a, err := NewContext().ReplayImage(imA, cfg)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	b, err := NewContext().ReplayImage(imB, cfg)
	if err != nil {
		t.Fatalf("replay decoded: %v", err)
	}
	if *a != *b {
		t.Errorf("serialized replay differs:\n%+v\n%+v", a, b)
	}
}

// TestParseExecMode covers the -exec axis parser.
func TestParseExecMode(t *testing.T) {
	for s, want := range map[string]ExecMode{
		"": ExecDirect, "direct": ExecDirect, "replay": ExecReplay, " replay ": ExecReplay,
	} {
		got, err := ParseExecMode(s)
		if err != nil || got != want {
			t.Errorf("ParseExecMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseExecMode("jit"); err == nil {
		t.Error("ParseExecMode accepted jit")
	}
}
