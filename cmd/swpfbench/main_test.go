package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sweep"
)

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig99"}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestSweepModeCSVAndJSON(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-sweep", "-quick", "-workloads", "IS", "-systems", "A53", "-variants", "plain,manual", "-c", "16"}
	if err := run(args, &out, &bytes.Buffer{}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	csv := out.String()
	if !strings.HasPrefix(csv, "workload,system,variant") {
		t.Errorf("sweep CSV header missing:\n%s", csv)
	}
	if !strings.Contains(csv, "IS,A53,manual,stride,interval,direct,16") {
		t.Errorf("sweep CSV row missing:\n%s", csv)
	}

	out.Reset()
	if err := run(append(args, "-json"), &out, &bytes.Buffer{}); err != nil {
		t.Fatalf("sweep -json: %v", err)
	}
	if !strings.Contains(out.String(), "\"Variant\": \"manual\"") {
		t.Errorf("sweep JSON malformed:\n%s", out.String())
	}
}

// TestSweepStoreWarmIsBitIdentical reruns a small sweep against one
// store directory and requires the warm output to match the cold one
// byte for byte.
func TestSweepStoreWarmIsBitIdentical(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-sweep", "-quick", "-workloads", "IS", "-systems", "A53",
		"-variants", "plain,manual", "-c", "16", "-store", dir}
	var cold, warm bytes.Buffer
	if err := run(args, &cold, &bytes.Buffer{}); err != nil {
		t.Fatalf("cold: %v", err)
	}
	if err := run(args, &warm, &bytes.Buffer{}); err != nil {
		t.Fatalf("warm: %v", err)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Errorf("warm sweep differs from cold:\n%s\nvs\n%s", warm.String(), cold.String())
	}
}

func TestSweepModeRejectsUnknownNames(t *testing.T) {
	for _, args := range [][]string{
		{"-sweep", "-quick", "-workloads", "nope"},
		{"-sweep", "-quick", "-systems", "M4", "-workloads", "IS", "-variants", "plain"},
		{"-sweep", "-quick", "-variants", "jit", "-workloads", "IS"},
	} {
		if err := run(args, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestListEnumeratesAxes: -list must name every workload, system,
// variant and hardware-prefetcher model the grid accepts, so the axes
// are discoverable without reading source.
func TestListEnumeratesAxes(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list", "-quick"}, &out, &bytes.Buffer{}); err != nil {
		t.Fatalf("-list: %v", err)
	}
	s := out.String()
	for _, want := range []string{
		"workloads", "systems", "variants", "hardware prefetchers",
		"IS", "CG", "RA", "HJ-2", "HJ-8", "G500",
		"Haswell", "XeonPhi", "A57", "A53",
		"plain", "auto", "manual", "icc", "indirect-only",
		"default", "none", "stride", "nextline", "ghb", "imp",
		"nkeys=", // workload params are listed, not just names
		"execution modes", "direct:", "replay:",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("-list output missing %q:\n%s", want, s)
		}
	}
}

// TestAxisFlagHelp: each sweep axis flag's help names exactly its
// axis's values, so the help follows the registries.
func TestAxisFlagHelp(t *testing.T) {
	var help bytes.Buffer
	if err := run([]string{"-h"}, &bytes.Buffer{}, &help); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h = %v", err)
	}
	for name, values := range map[string][]string{
		"variants": sweep.VariantAxis().Names(),
		"hwpf":     sweep.HWPrefetcherAxis().Names(),
		"core":     sweep.CoreAxis().Names(),
		"exec":     sweep.ExecModeAxis().Names(),
	} {
		_, usage, _ := strings.Cut(help.String(), "  -"+name+" string\n")
		usage, _, _ = strings.Cut(usage, "\n")
		if want := "among " + strings.Join(values, ",") + " "; !strings.Contains(usage, want) {
			t.Errorf("-%s help %q does not say %q", name, usage, want)
		}
	}
}

func TestQuickFig2CSV(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration")
	}
	var out bytes.Buffer
	if err := run([]string{"-quick", "-csv", "-exp", "fig2"}, &out, &bytes.Buffer{}); err != nil {
		t.Fatalf("fig2: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, ",") || strings.Count(s, "\n") < 3 {
		t.Errorf("CSV output malformed:\n%s", s)
	}
}

// TestSweepGeneratedKernels: -gen adds generated kernels to the sweep
// pool, selectable by prefix, and the run produces a row per cell.
func TestSweepGeneratedKernels(t *testing.T) {
	var out, errBuf bytes.Buffer
	args := []string{"-sweep", "-quick", "-gen", "3", "-workloads", "GEN",
		"-systems", "A53", "-variants", "plain,auto", "-c", "16"}
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatalf("gen sweep: %v", err)
	}
	csv := out.String()
	for _, want := range []string{"GEN-00,A53,plain,", "GEN-00,A53,auto,", "GEN-02,A53,auto,"} {
		if !strings.Contains(csv, want) {
			t.Errorf("gen sweep CSV missing %q:\n%s", want, csv)
		}
	}
	// Without -gen the names are unknown.
	if err := run([]string{"-sweep", "-quick", "-workloads", "GEN"}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("GEN workloads selectable without -gen")
	}
}

// TestSweepExecReplay: a -exec replay sweep emits the same statistics
// as the direct sweep — the rows differ only in the exec column — and
// unknown modes are rejected.
func TestSweepExecReplay(t *testing.T) {
	args := []string{"-sweep", "-quick", "-workloads", "IS", "-systems", "Haswell,A53",
		"-variants", "plain,auto", "-c", "16"}
	var direct, replay bytes.Buffer
	if err := run(args, &direct, &bytes.Buffer{}); err != nil {
		t.Fatalf("direct: %v", err)
	}
	if err := run(append(args, "-exec", "replay"), &replay, &bytes.Buffer{}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	normalized := strings.ReplaceAll(replay.String(), ",replay,", ",direct,")
	if normalized != direct.String() {
		t.Errorf("replay sweep differs from direct beyond the exec column:\n%s\nvs\n%s",
			replay.String(), direct.String())
	}
	if !strings.Contains(replay.String(), ",replay,") {
		t.Error("replay sweep rows not labelled replay")
	}

	if err := run(append(args, "-exec", "jit"), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("unknown exec mode accepted")
	}
}

// TestTraceImportReplay: -trace retimes an external text trace across
// the selected axes; the import grammar is pc addr size kind.
func TestTraceImportReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "capture.trace")
	var sb strings.Builder
	sb.WriteString("# synthetic capture: strided loads with a store and a prefetch\n")
	for i := 0; i < 256; i++ {
		fmt.Fprintf(&sb, "1 %d 8 L\n", 4096+64*i)
		if i%16 == 0 {
			fmt.Fprintf(&sb, "2 0x%x 8 S\n", 1<<20+8*i)
			fmt.Fprintf(&sb, "3 %d 8 P\n", 4096+64*(i+16))
		}
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-trace", path, "-systems", "Haswell,A53", "-hwpf", "default,none"}, &out, &bytes.Buffer{}); err != nil {
		t.Fatalf("-trace: %v", err)
	}
	csv := out.String()
	if !strings.HasPrefix(csv, "workload,system,variant,hwpf,core,exec,") {
		t.Errorf("trace replay header is not the sweep header:\n%s", csv)
	}
	for _, want := range []string{"capture,Haswell,imported,stride,", "capture,Haswell,imported,none,", "capture,A53,imported,none,"} {
		if !strings.Contains(csv, want) {
			t.Errorf("trace replay missing row %q:\n%s", want, csv)
		}
	}
	if strings.Count(csv, "\n") != 5 { // header + 2 systems x 2 models
		t.Errorf("expected 4 rows:\n%s", csv)
	}

	// JSON emission and determinism.
	var j1, j2 bytes.Buffer
	if err := run([]string{"-trace", path, "-systems", "A53", "-json"}, &j1, &bytes.Buffer{}); err != nil {
		t.Fatalf("-trace -json: %v", err)
	}
	if err := run([]string{"-trace", path, "-systems", "A53", "-json"}, &j2, &bytes.Buffer{}); err != nil {
		t.Fatalf("-trace -json rerun: %v", err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Error("trace replay is not deterministic")
	}
	if !strings.Contains(j1.String(), "\"Workload\": \"capture\"") {
		t.Errorf("trace replay JSON malformed:\n%s", j1.String())
	}

	// The core axis applies: one row per model, an unknown one is an
	// error.
	out.Reset()
	if err := run([]string{"-trace", path, "-systems", "A53", "-core", "ooo,inorder"}, &out, &bytes.Buffer{}); err != nil {
		t.Fatalf("-trace -core: %v", err)
	}
	for _, want := range []string{"capture,A53,imported,stride,ooo,replay,", "capture,A53,imported,stride,inorder,replay,"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-trace -core missing row %q:\n%s", want, out.String())
		}
	}
	if strings.Count(out.String(), "\n") != 3 {
		t.Errorf("-trace -core: expected 2 rows:\n%s", out.String())
	}
	if err := run([]string{"-trace", path, "-core", "bogus"}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("-trace -core bogus error = %v", err)
	}
	// The trace fixes workload, variant and execution: those flags, and
	// the other modes, are errors naming the flag.
	for _, extra := range [][]string{
		{"-workloads", "IS"}, {"-variants", "plain"}, {"-exec", "direct"}, {"-c", "16"}, {"-depth", "2"},
		{"-hoist"}, {"-gen", "4"}, {"-sweep"}, {"-tune"},
	} {
		err := run(append([]string{"-trace", path, "-systems", "A53"}, extra...), &bytes.Buffer{}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), extra[0]) {
			t.Errorf("-trace with %s: error = %v, want one naming the flag", extra[0], err)
		}
	}

	// Failure modes: missing file, bad grammar.
	if err := run([]string{"-trace", filepath.Join(dir, "absent")}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("missing trace file accepted")
	}
	bad := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(bad, []byte("1 2 3 X\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-trace", bad}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "bad kind") {
		t.Errorf("bad trace grammar error = %v", err)
	}
}
