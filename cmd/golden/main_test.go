package main

import (
	"bytes"
	"errors"
	"flag"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// TestTinyDumpSerialVsParallel diffs a tiny-matrix dump between one
// worker and many: the bytes must match exactly. This runs even in
// -short mode; the full-size equivalence lives in internal/sweep.
func TestTinyDumpSerialVsParallel(t *testing.T) {
	var serial, parallel bytes.Buffer
	if err := run([]string{"-tiny", "-jobs", "1"}, &serial, &bytes.Buffer{}); err != nil {
		t.Fatalf("serial: %v", err)
	}
	if err := run([]string{"-tiny", "-jobs", "6"}, &parallel, &bytes.Buffer{}); err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatal("golden dump differs between -jobs 1 and -jobs 6")
	}
	// Sanity: the dump covers the full variant matrix.
	s := serial.String()
	for _, want := range []string{"\"plain\"", "\"auto\"", "\"manual\"", "\"icc\"", "\"indirect-only\"",
		"\"Haswell\"", "\"XeonPhi\"", "\"A57\"", "\"A53\""} {
		if !strings.Contains(s, want) {
			t.Errorf("dump missing %s", want)
		}
	}
}

// TestStoredDumpBitIdentical runs the tiny dump three times — no
// store, cold store, warm store — and requires byte-identical output:
// the result cache must be invisible in the statistics.
func TestStoredDumpBitIdentical(t *testing.T) {
	dir := t.TempDir()
	var plain, cold, warm bytes.Buffer
	if err := run([]string{"-tiny", "-no-store"}, &plain, &bytes.Buffer{}); err != nil {
		t.Fatalf("no store: %v", err)
	}
	if err := run([]string{"-tiny", "-store", dir}, &cold, &bytes.Buffer{}); err != nil {
		t.Fatalf("cold store: %v", err)
	}
	if err := run([]string{"-tiny", "-store", dir}, &warm, &bytes.Buffer{}); err != nil {
		t.Fatalf("warm store: %v", err)
	}
	if !bytes.Equal(plain.Bytes(), cold.Bytes()) {
		t.Error("cold-store dump differs from uncached dump")
	}
	if !bytes.Equal(plain.Bytes(), warm.Bytes()) {
		t.Error("warm-store dump differs from uncached dump")
	}
}

// TestHWPFLabelling pins the -hwpf record-labelling contract: a
// single-model dump (the default, and an explicit -hwpf stride, which
// behaves identically on every preset machine) omits the HWPF field
// entirely — keeping such dumps byte-identical to the pre-hwpf engine,
// the refactor-diffing property golden exists for — while a
// multi-model dump labels every record with its effective model so
// same-named systems stay distinguishable.
func TestHWPFLabelling(t *testing.T) {
	var def, stride, multi bytes.Buffer
	if err := run([]string{"-tiny"}, &def, &bytes.Buffer{}); err != nil {
		t.Fatalf("default: %v", err)
	}
	if err := run([]string{"-tiny", "-hwpf", "stride"}, &stride, &bytes.Buffer{}); err != nil {
		t.Fatalf("-hwpf stride: %v", err)
	}
	if !bytes.Equal(def.Bytes(), stride.Bytes()) {
		t.Error("-hwpf stride dump differs from the default dump")
	}
	if strings.Contains(def.String(), "\"HWPF\"") {
		t.Error("single-model dump carries HWPF labels")
	}

	if err := run([]string{"-tiny", "-hwpf", "default,none"}, &multi, &bytes.Buffer{}); err != nil {
		t.Fatalf("-hwpf default,none: %v", err)
	}
	s := multi.String()
	for _, want := range []string{"\"HWPF\": \"stride\"", "\"HWPF\": \"none\""} {
		if !strings.Contains(s, want) {
			t.Errorf("multi-model dump missing %s", want)
		}
	}
	if n, m := strings.Count(s, "\"HWPF\""), strings.Count(s, "\"Workload\""); n != m {
		t.Errorf("multi-model dump labels %d of %d records", n, m)
	}

	if err := run([]string{"-hwpf", "warp"}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("unknown hardware prefetcher accepted")
	}
}

func TestBadFlagRejected(t *testing.T) {
	if err := run([]string{"-nope"}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-exec", "jit"}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("unknown exec mode accepted")
	}
}

// TestAxisFlagHelp: the help of -hwpf and of -core names exactly its
// axis's values, so the help follows the registries.
func TestAxisFlagHelp(t *testing.T) {
	var help bytes.Buffer
	if err := run([]string{"-h"}, &bytes.Buffer{}, &help); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h = %v", err)
	}
	for name, values := range map[string][]string{
		"hwpf": sweep.HWPrefetcherAxis().Names(),
		"core": sweep.CoreAxis().Names(),
	} {
		_, usage, _ := strings.Cut(help.String(), "  -"+name+" string\n")
		usage, _, _ = strings.Cut(usage, "\n")
		if want := "among " + strings.Join(values, ",") + " "; !strings.Contains(usage, want) {
			t.Errorf("-%s help %q does not say %q", name, usage, want)
		}
	}
}

// TestReplayDumpBitIdentical is the tentpole acceptance check at the
// command level: a full tiny-matrix replay dump must be byte-for-byte
// identical to the direct dump, serial and parallel alike. The record
// format carries no mode field, so any statistics divergence — however
// small — shows up as a diff.
func TestReplayDumpBitIdentical(t *testing.T) {
	var direct, replay1, replay8 bytes.Buffer
	if err := run([]string{"-tiny", "-jobs", "4"}, &direct, &bytes.Buffer{}); err != nil {
		t.Fatalf("direct: %v", err)
	}
	if err := run([]string{"-tiny", "-exec", "replay", "-jobs", "1"}, &replay1, &bytes.Buffer{}); err != nil {
		t.Fatalf("replay -jobs 1: %v", err)
	}
	if err := run([]string{"-tiny", "-exec", "replay", "-jobs", "8"}, &replay8, &bytes.Buffer{}); err != nil {
		t.Fatalf("replay -jobs 8: %v", err)
	}
	if !bytes.Equal(direct.Bytes(), replay1.Bytes()) {
		t.Error("replay dump (-jobs 1) differs from direct dump")
	}
	if !bytes.Equal(direct.Bytes(), replay8.Bytes()) {
		t.Error("replay dump (-jobs 8) differs from direct dump")
	}
}

// TestReplayDumpStoreModes: the replay path composed with the store —
// cold (records and persists traces), warm-from-direct (result keys
// ignore the mode, so a direct-warmed store answers every replay cell),
// and warm-traces-cold-results — all byte-identical to the uncached
// direct dump.
func TestReplayDumpStoreModes(t *testing.T) {
	dir := t.TempDir()
	var plain, cold, warm bytes.Buffer
	if err := run([]string{"-tiny", "-no-store"}, &plain, &bytes.Buffer{}); err != nil {
		t.Fatalf("no store: %v", err)
	}
	if err := run([]string{"-tiny", "-exec", "replay", "-store", dir}, &cold, &bytes.Buffer{}); err != nil {
		t.Fatalf("cold store: %v", err)
	}
	if err := run([]string{"-tiny", "-exec", "replay", "-store", dir}, &warm, &bytes.Buffer{}); err != nil {
		t.Fatalf("warm store: %v", err)
	}
	if !bytes.Equal(plain.Bytes(), cold.Bytes()) {
		t.Error("cold-store replay dump differs from uncached direct dump")
	}
	if !bytes.Equal(plain.Bytes(), warm.Bytes()) {
		t.Error("warm-store replay dump differs from uncached direct dump")
	}

	// A direct dump over the replay-warmed store: served entirely from
	// the shared result key space, still identical.
	var direct bytes.Buffer
	if err := run([]string{"-tiny", "-store", dir}, &direct, &bytes.Buffer{}); err != nil {
		t.Fatalf("direct over warm store: %v", err)
	}
	if !bytes.Equal(plain.Bytes(), direct.Bytes()) {
		t.Error("direct dump over a replay-warmed store differs")
	}
}
