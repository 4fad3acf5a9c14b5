package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.txt from this build")

// digestArgs selects the tiny all-axes matrix: every workload, machine
// and variant under each preset's own hardware prefetcher, every
// explicit one, and every core model.
var digestArgs = []string{"-tiny", "-hwpf", "default,none,stride,nextline,ghb,imp", "-core", "interval,ooo,inorder"}

const digestFile = "testdata/digests.txt"

const digestHeader = `# Statistics digests of the tiny all-axes golden matrix:
#
#   golden -tiny -hwpf default,none,stride,nextline,ghb,imp -core interval,ooo,inorder
#
# One line per cell: workload, system, variant, hwpf, core, then the
# first 12 hex digits of the SHA-256 of the cell's compact JSON record.
# A preset's own prefetcher and the same one named explicitly share a
# line. The StatsVersion line names the sim.StatsVersion the digests
# were taken at: a deliberate statistics change bumps it and
# regenerates this file with
#
#   go test ./cmd/golden -run TestStatsDigest -update
`

// TestStatsDigest pins the statistics of every cell of the tiny
// all-axes matrix to testdata/digests.txt, and names the cells that
// moved. Statistics may change only together with sim.StatsVersion,
// which salts every store key; an unannounced change would poison warm
// stores. Pinned on amd64 only: Go may fuse multiply-adds on other
// architectures, which changes float64 results.
func TestStatsDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("statistics are pinned on amd64; this is %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("2,160-cell statistics digest")
	}
	var dump bytes.Buffer
	if err := run(digestArgs, &dump, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	cells, got, err := digests(dump.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		var sb strings.Builder
		sb.WriteString(digestHeader)
		fmt.Fprintf(&sb, "StatsVersion %d\n", sim.StatsVersion)
		for _, c := range cells {
			fmt.Fprintf(&sb, "%s %s\n", c, got[c])
		}
		if err := os.WriteFile(digestFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	version, want, err := parseDigests(string(data))
	if err != nil {
		t.Fatal(err)
	}
	var moved []string
	for _, c := range cells {
		if w, ok := want[c]; !ok {
			moved = append(moved, c+" (new)")
		} else if w != got[c] {
			moved = append(moved, c)
		}
	}
	for c := range want {
		if _, ok := got[c]; !ok {
			moved = append(moved, c+" (gone)")
		}
	}
	switch {
	case len(moved) > 0:
		t.Errorf("%d of %d cells moved; a statistics change must bump sim.StatsVersion and rerun with -update:\n  %s",
			len(moved), len(cells), strings.Join(moved, "\n  "))
	case version != sim.StatsVersion:
		t.Errorf("digests were taken at StatsVersion %d, the build is at %d: rerun with -update", version, sim.StatsVersion)
	}
}

// digests hashes every record of a golden dump, returning the cell
// labels in dump order and each label's digest. Records sharing a
// label (a preset's default prefetcher and its explicit name) must
// share a digest too.
func digests(dump []byte) ([]string, map[string]string, error) {
	var recs []json.RawMessage
	if err := json.Unmarshal(dump, &recs); err != nil {
		return nil, nil, err
	}
	var cells []string
	sums := make(map[string]string)
	for _, raw := range recs {
		var r record
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, nil, err
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			return nil, nil, err
		}
		sum := sha256.Sum256(compact.Bytes())
		label := strings.Join([]string{r.Workload, r.System, r.Variant, r.HWPF, r.Core}, " ")
		d := hex.EncodeToString(sum[:6])
		if prev, ok := sums[label]; !ok {
			cells = append(cells, label)
			sums[label] = d
		} else if prev != d {
			return nil, nil, fmt.Errorf("%s: two records with one label differ", label)
		}
	}
	return cells, sums, nil
}

// parseDigests reads testdata/digests.txt.
func parseDigests(s string) (int, map[string]string, error) {
	version := -1
	sums := make(map[string]string)
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0 || strings.HasPrefix(line, "#"):
		case len(f) == 2 && f[0] == "StatsVersion":
			if _, err := fmt.Sscan(f[1], &version); err != nil {
				return 0, nil, fmt.Errorf("%s: %q: %v", digestFile, line, err)
			}
		case len(f) == 6:
			sums[strings.Join(f[:5], " ")] = f[5]
		default:
			return 0, nil, fmt.Errorf("%s: malformed line %q", digestFile, line)
		}
	}
	if version < 0 {
		return 0, nil, fmt.Errorf("%s: no StatsVersion line", digestFile)
	}
	return version, sums, nil
}
