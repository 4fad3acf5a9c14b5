// Package store is a content-addressed, on-disk cache of simulation
// results. A (workload, machine configuration, variant, options)
// request is fully deterministic — the property the paper's
// figure-by-figure evaluation relies on — so its result can be keyed
// by a canonical hash of the request and reused forever, or until the
// timing model itself changes.
//
// Layout under the store directory:
//
//	objects/<k1k2>/<key>.json   one result per request, named by key
//	index.jsonl                 append-only catalogue of the objects
//
// The object files are the source of truth: Get never consults the
// index, so a crash between an object write and an index append loses
// nothing but a catalogue line. Object writes are atomic
// (temp file + rename), which makes concurrent writers and interrupted
// sweeps safe — a partially written entry is never visible under its
// final name. The index is one JSON line per Put (O(1) per cell,
// duplicates last-wins, torn tail lines skipped on load), so large
// sweeps never rewrite a growing file.
//
// Keys are SHA-256 over a canonical JSON document containing the store
// format version, a simulator-version salt (sim.StatsVersion), the
// workload name and constructor parameters, the full machine
// configuration, the variant, and every option. Changing any of these
// — a cache size, the look-ahead constant, a workload input size —
// therefore misses cleanly, and bumping sim.StatsVersion after a
// stat-affecting engine change invalidates every stale entry at once.
// See docs/service.md for the full invalidation rules.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// FormatVersion is the on-disk schema version, folded into every key
// so a schema change cannot misread old objects.
const FormatVersion = 1

// DefaultSalt is the simulator-version salt new stores use: bump
// sim.StatsVersion after a stat-affecting change and every existing
// entry misses.
func DefaultSalt() string { return fmt.Sprintf("sim-stats-v%d", sim.StatsVersion) }

// Store is a content-addressed result cache rooted at one directory.
// It implements sweep.Cache and is safe for concurrent use.
type Store struct {
	dir string

	// salt is the simulator-version component of every result key;
	// tests override it via OpenSalted to prove invalidation.
	salt string

	// traceSalt is the trace-format component of every trace key —
	// independent of salt, so trace and result invalidation decouple
	// (see trace.go); tests override it via OpenTraceSalted.
	traceSalt string

	// mu serialises appends to index.jsonl (and Index loads against
	// them).
	mu sync.Mutex

	hits, misses, puts                atomic.Int64
	traceHits, traceMisses, tracePuts atomic.Int64
}

// Open opens (creating if needed) the store rooted at dir, with the
// default simulator-version salt.
func Open(dir string) (*Store, error) { return OpenSalted(dir, DefaultSalt()) }

// EnvVar names the environment variable holding a default store
// directory, consulted by the commands' -store flag handling.
const EnvVar = "SWPF_STORE"

// FromFlags resolves the conventional -store / -no-store flag pair
// shared by cmd/golden, cmd/swpfbench and cmd/swpfd: an explicit
// directory wins, an empty one falls back to $SWPF_STORE, and noStore
// disables caching regardless. A nil *Store (with nil error) means
// caching is off — callers must not wrap it in a sweep.Cache without
// checking.
func FromFlags(dir string, noStore bool) (*Store, error) {
	if noStore {
		return nil, nil
	}
	if dir == "" {
		dir = os.Getenv(EnvVar)
	}
	if dir == "" {
		return nil, nil
	}
	return Open(dir)
}

// BindFlags registers the conventional -store / -no-store pair on a
// FlagSet and returns a resolver to call after parsing; the resolver
// has FromFlags semantics (nil Store = caching off).
func BindFlags(fs *flag.FlagSet) func() (*Store, error) {
	dir := fs.String("store", "", "persistent result store directory (default $"+EnvVar+"; -no-store disables)")
	noStore := fs.Bool("no-store", false, "disable the result store even when -store or $"+EnvVar+" is set")
	return func() (*Store, error) { return FromFlags(*dir, *noStore) }
}

// PutWarner returns a sweep.Runner OnPutError callback that reports
// the first persistence failure to w and swallows the rest — a full
// disk would otherwise warn once per cell. Persistence is
// best-effort, so the sweep itself continues either way.
func PutWarner(w io.Writer) func(sweep.Request, error) {
	var once sync.Once
	return func(_ sweep.Request, err error) {
		once.Do(func() {
			fmt.Fprintf(w, "warning: result store: %v (persistence is best-effort; continuing)\n", err)
		})
	}
}

// OpenSalted opens the store with an explicit version salt. Entries
// written under one salt are invisible under any other, which is how
// simulator-behaviour changes invalidate: results persist, keys move.
func OpenSalted(dir, salt string) (*Store, error) {
	return OpenTraceSalted(dir, salt, DefaultTraceSalt())
}

// OpenTraceSalted additionally pins the trace-version salt; tests use
// it to prove that a trace.FormatVersion bump invalidates trace
// objects without moving result keys.
func OpenTraceSalted(dir, salt, traceSalt string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, salt: salt, traceSalt: traceSalt}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Salt returns the simulator-version salt keys are computed under.
func (s *Store) Salt() string { return s.salt }

// keyDoc is the canonical pre-image of a cache key. Field order is
// fixed by the struct, values are plain data, and encoding/json is
// deterministic for both — so equal requests hash equally across
// processes and platforms.
//
// The request's execution mode (sweep.Request.Exec) is deliberately
// NOT a field: direct and replay produce byte-identical results, so a
// result computed under either mode must answer requests in both —
// splitting the keys would halve every warm cache for no information.
// Trace objects, where the distinction does matter, live in their own
// key space (see trace.go).
type keyDoc struct {
	Format   int
	Salt     string
	Workload string
	Params   string
	System   *sim.Config
	Variant  string
	Options  core.Options
}

// Key returns the content address of a request under the store's salt.
func (s *Store) Key(r sweep.Request) string {
	doc := keyDoc{
		Format:   FormatVersion,
		Salt:     s.salt,
		Workload: r.Workload.Name,
		Params:   r.Workload.Params,
		System:   r.System,
		Variant:  string(r.Variant),
		Options:  r.Options,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		// Every field is plain data; Marshal cannot fail.
		panic(fmt.Sprintf("store: marshal key: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// resultData is the serializable snapshot of a core.Result. The Pass
// report is deliberately absent: it holds pointers into live IR, and
// no result-set consumer (records, CSV/JSON emitters, golden dumps)
// reads it — cached results carry Pass == nil.
type resultData struct {
	Checksum int64
	Cycles   float64
	Stats    interp.Stats

	L1Hits, L1Misses   uint64
	DRAMAccesses       uint64
	SWPrefetches       uint64
	HWPrefetches       uint64
	HWPrefetchDropped  uint64
	TLBWalks           uint64
	LoadStallCycles    float64
	PrefetchLateCycles float64
	PrefetchedUnusedL1 uint64
}

// object is the on-disk entry schema: the key coordinates repeated in
// clear text (so an object file is self-describing) plus the result.
type object struct {
	Key      string
	Salt     string
	Workload string
	Params   string
	System   string
	Variant  string
	Options  core.Options
	Result   resultData
}

// IndexEntry is the payload of one catalogue line of index.jsonl.
type IndexEntry struct {
	Workload string
	Params   string
	System   string
	Variant  string
	Options  core.Options
	Salt     string
}

// indexLine is the index.jsonl per-line schema.
type indexLine struct {
	Key   string
	Entry IndexEntry
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.jsonl") }

// objectPath shards objects by the first key byte, keeping directory
// sizes sane for large sweeps.
func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, "objects", key[:2], key+".json")
}

// Get returns the cached result for the request, or (nil, false). An
// unreadable or mismatched object is treated as a miss, never an
// error: the caller will recompute and Put over it.
func (s *Store) Get(r sweep.Request) (*core.Result, bool) {
	o, ok := s.loadObject(s.Key(r))
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	d := o.Result
	return &core.Result{
		Workload: r.Workload.Name,
		System:   r.System.Name,
		Variant:  r.Variant,
		Checksum: d.Checksum,
		Cycles:   d.Cycles,
		Stats:    d.Stats,

		L1Hits:             d.L1Hits,
		L1Misses:           d.L1Misses,
		DRAMAccesses:       d.DRAMAccesses,
		SWPrefetches:       d.SWPrefetches,
		HWPrefetches:       d.HWPrefetches,
		HWPrefetchDropped:  d.HWPrefetchDropped,
		TLBWalks:           d.TLBWalks,
		LoadStallCycles:    d.LoadStallCycles,
		PrefetchLateCycles: d.PrefetchLateCycles,
		PrefetchedUnusedL1: d.PrefetchedUnusedL1,
	}, true
}

// loadObject reads one object by key. An object that does not decode,
// or that names a different key, is a miss.
func (s *Store) loadObject(key string) (*object, bool) {
	data, err := os.ReadFile(s.objectPath(key))
	if err != nil {
		return nil, false
	}
	var o object
	if json.Unmarshal(data, &o) != nil || o.Key != key {
		return nil, false
	}
	return &o, true
}

// Put persists the result under the request's key and records it in
// the index. The object write is atomic, so concurrent Puts of the
// same cell (identical content) and interrupted sweeps are both safe.
func (s *Store) Put(r sweep.Request, res *core.Result) error {
	key := s.Key(r)
	o := object{
		Key:      key,
		Salt:     s.salt,
		Workload: r.Workload.Name,
		Params:   r.Workload.Params,
		System:   r.System.Name,
		Variant:  string(r.Variant),
		Options:  r.Options,
		Result: resultData{
			Checksum: res.Checksum,
			Cycles:   res.Cycles,
			Stats:    res.Stats,

			L1Hits:             res.L1Hits,
			L1Misses:           res.L1Misses,
			DRAMAccesses:       res.DRAMAccesses,
			SWPrefetches:       res.SWPrefetches,
			HWPrefetches:       res.HWPrefetches,
			HWPrefetchDropped:  res.HWPrefetchDropped,
			TLBWalks:           res.TLBWalks,
			LoadStallCycles:    res.LoadStallCycles,
			PrefetchLateCycles: res.PrefetchLateCycles,
			PrefetchedUnusedL1: res.PrefetchedUnusedL1,
		},
	}
	data, err := json.MarshalIndent(&o, "", " ")
	if err != nil {
		return fmt.Errorf("store: marshal object: %w", err)
	}
	path := s.objectPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := atomicWrite(path, data); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.puts.Add(1)

	line := indexLine{Key: key, Entry: IndexEntry{
		Workload: o.Workload,
		Params:   o.Params,
		System:   o.System,
		Variant:  o.Variant,
		Options:  o.Options,
		Salt:     o.Salt,
	}}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendIndexLocked(line)
}

// Index loads the catalogue from disk: key -> coordinates. The index
// is purely advisory and production paths never read it, so it is
// parsed on demand rather than at Open. One JSON document per line; a
// torn or corrupt line (crash mid-append) is skipped, duplicates are
// last-wins — the objects stay authoritative either way.
func (s *Store) Index() map[string]IndexEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]IndexEntry)
	data, err := os.ReadFile(s.indexPath())
	if err != nil {
		return out
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		var l indexLine
		if json.Unmarshal(line, &l) == nil && l.Key != "" {
			out[l.Key] = l.Entry
		}
	}
	return out
}

// appendIndexLocked appends one catalogue line; the caller holds mu.
// O(1) per Put regardless of store size. Duplicate keys (re-puts,
// cross-process writers) are harmless: loads are last-wins, and the
// objects — the source of truth — never race.
func (s *Store) appendIndexLocked(l indexLine) error {
	data, err := json.Marshal(&l)
	if err != nil {
		return fmt.Errorf("store: marshal index line: %w", err)
	}
	f, err := os.OpenFile(s.indexPath(), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := f.Write(append(data, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("store: %w", werr)
	}
	return nil
}

// atomicWrite writes data to path via a temp file in the same
// directory plus rename, so readers only ever see complete files.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Stats is a snapshot of cache traffic since Open. The Trace counters
// track the trace-object namespace (replay sweeps); result traffic and
// trace traffic never share keys, so the two triples are independent.
type Stats struct {
	Hits, Misses, Puts                int64
	TraceHits, TraceMisses, TracePuts int64
}

// Stats reports cache traffic since the store was opened.
func (s *Store) Stats() Stats {
	return Stats{
		Hits: s.hits.Load(), Misses: s.misses.Load(), Puts: s.puts.Load(),
		TraceHits: s.traceHits.Load(), TraceMisses: s.traceMisses.Load(), TracePuts: s.tracePuts.Load(),
	}
}

// Interface conformance.
var _ sweep.Cache = (*Store)(nil)
