// Package store is a content-addressed, on-disk cache of simulation
// results. A (workload, machine configuration, variant, options)
// request is fully deterministic — the property the paper's
// figure-by-figure evaluation relies on — so its result can be keyed
// by a canonical hash of the request and reused forever, or until the
// timing model itself changes.
//
// Layout under the store directory:
//
//	results.jsonl               append-only log, one result per line
//	traces/<k1k2>/<key>.trace   one recorded trace per file (trace.go)
//
// Put appends one self-describing JSON object as one line with a
// single O_APPEND write, so concurrent writers — goroutines, handles
// or processes on one local filesystem — never interleave, and large
// sweeps never rewrite a growing file. Each handle keeps an in-memory
// index from key to the location of the key's last complete line
// (duplicates are last-wins). Open builds it, and a miss extends it
// with the complete lines appended since by any handle or process, so
// daemons sharing a directory serve each other's results. Get reads
// the indexed line back and checks its key: a line that does not
// decode is a miss, never a wrong result. Open terminates a line torn
// by a crash, so a tear costs only its own record.
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
	"bufio"
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
	log string // dir/results.jsonl

	// salt is the simulator-version component of every result key;
	// tests override it via OpenSalted to prove invalidation.
	salt string

	// traceSalt is the trace-format component of every trace key —
	// independent of salt, so trace and result invalidation decouple
	// (see trace.go); tests override it via OpenTraceSalted.
	traceSalt string

	// mu guards index and scanned. Appends need no lock: each is one
	// O_APPEND write.
	mu sync.Mutex
	// index maps a key to its last complete line in the log.
	index map[string]span
	// scanned is the length of the indexed prefix of the log; it always
	// ends on a line boundary.
	scanned int64

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
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:       dir,
		log:       filepath.Join(dir, "results.jsonl"),
		salt:      salt,
		traceSalt: traceSalt,
		index:     make(map[string]span),
	}
	if s.scanLocked() { // s is not shared yet
		// A crash tore the last line (or another process is still
		// writing it, and this newline lands after its record): end it,
		// so the next record starts a line of its own.
		if err := s.appendLog([]byte("\n")); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return s, nil
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

// object is the schema of one log line: the key coordinates repeated
// in clear text (so the log is self-describing) plus the result's
// snapshot.
type object struct {
	Key      string
	Salt     string
	Workload string
	Params   string
	System   string
	Variant  string
	Options  core.Options
	Result   core.ResultData
}

// span locates one line of the log: its offset and its length, newline
// included.
type span struct{ off, n int64 }

// Get returns the cached result for the request, or (nil, false). An
// unreadable or mismatched record is treated as a miss, never an
// error: the caller will recompute and Put over it.
func (s *Store) Get(r sweep.Request) (*core.Result, bool) {
	o, ok := s.lookup(s.Key(r))
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return o.Result.Result(r.Workload.Name, r.System.Name, r.Variant), true
}

// lookup reads the object stored under key. When the index holds no
// line for it, or the line does not decode to the key's object, it
// extends the index with the lines appended since and tries once more.
func (s *Store) lookup(key string) (*object, bool) {
	s.mu.Lock()
	at, ok := s.index[key]
	s.mu.Unlock()
	if ok {
		if o, ok := s.read(key, at); ok {
			return o, true
		}
	}
	s.mu.Lock()
	s.scanLocked()
	next, ok := s.index[key]
	s.mu.Unlock()
	if !ok || next == at {
		return nil, false
	}
	return s.read(key, next)
}

// read decodes the line at sp with one positioned read. A line that
// does not decode, or names another key, is a miss.
func (s *Store) read(key string, sp span) (*object, bool) {
	f, err := os.Open(s.log)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	line := make([]byte, sp.n)
	if _, err := f.ReadAt(line, sp.off); err != nil {
		return nil, false
	}
	var o object
	if json.Unmarshal(line, &o) != nil || o.Key != key {
		return nil, false
	}
	return &o, true
}

// scanLocked extends the index with the complete lines appended to
// the log since the last scan; the caller holds mu. A log that cannot
// be read adds nothing, so its cells miss. torn reports a last line
// with no newline yet, which stays unindexed.
func (s *Store) scanLocked() (torn bool) {
	f, err := os.Open(s.log)
	if err != nil {
		return false
	}
	defer f.Close()
	if _, err := f.Seek(s.scanned, io.SeekStart); err != nil {
		return false
	}
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return err == io.EOF && len(line) > 0
		}
		var head struct{ Key string }
		if json.Unmarshal(line, &head) == nil && head.Key != "" {
			s.index[head.Key] = span{s.scanned, int64(len(line))}
		}
		s.scanned += int64(len(line))
	}
}

// Put appends the result to the log under the request's key. The
// append is one write, so concurrent Puts — of the same cell too, which
// write identical records — and interrupted sweeps are both safe.
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
		Result:   res.Data(),
	}
	line, err := json.Marshal(&o)
	if err != nil {
		return fmt.Errorf("store: marshal object: %w", err)
	}
	if err := s.appendLog(append(line, '\n')); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// appendLog appends data to the log with one O_APPEND write, which a
// local filesystem never interleaves with another appender's.
func (s *Store) appendLog(data []byte) error {
	f, err := os.OpenFile(s.log, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
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
