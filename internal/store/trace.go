package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Trace objects: recorded (workload, variant) event streams, cached so
// a replay sweep only ever interprets a kernel that no store has seen.
//
// Traces live in their own namespace (traces/ next to results.jsonl)
// with their own key document and their own version salt, and the two
// key spaces treat the request coordinates differently:
//
//   - Result keys EXCLUDE the execution mode. Direct and replay runs of
//     a cell are byte-for-byte identical (the golden harness diffs
//     them), so a result computed under either mode must serve both —
//     a warm direct store answering a replay sweep is a feature, and
//     splitting the keys would silently halve every cache.
//   - Trace keys EXCLUDE the machine configuration. A trace is
//     machine-independent by construction (recording under any
//     sim.Config yields identical bytes); keying it by System would
//     store one copy per machine and destroy exactly the amortization
//     the trace exists to provide. The execution mode is not a field
//     here either — a trace object only exists in service of replay,
//     and the document's Kind already separates the namespaces.
//   - Trace keys are salted by trace.FormatVersion, not
//     sim.StatsVersion: an encoding or event-semantics change
//     invalidates every persisted trace without touching results, and
//     a stats-definition change invalidates results without discarding
//     traces (which carry no timing).
type traceKeyDoc struct {
	Format   int
	Kind     string // "trace": keeps the document distinct from keyDoc
	Salt     string
	Workload string
	Params   string
	Variant  string
	Options  core.Options
}

// DefaultTraceSalt is the trace-version salt new stores use: bumping
// trace.FormatVersion after an encoding or recording-semantics change
// makes every existing trace object miss.
func DefaultTraceSalt() string { return fmt.Sprintf("trace-v%d", trace.FormatVersion) }

// TraceSalt returns the trace-version salt trace keys are computed
// under.
func (s *Store) TraceSalt() string { return s.traceSalt }

// TraceKey returns the content address of the request's trace under
// the store's trace salt. The System and Exec coordinates are
// deliberately absent; see traceKeyDoc.
func (s *Store) TraceKey(r sweep.Request) string {
	doc := traceKeyDoc{
		Format:   FormatVersion,
		Kind:     "trace",
		Salt:     s.traceSalt,
		Workload: r.Workload.Name,
		Params:   r.Workload.Params,
		Variant:  string(r.Variant),
		Options:  r.Options,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(fmt.Sprintf("store: marshal trace key: %v", err)) // plain data; unreachable
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// tracePath shards trace objects by the first key byte, keeping
// directory sizes sane for large sweeps.
func (s *Store) tracePath(key string) string {
	return filepath.Join(s.dir, "traces", key[:2], key+".trace")
}

// GetTrace returns the cached trace for the request's (workload,
// variant, options), or (nil, false). Unreadable, truncated or
// corrupt objects are a miss, never an error — the trace's own CRC
// envelope rejects damage and the caller re-records over it.
func (s *Store) GetTrace(r sweep.Request) (*trace.Trace, bool) {
	data, err := os.ReadFile(s.tracePath(s.TraceKey(r)))
	if err != nil {
		s.traceMisses.Add(1)
		return nil, false
	}
	t, err := trace.Decode(data)
	if err != nil {
		s.traceMisses.Add(1)
		return nil, false
	}
	s.traceHits.Add(1)
	return t, true
}

// PutTrace persists the trace under the request's trace key, one file
// per trace written atomically. Traces stay out of results.jsonl: they
// are large, derived artifacts, re-recordable from the request alone.
func (s *Store) PutTrace(r sweep.Request, t *trace.Trace) error {
	path := s.tracePath(s.TraceKey(r))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := atomicWrite(path, t.Encode()); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.tracePuts.Add(1)
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
