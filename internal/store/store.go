// Package store is a content-addressed, on-disk result store: a mapping from
// a caller-computed key (a hash over the inputs that determine a result —
// circuit bytes, option fingerprint, sub-result discriminator) to a JSON
// payload. Two callers use it: the exploration sweep keeps its solved points
// and candidate periods here, and mcretimed keeps single-point retime
// results (the retimed BLIF and its report) under a key over the job's
// circuit bytes and result-determining options. Repeated sweeps, repeated
// retime jobs, server restarts, and CI runs read from disk instead of
// re-solving. Open does not scan the directory, so a large store costs
// nothing at start-up. Nothing bounds its size yet: mcretimed adds one entry
// per distinct successful retime job, and nothing is ever evicted.
//
// The design goal is that the store can NEVER make an answer wrong — only
// absent. Every failure mode degrades to a miss and the caller re-solves:
//
//   - writes go to a temp file in the final directory and are renamed into
//     place, so readers never observe a half-written entry;
//   - every entry is an envelope carrying the schema version, the full key,
//     and a SHA-256 over the payload bytes; a load whose file is unreadable,
//     unparsable, schema-mismatched, key-mismatched (hash-prefix collision or
//     file moved by hand), or checksum-mismatched counts as corrupt and
//     reports a miss;
//   - Save errors are reported to the caller but leave no partial entry.
//
// The failpoint sites store.load and store.save inject I/O failures at the
// natural boundaries, so chaos tests can prove the degradation path.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mcretiming/internal/failpoint"
	"mcretiming/internal/retry"
)

// Schema is the version tag of the on-disk envelope. Bump it when the layout
// changes incompatibly; old entries then read as misses and are re-solved,
// never misinterpreted.
const Schema = "mcretiming-store/v1"

// Store is a result store rooted at a directory, optionally layered over a
// remote/shared tier (WithRemote): loads try the local directory first and
// fall back to the remote store, populating the local tier on a remote hit;
// saves write locally and write through to the remote best-effort. A store
// may also be remote-only (RemoteOnly) for diskless workers. Every remote
// failure — network, timeout, corrupt response — degrades to a miss or a
// counted save error, never a wrong answer: remote payloads pass the same
// envelope validation as local ones.
//
// A nil *Store is a valid always-miss store (Load reports false, Save drops
// the value), so callers thread an optional store without nil checks.
//
// All methods are safe for concurrent use, across goroutines and across
// processes sharing the directory (atomicity comes from rename, not locks).
type Store struct {
	dir    string  // "" for a remote-only store
	remote *Remote // nil without a remote tier
	stats  storeStats

	// onSave, when set (WithOnSave), observes every successful local write
	// with the validated envelope bytes. The HA coordinator hooks store
	// replication here so the standby's tier stays warm.
	onSave func(key string, envelope []byte)

	// Remote write-through retry policy: a failed remote save is retried
	// asynchronously up to remoteRetries times on remoteBackoff, with at most
	// cap(remoteSem) retriers in flight — beyond that the save is dropped and
	// counted. Zero values get defaults from withRemote.
	remoteRetries int
	remoteBackoff retry.Schedule
	remoteSem     chan struct{}
	remoteWG      sync.WaitGroup
}

type storeStats struct {
	hits, misses, corrupt atomic.Int64
	saves, saveErrors     atomic.Int64

	remoteHits, remoteMisses, remoteErrors atomic.Int64
	remoteSaves, remoteSaveErrors          atomic.Int64
	remoteSaveRetries, remoteSaveDropped   atomic.Int64
}

// Stats is a snapshot of a store's counters. Corrupt counts loads that found
// an entry but rejected it (parse, schema, key, or checksum failure); every
// corrupt load is also a miss. The Remote* counters cover the shared tier:
// RemoteErrors counts transport failures and corrupt remote payloads (each
// also a miss), and RemoteSaveErrors counts failed write-throughs (the local
// save still succeeded).
type Stats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Corrupt    int64 `json:"corrupt"`
	Saves      int64 `json:"saves"`
	SaveErrors int64 `json:"save_errors"`

	RemoteHits       int64 `json:"remote_hits,omitempty"`
	RemoteMisses     int64 `json:"remote_misses,omitempty"`
	RemoteErrors     int64 `json:"remote_errors,omitempty"`
	RemoteSaves      int64 `json:"remote_saves,omitempty"`
	RemoteSaveErrors int64 `json:"remote_save_errors,omitempty"`

	// RemoteSaveRetries counts async re-attempts of failed write-throughs;
	// RemoteSaveDropped counts write-throughs abandoned after the retry
	// budget (or because too many retriers were already in flight). A
	// dropped save only means the shared tier misses until someone
	// re-solves — never a wrong answer.
	RemoteSaveRetries int64 `json:"remote_save_retries,omitempty"`
	RemoteSaveDropped int64 `json:"remote_save_dropped,omitempty"`
}

// Stats returns a snapshot of the store's counters (zero value for nil).
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:              s.stats.hits.Load(),
		Misses:            s.stats.misses.Load(),
		Corrupt:           s.stats.corrupt.Load(),
		Saves:             s.stats.saves.Load(),
		SaveErrors:        s.stats.saveErrors.Load(),
		RemoteHits:        s.stats.remoteHits.Load(),
		RemoteMisses:      s.stats.remoteMisses.Load(),
		RemoteErrors:      s.stats.remoteErrors.Load(),
		RemoteSaves:       s.stats.remoteSaves.Load(),
		RemoteSaveErrors:  s.stats.remoteSaveErrors.Load(),
		RemoteSaveRetries: s.stats.remoteSaveRetries.Load(),
		RemoteSaveDropped: s.stats.remoteSaveDropped.Load(),
	}
}

// Dir returns the store's root directory ("" for nil).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// WithRemote layers a remote/shared tier behind the store and returns the
// store. Loads fall back to the remote on a local miss (populating the local
// tier); saves write through best-effort with a bounded async retry.
func (s *Store) WithRemote(r *Remote) *Store {
	if s != nil {
		s.withRemote(r)
	}
	return s
}

// RemoteOnly returns a store with no local directory: every load and save
// goes to the remote tier. For diskless workers sharing a coordinator's
// store. All the degradation guarantees hold — a dead remote is simply a
// store that always misses.
func RemoteOnly(r *Remote) *Store {
	s := &Store{}
	s.withRemote(r)
	return s
}

func (s *Store) withRemote(r *Remote) {
	s.remote = r
	if s.remoteRetries == 0 {
		s.remoteRetries = 3
	}
	if s.remoteBackoff.Base == 0 {
		s.remoteBackoff = retry.Schedule{Base: 50 * time.Millisecond, Cap: time.Second, Jitter: 0.2}
	}
	if s.remoteSem == nil {
		s.remoteSem = make(chan struct{}, 16)
	}
}

// WithRemoteRetry overrides the async write-through retry policy: at most
// maxRetries re-attempts per failed save, paced by backoff. maxRetries < 0
// disables retries entirely (the pre-retry fire-and-forget behavior).
func (s *Store) WithRemoteRetry(backoff retry.Schedule, maxRetries int) *Store {
	if s != nil {
		s.remoteRetries = maxRetries
		s.remoteBackoff = backoff
	}
	return s
}

// WithOnSave registers a hook observing every successful local write with its
// validated envelope bytes (the HA replication tap). Returns the store.
func (s *Store) WithOnSave(fn func(key string, envelope []byte)) *Store {
	if s != nil {
		s.onSave = fn
	}
	return s
}

// Flush waits for in-flight async remote saves to finish, bounded by ctx.
func (s *Store) Flush(ctx context.Context) error {
	if s == nil {
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.remoteWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Key derives a content address from parts: a SHA-256 over the parts with
// length framing (so part boundaries can't be shifted), hex-encoded. Callers
// put every input that determines the result into the parts — typically raw
// content bytes plus an options fingerprint plus a discriminator string.
func Key(parts ...[]byte) string {
	h := sha256.New()
	var frame [8]byte
	for _, p := range parts {
		n := len(p)
		for i := 0; i < 8; i++ {
			frame[i] = byte(n >> (8 * i))
		}
		h.Write(frame[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// envelope is the on-disk entry format.
type envelope struct {
	envelopeHead
	Payload json.RawMessage `json:"payload"`
}

// envelopeHead is the envelope's fields before the payload, in their JSON
// order.
type envelopeHead struct {
	Schema        string `json:"schema"`
	Key           string `json:"key"`
	PayloadSHA256 string `json:"payload_sha256"`
}

// path maps a key to its file: objects/<first two hex chars>/<rest>.json,
// the usual fan-out that keeps directories small.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, "objects", key[:2], key[2:]+".json")
}

// decodeEnvelope validates raw envelope bytes against key — parse, schema,
// key binding, payload checksum — and returns the payload. It is the single
// gate every entry passes on its way to a caller, whether it came from the
// local directory, a remote store, or an HTTP PUT.
func decodeEnvelope(key string, data []byte) (json.RawMessage, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	if env.Schema != Schema || env.Key != key {
		return nil, fmt.Errorf("schema %q key %q", env.Schema, env.Key)
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.PayloadSHA256 {
		return nil, fmt.Errorf("payload checksum mismatch")
	}
	return env.Payload, nil
}

// encodeEnvelope marshals v into the on-disk/wire envelope for key. The
// bytes are those json.Marshal writes for the envelope, but the payload is
// appended as it is: json.Marshal output is already compact and
// HTML-escaped, which is all that marshaling it again as a json.RawMessage
// would do, at the price of scanning it once more.
func encodeEnvelope(key string, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(payload)
	head, err := json.Marshal(envelopeHead{
		Schema:        Schema,
		Key:           key,
		PayloadSHA256: hex.EncodeToString(sum[:]),
	})
	if err != nil {
		return nil, err
	}
	const field = `,"payload":`
	out := make([]byte, 0, len(head)+len(field)+len(payload)) // head's brace closes out
	out = append(out, head[:len(head)-1]...)                  // without its closing brace
	out = append(out, field...)
	out = append(out, payload...)
	return append(out, '}'), nil
}

// Load looks key up and, on a hit, unmarshals the stored payload into v and
// returns true. The local directory is tried first; on a local miss a remote
// tier (if attached) is consulted and a remote hit is written through to the
// local tier. Every failure — absent entry, I/O error, network failure,
// corruption of any kind — returns false; the caller re-solves. ctx carries
// failpoint state for the store.load and store.remote chaos sites.
func (s *Store) Load(ctx context.Context, key string, v any) bool {
	if s == nil || len(key) < 3 {
		return false
	}
	if err := failpoint.Inject(ctx, "store.load"); err != nil {
		s.stats.misses.Add(1)
		return false
	}
	if s.dir != "" {
		// Any local read failure falls through to the remote tier (or a miss).
		if data, err := os.ReadFile(s.path(key)); err == nil {
			payload, derr := decodeEnvelope(key, data)
			if derr != nil {
				return s.corruptLoad(derr)
			}
			if err := json.Unmarshal(payload, v); err != nil {
				return s.corruptLoad(err)
			}
			s.stats.hits.Add(1)
			return true
		}
	}
	if s.remote != nil && s.loadRemote(ctx, key, v) {
		s.stats.hits.Add(1)
		return true
	}
	s.stats.misses.Add(1)
	return false
}

// loadRemote consults the remote tier. A validated hit is written through to
// the local directory (best effort) so the next load is local.
func (s *Store) loadRemote(ctx context.Context, key string, v any) bool {
	if err := failpoint.Inject(ctx, "store.remote"); err != nil {
		s.stats.remoteErrors.Add(1)
		return false
	}
	data, found, err := s.remote.get(ctx, key)
	if err != nil {
		s.stats.remoteErrors.Add(1)
		return false
	}
	if !found {
		s.stats.remoteMisses.Add(1)
		return false
	}
	payload, err := decodeEnvelope(key, data)
	if err != nil {
		// A lying or corrupt remote degrades to a miss, never an answer.
		s.stats.remoteErrors.Add(1)
		s.stats.corrupt.Add(1)
		return false
	}
	if err := json.Unmarshal(payload, v); err != nil {
		s.stats.remoteErrors.Add(1)
		s.stats.corrupt.Add(1)
		return false
	}
	s.stats.remoteHits.Add(1)
	if s.dir != "" {
		_ = s.writeEnvelope(key, data) // populate the local tier; failure is harmless
	}
	return true
}

// corruptLoad records a rejected entry and reports a miss.
func (s *Store) corruptLoad(error) bool {
	s.stats.corrupt.Add(1)
	s.stats.misses.Add(1)
	return false
}

// Save stores v under key atomically: marshal, write to a temp file in the
// final directory, rename into place. A Save error leaves either the old
// entry or no entry — never a torn one. With a remote tier attached, the
// entry is also written through best-effort: a remote failure is counted but
// never fails the Save (the shared tier can only be behind, not wrong).
// Saving to a nil store is a no-op. ctx carries failpoint state for the
// store.save and store.remote chaos sites.
func (s *Store) Save(ctx context.Context, key string, v any) error {
	if s == nil {
		return nil
	}
	if len(key) < 3 {
		return fmt.Errorf("store: key %q too short", key)
	}
	if err := failpoint.Inject(ctx, "store.save"); err != nil {
		s.stats.saveErrors.Add(1)
		return fmt.Errorf("store: save %s: %w", key[:8], err)
	}
	data, err := encodeEnvelope(key, v)
	if err != nil {
		s.stats.saveErrors.Add(1)
		return fmt.Errorf("store: marshal %s: %w", key[:8], err)
	}
	if s.dir != "" {
		if err := s.writeEnvelope(key, data); err != nil {
			s.stats.saveErrors.Add(1)
			return err
		}
		s.stats.saves.Add(1)
	}
	if s.onSave != nil {
		s.onSave(key, data)
	}
	s.saveRemote(ctx, key, data)
	return nil
}

// saveRemote writes envelope bytes through to the remote tier: one inline
// attempt, then — because a shared tier that silently stays cold makes every
// other node re-solve — a bounded async retry. The job's latency only ever
// pays for the inline attempt; retries ride a background goroutine (at most
// cap(remoteSem) at once) and a save still failing after the budget is
// dropped and counted, never surfaced as a job error.
func (s *Store) saveRemote(ctx context.Context, key string, data []byte) {
	if s.remote == nil {
		return
	}
	if s.remotePutOnce(ctx, key, data) {
		return
	}
	if s.remoteRetries < 0 {
		s.stats.remoteSaveDropped.Add(1)
		return
	}
	select {
	case s.remoteSem <- struct{}{}:
	default:
		s.stats.remoteSaveDropped.Add(1) // too many retriers already in flight
		return
	}
	s.remoteWG.Add(1)
	// The retry outlives the job (and its cancellation) but keeps its
	// failpoint scope, so chaos tests see the same fault the job saw.
	bg := context.WithoutCancel(ctx)
	go func() {
		defer func() { <-s.remoteSem; s.remoteWG.Done() }()
		for attempt := 0; attempt < s.remoteRetries; attempt++ {
			if err := s.remoteBackoff.Wait(bg, attempt); err != nil {
				break
			}
			s.stats.remoteSaveRetries.Add(1)
			if s.remotePutOnce(bg, key, data) {
				return
			}
		}
		s.stats.remoteSaveDropped.Add(1)
	}()
}

// remotePutOnce performs one write-through attempt, counting the outcome.
func (s *Store) remotePutOnce(ctx context.Context, key string, data []byte) bool {
	if err := failpoint.Inject(ctx, "store.remote"); err != nil {
		s.stats.remoteSaveErrors.Add(1)
		return false
	}
	if err := s.remote.put(ctx, key, data); err != nil {
		s.stats.remoteSaveErrors.Add(1)
		return false
	}
	s.stats.remoteSaves.Add(1)
	return true
}

// writeEnvelope atomically places validated envelope bytes at key's path.
func (s *Store) writeEnvelope(key string, data []byte) error {
	final := s.path(key)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(final), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// LoadRaw returns the validated envelope bytes stored under key, for serving
// the store over HTTP (the coordinator's GET /v1/store/{key}). Every failure
// reports absence.
func (s *Store) LoadRaw(ctx context.Context, key string) ([]byte, bool) {
	if s == nil || s.dir == "" || len(key) < 3 {
		return nil, false
	}
	if err := failpoint.Inject(ctx, "store.load"); err != nil {
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	if _, err := decodeEnvelope(key, data); err != nil {
		s.stats.corrupt.Add(1)
		return nil, false
	}
	return data, true
}

// SaveRaw validates envelope bytes against key and stores them atomically —
// the write half of serving the store over HTTP (PUT /v1/store/{key}). A
// client cannot plant a corrupt or mis-keyed entry: validation here is the
// same gate every local load applies.
func (s *Store) SaveRaw(ctx context.Context, key string, data []byte) error {
	if s == nil || s.dir == "" {
		return nil
	}
	if len(key) < 3 {
		return fmt.Errorf("store: key %q too short", key)
	}
	if err := failpoint.Inject(ctx, "store.save"); err != nil {
		s.stats.saveErrors.Add(1)
		return fmt.Errorf("store: save %s: %w", key[:8], err)
	}
	if _, err := decodeEnvelope(key, data); err != nil {
		s.stats.saveErrors.Add(1)
		return fmt.Errorf("store: rejected envelope for %s: %w", key[:8], err)
	}
	if err := s.writeEnvelope(key, data); err != nil {
		s.stats.saveErrors.Add(1)
		return err
	}
	s.stats.saves.Add(1)
	if s.onSave != nil {
		s.onSave(key, data)
	}
	return nil
}
