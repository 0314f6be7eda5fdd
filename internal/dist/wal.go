package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/recfile"
)

// The coordinator's write-ahead log makes the control plane crash-durable:
// the campaign spec (with its plan fingerprint) is written when the WAL is
// opened, and every applied journal batch, quarantine and frontier advance
// is appended before it is acknowledged, so SIGKILLing the coordinator at
// any instant loses at most work that was never acked — work the lease
// protocol re-measures byte-identically anyway. Leases are deliberately
// NOT logged: they are soft state (a relative-TTL promise), so recovery
// starts with zero leases and workers simply re-lease, the same path as a
// TTL expiry.
//
// The on-disk format is the shared recfile log (internal/recfile), like
// the checkpoint journal: one CRC-framed JSON record per line, created via
// temp-and-rename, appended in whole-line writes. A crash can at worst
// leave one torn trailing line, which loading discards and OpenWAL
// truncates away; corruption anywhere before the tail is reported as an
// error naming the byte offset, never silently skipped.

// walVersion identifies the WAL's on-disk schema.
const walVersion = 1

// WALFileName is the log's file name inside a campaign store directory.
const WALFileName = "wal.jsonl"

// ErrCampaignMerged reports a WAL whose campaign already merged: there is
// nothing to recover, the result was already produced and persisted.
var ErrCampaignMerged = errors.New("campaign already merged")

// walOpen is the first record: the campaign this log belongs to.
type walOpen struct {
	Kind    string       `json:"kind"` // "open"
	Version int          `json:"version"`
	Spec    CampaignSpec `json:"spec"`
}

// walEpoch marks one process generation opening the log. Counting them
// gives each generation a distinct lease-ID namespace, so a lease granted
// before a crash can never collide with one granted after recovery.
type walEpoch struct {
	Kind  string `json:"kind"` // "epoch"
	Epoch int    `json:"epoch"`
}

// walBatch is one applied journal batch: the newly accepted records and
// quarantines in checkpoint-journal line form (core.EncodeJournalPoint /
// core.EncodeJournalQuarantine), exactly as the shard streamed them.
type walBatch struct {
	Kind        string            `json:"kind"` // "batch"
	Lease       string            `json:"lease,omitempty"`
	Worker      string            `json:"worker,omitempty"`
	Records     []json.RawMessage `json:"records,omitempty"`
	Quarantines []json.RawMessage `json:"quarantines,omitempty"`
}

// walFrontier records an ML lease-frontier advance. Recovery recomputes
// the frontier from the records (it is a pure function of them), so these
// records are an audit trail, not load-bearing state — but they make a WAL
// humanly readable as a campaign history.
type walFrontier struct {
	Kind   string `json:"kind"` // "frontier"
	Needed int    `json:"needed"`
	Done   bool   `json:"done"`
}

// walMerged marks the campaign's deterministic merge as completed and
// persisted; recovery refuses the log with ErrCampaignMerged.
type walMerged struct {
	Kind string `json:"kind"` // "merged"
}

// WALState is the replayable content of a coordinator WAL.
type WALState struct {
	Spec        CampaignSpec
	Records     map[int]core.PointRecord
	Quarantined map[int]core.QuarantinedPoint
	// Epoch counts the process generations that opened this log (the
	// "epoch" records); the next generation is Epoch+1.
	Epoch int
	// Merged reports the campaign's merge completed before the last exit.
	Merged bool
	// TornTail reports that a torn trailing line (interrupted append) was
	// discarded while loading.
	TornTail bool

	contents *recfile.Contents
}

// WAL is an open coordinator write-ahead log accepting appends.
type WAL struct {
	log *recfile.Log
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.log.Path() }

// CreateWAL starts a fresh log in dir (created if needed): the open record
// and the first epoch record are written to a temporary file and renamed
// into place, so a half-written log is never observed under the final
// path. It refuses to overwrite an existing log — recover it instead.
func CreateWAL(dir string, spec CampaignSpec) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating campaign store %s: %w", dir, err)
	}
	path := filepath.Join(dir, WALFileName)
	if _, err := os.Stat(path); err == nil {
		return nil, fmt.Errorf("wal %s already exists: recover the campaign instead of re-opening it fresh", path)
	}
	log, err := recfile.Create(path, walOpen{Kind: "open", Version: walVersion, Spec: spec},
		walEpoch{Kind: "epoch", Epoch: 1})
	if err != nil {
		return nil, err
	}
	return &WAL{log: log}, nil
}

// LoadWALState reads and validates a coordinator log. A torn trailing line
// (the signature of a crash mid-append) is discarded and reported via
// TornTail; corruption anywhere else — a failed checksum, a length
// mismatch, a malformed prefix, an invalid payload — is an error naming
// the record's byte offset.
func LoadWALState(path string) (*WALState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st, err := loadWALState(data)
	if err != nil {
		return nil, fmt.Errorf("wal %s: %w", path, err)
	}
	return st, nil
}

func loadWALState(data []byte) (*WALState, error) {
	c, err := recfile.Parse(data)
	if err != nil {
		return nil, err
	}
	if len(c.Records) == 0 || c.Records[0].Kind != "open" {
		return nil, errors.New("missing open record")
	}
	st := &WALState{
		Records:     map[int]core.PointRecord{},
		Quarantined: map[int]core.QuarantinedPoint{},
		TornTail:    c.TornTail,
		contents:    c,
	}
	var open walOpen
	if err := c.Records[0].Decode(&open); err != nil {
		return nil, err
	}
	if open.Version != walVersion {
		return nil, fmt.Errorf("unsupported version %d (want %d)", open.Version, walVersion)
	}
	if st.Spec, err = DecodeCampaignSpec(payloadOf(open.Spec)); err != nil {
		return nil, c.Records[0].Errorf("%w", err)
	}
	inRange := func(r recfile.Record, what string, idx int) error {
		if idx >= st.Spec.Points {
			return r.Errorf("%s index %d outside campaign of %d points", what, idx, st.Spec.Points)
		}
		return nil
	}
	for _, r := range c.Records[1:] {
		switch r.Kind {
		case "epoch":
			var rec walEpoch
			if err := r.Decode(&rec); err != nil {
				return nil, err
			}
			if rec.Epoch <= st.Epoch {
				return nil, r.Errorf("epoch %d does not advance past %d", rec.Epoch, st.Epoch)
			}
			st.Epoch = rec.Epoch
		case "batch":
			var rec walBatch
			if err := r.Decode(&rec); err != nil {
				return nil, err
			}
			for j, line := range rec.Records {
				pr, err := core.DecodeJournalPoint(line)
				if err != nil {
					return nil, r.Errorf("batch record %d: %w", j, err)
				}
				if err := inRange(r, "point", pr.Index); err != nil {
					return nil, err
				}
				// First write wins, like the coordinator's record store: a
				// duplicated batch (replayed append) changes nothing.
				if _, dup := st.Records[pr.Index]; !dup {
					st.Records[pr.Index] = pr
				}
			}
			for j, line := range rec.Quarantines {
				q, err := core.DecodeJournalQuarantine(line)
				if err != nil {
					return nil, r.Errorf("batch quarantine %d: %w", j, err)
				}
				if err := inRange(r, "quarantine", q.Index); err != nil {
					return nil, err
				}
				if _, dup := st.Quarantined[q.Index]; !dup {
					st.Quarantined[q.Index] = q
				}
			}
		case "frontier":
			var rec walFrontier
			if err := r.Decode(&rec); err != nil {
				return nil, err
			}
			if rec.Needed < 0 || rec.Needed > st.Spec.Points {
				return nil, r.Errorf("frontier %d outside campaign of %d points", rec.Needed, st.Spec.Points)
			}
		case "merged":
			st.Merged = true
		case "open":
			return nil, r.Errorf("unexpected second open record")
		default:
			return nil, r.Errorf("unknown record kind %q", r.Kind)
		}
	}
	if st.Epoch == 0 {
		return nil, errors.New("missing epoch record")
	}
	return st, nil
}

// payloadOf round-trips a spec through JSON so LoadWALState applies the
// same validation a network-received spec gets.
func payloadOf(spec CampaignSpec) []byte {
	data, err := json.Marshal(spec)
	if err != nil {
		return []byte("null")
	}
	return data
}

// OpenWAL loads an existing log from dir, repairs a torn tail, stamps the
// next epoch and reopens the file for appends. The returned state is what
// recovery replays; the returned WAL accepts the new generation's appends.
func OpenWAL(dir string) (*WAL, *WALState, error) {
	path := filepath.Join(dir, WALFileName)
	st, err := LoadWALState(path)
	if err != nil {
		return nil, nil, err
	}
	log, err := recfile.Reopen(path, st.contents)
	if err != nil {
		return nil, nil, err
	}
	w := &WAL{log: log}
	st.Epoch++
	if err := w.log.Append(walEpoch{Kind: "epoch", Epoch: st.Epoch}); err != nil {
		log.Close()
		return nil, nil, err
	}
	return w, st, nil
}

// AppendBatch logs one applied journal batch: only the newly accepted
// records and quarantines, in the checkpoint-journal line form the shard
// streamed. Called before the batch is acknowledged to the shard.
func (w *WAL) AppendBatch(leaseID, worker string, recs []core.PointRecord, quars []core.QuarantinedPoint) error {
	b := walBatch{Kind: "batch", Lease: leaseID, Worker: worker}
	for _, rec := range recs {
		line, err := core.EncodeJournalPoint(rec)
		if err != nil {
			return fmt.Errorf("wal %s: encoding point %d: %w", w.Path(), rec.Index, err)
		}
		b.Records = append(b.Records, line)
	}
	for _, q := range quars {
		line, err := core.EncodeJournalQuarantine(q)
		if err != nil {
			return fmt.Errorf("wal %s: encoding quarantine %d: %w", w.Path(), q.Index, err)
		}
		b.Quarantines = append(b.Quarantines, line)
	}
	return w.log.Append(b)
}

// AppendFrontier logs an ML lease-frontier advance.
func (w *WAL) AppendFrontier(needed int, done bool) error {
	return w.log.Append(walFrontier{Kind: "frontier", Needed: needed, Done: done})
}

// AppendMerged marks the campaign merged; a later recovery refuses the log
// with ErrCampaignMerged instead of re-serving a finished campaign.
func (w *WAL) AppendMerged() error {
	return w.log.Append(walMerged{Kind: "merged"})
}

// Sync flushes appends to stable storage.
func (w *WAL) Sync() error { return w.log.Sync() }

// Close syncs and closes the log. The file stays on disk.
func (w *WAL) Close() error { return w.log.Close() }
