package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"slices"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/recfile"
)

// A campaign checkpoint is an append-only journal in the shared recfile
// grammar (internal/recfile): a header record binding the file to one
// campaign fingerprint, then one record per completed ("point"), refined
// ("refine") or quarantined ("quarantine") injection point. recfile owns
// the file discipline — temp-and-rename create, per-record CRC, torn-tail
// repair — so a crash can at worst leave one torn trailing record, while
// corruption anywhere before it is refused with an error naming the byte
// offset. Records are first-write-wins per (kind, index), like the
// distributed coordinator's WAL: a replayed append changes nothing.

// checkpointVersion identifies the journal's on-disk schema. Version 1
// journals were unframed JSONL; version 2 keyed sites and stacks by code
// address. Both are refused with ErrCheckpointVersion, never read.
const checkpointVersion = 3

// ErrCheckpointMismatch reports a checkpoint whose fingerprint does not
// match the campaign being run — a stale journal from a different app,
// configuration, seed or pruning setup must never be merged.
var ErrCheckpointMismatch = errors.New("checkpoint fingerprint mismatch")

// ErrCheckpointVersion reports a checkpoint journal written in a schema
// this build does not read.
var ErrCheckpointVersion = errors.New("unsupported checkpoint version")

// CampaignFingerprint identifies one campaign for checkpoint purposes: the
// application, its configuration, every option that shapes the injection
// space or the per-trial seeds, and the pruned point list itself.
func CampaignFingerprint(appName string, cfg apps.Config, opts Options, points []Point) string {
	o := opts.withDefaults()
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d|app=%s|ranks=%d|scale=%d|iters=%d|appseed=%d|", checkpointVersion,
		appName, cfg.Ranks, cfg.Scale, cfg.Iters, cfg.Seed)
	fmt.Fprintf(h, "trials=%d|seed=%d|policy=%d|sem=%t|ctx=%t|ml=%t|",
		o.TrialsPerPoint, o.Seed, o.Policy, o.Pruning.Semantic, o.Pruning.Context, o.ML.Pruning)
	fmt.Fprintf(h, "acc=%g|batch=%d|mintrain=%d|levels=%d|trees=%d|depth=%d|",
		o.AccuracyThreshold, o.ML.Batch, o.ML.MinTrain, o.Levels, o.ForestTrees, o.ForestDepth)
	fmt.Fprintf(h, "adaptive=%t|conf=%g|", o.Adaptive.Enabled, o.Confidence)
	// The network fault domain and algorithm variant are appended only when
	// set, so fingerprints of classic campaigns (and their existing
	// checkpoints) are unchanged.
	if cfg.Algorithm != "" {
		fmt.Fprintf(h, "alg=%s|", cfg.Algorithm)
	}
	if o.Topology != "" || len(o.Network.Plan) > 0 {
		fmt.Fprintf(h, "topo=%s|netplan=%s|", o.Topology, fault.NetPlanString(o.Network.Plan))
	}
	fmt.Fprintf(h, "npoints=%d|", len(points))
	for _, p := range points {
		fmt.Fprintf(h, "%d/%s/%d/%d/%d/%d|", p.Rank, p.SiteName, int(p.Type), p.Invocation, p.NInv, int(p.Phase))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

type ckptHeader struct {
	Kind        string `json:"kind"` // "header"
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	App         string `json:"app"`
	Ranks       int    `json:"ranks"`
	Total       int    `json:"totalPoints"` // points scheduled for injection
}

// ckptPoint is a "point" record — a completed point's phase-1 result —
// or a "refine" record: the same point after the adaptive refinement pass
// extended its trial list. A resumed campaign trains its learn loop on the
// point record's trials and restores the refined ones on top.
type ckptPoint struct {
	Kind   string          `json:"kind"` // "point" or "refine"
	Index  int             `json:"index"`
	Result pointResultJSON `json:"result"`
}

type ckptQuarantine struct {
	Kind     string    `json:"kind"` // "quarantine"
	Index    int       `json:"index"`
	Point    pointJSON `json:"point"`
	Attempts int       `json:"attempts"`
	Err      string    `json:"error"`
}

// QuarantinedPoint is a poison point: one that repeatedly wedged or crashed
// the injection harness itself (not the simulated application) and was
// withdrawn from the campaign so the remaining points could complete.
type QuarantinedPoint struct {
	Point    Point
	Index    int    // position in the campaign's injection order
	Attempts int    // harness attempts before giving up
	Err      string // last harness failure
}

// PointRecord is one completed injection point in journal form — the unit
// a checkpoint journal stores and a worker shard streams to its
// coordinator.
type PointRecord struct {
	Index  int
	Result PointResult
}

// EncodeJournalPoint renders one completed point as a checkpoint-journal
// "point" payload — the wire form worker shards stream to the
// coordinator, identical to what AppendResult journals.
func EncodeJournalPoint(rec PointRecord) ([]byte, error) {
	return json.Marshal(ckptPoint{Kind: "point", Index: rec.Index, Result: pointResultToJSON(rec.Result)})
}

// DecodeJournalPoint parses one "point" payload, validating every
// enum-valued field; malformed input returns a descriptive error, never a
// panic.
func DecodeJournalPoint(payload []byte) (PointRecord, error) {
	return decodeJournalPoint(payload, "point")
}

func decodeJournalPoint(payload []byte, kind string) (PointRecord, error) {
	var rec ckptPoint
	if err := json.Unmarshal(payload, &rec); err != nil {
		return PointRecord{}, fmt.Errorf("journal %s record: %w", kind, err)
	}
	if rec.Kind != kind {
		return PointRecord{}, fmt.Errorf("journal record kind %q, want %q", rec.Kind, kind)
	}
	if rec.Index < 0 {
		return PointRecord{}, fmt.Errorf("journal %s record: negative index %d", kind, rec.Index)
	}
	pr, err := pointResultFromJSON(rec.Result)
	if err != nil {
		return PointRecord{}, fmt.Errorf("journal %s record index %d: %w", kind, rec.Index, err)
	}
	return PointRecord{Index: rec.Index, Result: pr}, nil
}

// EncodeJournalQuarantine renders one poison point as a checkpoint-journal
// "quarantine" payload.
func EncodeJournalQuarantine(q QuarantinedPoint) ([]byte, error) {
	return json.Marshal(journalQuarantine(q))
}

func journalQuarantine(q QuarantinedPoint) ckptQuarantine {
	return ckptQuarantine{Kind: "quarantine", Index: q.Index,
		Point: pointToJSON(q.Point), Attempts: q.Attempts, Err: q.Err}
}

// DecodeJournalQuarantine parses one "quarantine" payload.
func DecodeJournalQuarantine(payload []byte) (QuarantinedPoint, error) {
	var rec ckptQuarantine
	if err := json.Unmarshal(payload, &rec); err != nil {
		return QuarantinedPoint{}, fmt.Errorf("journal quarantine record: %w", err)
	}
	if rec.Kind != "quarantine" {
		return QuarantinedPoint{}, fmt.Errorf("journal record kind %q, want %q", rec.Kind, "quarantine")
	}
	if rec.Index < 0 {
		return QuarantinedPoint{}, fmt.Errorf("journal quarantine record: negative index %d", rec.Index)
	}
	return QuarantinedPoint{Point: pointFromJSON(rec.Point), Index: rec.Index,
		Attempts: rec.Attempts, Err: rec.Err}, nil
}

// CheckpointState is the replayable content of a checkpoint journal.
type CheckpointState struct {
	Header ckptHeader
	// Results holds each restored point, refined trials included.
	Results     map[int]PointResult
	Quarantined map[int]QuarantinedPoint
	// BaseTrials is each restored point's phase-1 trial count: the length
	// of its "point" record. A "refine" record extends Results past it.
	BaseTrials map[int]int
	// TornTail reports that a torn trailing record (interrupted append)
	// was discarded while loading.
	TornTail bool

	contents *recfile.Contents
}

// Checkpoint is an open campaign journal accepting appends. Methods are
// safe for concurrent use by the supervisor's point workers.
type Checkpoint struct {
	log *recfile.Log
}

// Path returns the journal's file path.
func (c *Checkpoint) Path() string { return c.log.Path() }

// CreateCheckpoint atomically creates a fresh journal at path holding only
// its header, and opens it for appends.
func CreateCheckpoint(path, fingerprint, app string, ranks, total int) (*Checkpoint, error) {
	log, err := recfile.Create(path, ckptHeader{Kind: "header", Version: checkpointVersion,
		Fingerprint: fingerprint, App: app, Ranks: ranks, Total: total})
	if err != nil {
		return nil, err
	}
	return &Checkpoint{log: log}, nil
}

// LoadCheckpointState reads and validates a journal, rejecting one whose
// fingerprint does not match. A torn trailing record (the signature of a
// crash mid-append) is discarded; corruption anywhere else, and any record
// whose index lies outside the header's point count, is an error naming
// the record's byte offset.
func LoadCheckpointState(path, fingerprint string) (*CheckpointState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) > 0 && data[0] == '{' {
		return nil, fmt.Errorf("checkpoint %s is an unframed version 1 journal; delete it and rerun the campaign: %w",
			path, ErrCheckpointVersion)
	}
	st, err := loadCheckpoint(data, fingerprint)
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return st, nil
}

func loadCheckpoint(data []byte, fingerprint string) (*CheckpointState, error) {
	c, err := recfile.Parse(data)
	if err != nil {
		return nil, err
	}
	if len(c.Records) == 0 || c.Records[0].Kind != "header" {
		return nil, errors.New("missing header record")
	}
	st := &CheckpointState{
		Results:     make(map[int]PointResult),
		Quarantined: make(map[int]QuarantinedPoint),
		BaseTrials:  make(map[int]int),
		TornTail:    c.TornTail,
		contents:    c,
	}
	h := &st.Header
	if err := c.Records[0].Decode(h); err != nil {
		return nil, err
	}
	if h.Version != checkpointVersion {
		return nil, fmt.Errorf("version %d (want %d): %w", h.Version, checkpointVersion, ErrCheckpointVersion)
	}
	if h.Fingerprint != fingerprint {
		return nil, fmt.Errorf("written by a different campaign (app %q, fingerprint %s, want %s): %w",
			h.App, h.Fingerprint, fingerprint, ErrCheckpointMismatch)
	}
	inRange := func(r recfile.Record, idx int) error {
		if idx < 0 || idx >= h.Total {
			return r.Errorf("%s index %d outside campaign of %d points", r.Kind, idx, h.Total)
		}
		return nil
	}
	for _, r := range c.Records[1:] {
		switch r.Kind {
		case "point", "refine":
			rec, err := decodeJournalPoint(r.Payload, r.Kind)
			if err != nil {
				return nil, r.Errorf("%w", err)
			}
			if err := inRange(r, rec.Index); err != nil {
				return nil, err
			}
			if err := st.restore(r, rec); err != nil {
				return nil, err
			}
		case "quarantine":
			q, err := DecodeJournalQuarantine(r.Payload)
			if err != nil {
				return nil, r.Errorf("%w", err)
			}
			if err := inRange(r, q.Index); err != nil {
				return nil, err
			}
			if _, dup := st.Quarantined[q.Index]; !dup {
				st.Quarantined[q.Index] = q
			}
		case "header":
			return nil, r.Errorf("unexpected second header")
		default:
			return nil, r.Errorf("unknown record kind %q", r.Kind)
		}
	}
	return st, nil
}

// restore applies one "point" or "refine" record, first write wins. A
// refine record must follow its point record and extend that point's
// trial list.
func (st *CheckpointState) restore(r recfile.Record, rec PointRecord) error {
	base, have := st.BaseTrials[rec.Index]
	if r.Kind == "point" {
		if !have {
			st.Results[rec.Index] = rec.Result
			st.BaseTrials[rec.Index] = len(rec.Result.Trials)
		}
		return nil
	}
	if !have {
		return r.Errorf("refine record for index %d precedes its point record", rec.Index)
	}
	prior := st.Results[rec.Index]
	if len(rec.Result.Trials) <= base || !slices.Equal(rec.Result.Trials[:base], prior.Trials[:base]) {
		return r.Errorf("refine record for index %d does not extend its point record's %d trials", rec.Index, base)
	}
	if len(prior.Trials) == base {
		st.Results[rec.Index] = rec.Result
	}
	return nil
}

// OpenCheckpoint loads an existing journal (validating its fingerprint)
// and reopens it for appends, truncating a torn tail first.
func OpenCheckpoint(path, fingerprint string) (*Checkpoint, *CheckpointState, error) {
	st, err := LoadCheckpointState(path, fingerprint)
	if err != nil {
		return nil, nil, err
	}
	log, err := recfile.Reopen(path, st.contents)
	if err != nil {
		return nil, nil, err
	}
	return &Checkpoint{log: log}, st, nil
}

// AppendResult journals one completed injection point's phase-1 result.
func (c *Checkpoint) AppendResult(index int, pr PointResult) error {
	return c.log.Append(ckptPoint{Kind: "point", Index: index, Result: pointResultToJSON(pr)})
}

// AppendRefine journals a point the refinement pass extended; pr is the
// full refined result.
func (c *Checkpoint) AppendRefine(index int, pr PointResult) error {
	return c.log.Append(ckptPoint{Kind: "refine", Index: index, Result: pointResultToJSON(pr)})
}

// AppendQuarantine journals one poison point.
func (c *Checkpoint) AppendQuarantine(q QuarantinedPoint) error {
	return c.log.Append(journalQuarantine(q))
}

// Sync flushes journal appends to stable storage.
func (c *Checkpoint) Sync() error { return c.log.Sync() }

// Close syncs and closes the journal. The file stays on disk: deleting it
// after a successful campaign is the caller's decision.
func (c *Checkpoint) Close() error { return c.log.Close() }
