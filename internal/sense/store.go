package sense

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/fastfit/fastfit/internal/recfile"
)

// The feature store is a shared recfile log (internal/recfile), like the
// checkpoint journal and the coordinator WAL: one CRC-framed JSON record
// per line, created via temp-and-rename, appended in whole-line writes. A
// crash can at worst leave one torn trailing line, which opening discards
// and truncates away; corruption anywhere before the tail is an error
// naming the byte offset, never silently skipped. Records are keyed by
// (campaign fingerprint, index) with first-write-wins dedup, so
// re-ingesting a campaign is a no-op.

// storeVersion identifies the store's on-disk schema.
const storeVersion = 1

// StoreFileName is the store's file name inside its directory.
const StoreFileName = "sense.jsonl"

// storeHeader is the first record of a store file.
type storeHeader struct {
	Kind    string `json:"kind"` // "sense-store"
	Version int    `json:"version"`
}

// storeRecord is one accumulated observation line.
type storeRecord struct {
	Kind        string `json:"kind"` // "record"
	Fingerprint string `json:"fingerprint"`
	Index       int    `json:"index"`
	Record      Record `json:"record"`
}

// StoreState is the replayable content of a feature store file.
type StoreState struct {
	// Records holds the accumulated observations in file order (deduped:
	// the first write of each (fingerprint, index) wins).
	Records []Record
	// Campaigns maps each ingested campaign fingerprint to its record count.
	Campaigns map[string]int
	// TornTail reports that a torn trailing line (interrupted append) was
	// discarded while loading.
	TornTail bool

	contents *recfile.Contents
	seen     map[string]bool // "fingerprint/index" dedup keys
}

// Store is an open feature store accepting appends.
type Store struct {
	log *recfile.Log

	mu sync.Mutex // guards st, and orders each append with its dedup key
	st *StoreState
}

// OpenStore opens the feature store in dir, creating it (directory
// included) if absent. An existing store is loaded in full — repairing a
// torn tail by truncation — before the file is reopened for appends.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating sense store dir %s: %w", dir, err)
	}
	path := filepath.Join(dir, StoreFileName)
	if _, err := os.Stat(path); os.IsNotExist(err) {
		log, err := recfile.Create(path, storeHeader{Kind: "sense-store", Version: storeVersion})
		if err == nil {
			err = log.Close()
		}
		if err != nil {
			return nil, err
		}
	}
	st, err := LoadStoreState(path)
	if err != nil {
		return nil, err
	}
	log, err := recfile.Reopen(path, st.contents)
	if err != nil {
		return nil, err
	}
	st.contents = nil // the store lives on; its records are already in st
	return &Store{log: log, st: st}, nil
}

// LoadStoreState reads and validates a feature store file. A torn trailing
// line is discarded and reported via TornTail; corruption anywhere else is
// an error naming the record's byte offset.
func LoadStoreState(path string) (*StoreState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st, err := loadStoreState(data)
	if err != nil {
		return nil, fmt.Errorf("sense store %s: %w", path, err)
	}
	return st, nil
}

func loadStoreState(data []byte) (*StoreState, error) {
	c, err := recfile.Parse(data)
	if err != nil {
		return nil, err
	}
	if len(c.Records) == 0 || c.Records[0].Kind != "sense-store" {
		return nil, errors.New("missing header")
	}
	var h storeHeader
	if err := c.Records[0].Decode(&h); err != nil {
		return nil, err
	}
	if h.Version != storeVersion {
		return nil, fmt.Errorf("unsupported version %d (want %d)", h.Version, storeVersion)
	}
	st := &StoreState{
		Campaigns: map[string]int{},
		TornTail:  c.TornTail,
		contents:  c,
		seen:      map[string]bool{},
	}
	for _, r := range c.Records[1:] {
		switch r.Kind {
		case "record":
			var rec storeRecord
			if err := r.Decode(&rec); err != nil {
				return nil, err
			}
			if rec.Fingerprint == "" {
				return nil, r.Errorf("missing fingerprint")
			}
			if rec.Index < 0 {
				return nil, r.Errorf("negative index %d", rec.Index)
			}
			if err := rec.Record.validate(); err != nil {
				return nil, r.Errorf("%w", err)
			}
			// First write wins, like the WAL's record store: a replayed
			// append changes nothing.
			key := fmt.Sprintf("%s/%d", rec.Fingerprint, rec.Index)
			if st.seen[key] {
				continue
			}
			st.seen[key] = true
			st.Records = append(st.Records, rec.Record)
			st.Campaigns[rec.Fingerprint]++
		case "sense-store":
			return nil, r.Errorf("unexpected second header")
		default:
			return nil, r.Errorf("unknown record kind %q", r.Kind)
		}
	}
	return st, nil
}

// Path returns the store's file path.
func (s *Store) Path() string { return s.log.Path() }

// Records returns a copy of the accumulated observations.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.st.Records...)
}

// Apps returns the distinct app ids among the stored records, sorted.
func (s *Store) Apps() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := map[string]bool{}
	for _, r := range s.st.Records {
		set[r.App] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Campaigns returns the number of distinct campaign fingerprints ingested.
func (s *Store) Campaigns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.st.Campaigns)
}

// AddCampaign appends a finished campaign's records under its fingerprint,
// skipping (fingerprint, index) pairs already present — re-ingesting a
// campaign is a no-op. Records that fail validation are an error; nothing
// is appended past the first bad one.
func (s *Store) AddCampaign(fingerprint string, recs []Record) (added int, err error) {
	if fingerprint == "" {
		return 0, fmt.Errorf("sense store %s: empty campaign fingerprint", s.Path())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, rec := range recs {
		if err := rec.validate(); err != nil {
			return added, fmt.Errorf("sense store %s: campaign %s record %d: %w", s.Path(), fingerprint, i, err)
		}
		key := fmt.Sprintf("%s/%d", fingerprint, i)
		if s.st.seen[key] {
			continue
		}
		if err := s.log.Append(storeRecord{Kind: "record", Fingerprint: fingerprint, Index: i, Record: rec}); err != nil {
			return added, err
		}
		s.st.seen[key] = true
		s.st.Records = append(s.st.Records, rec)
		s.st.Campaigns[fingerprint]++
		added++
	}
	return added, nil
}

// Sync flushes appends to stable storage.
func (s *Store) Sync() error { return s.log.Sync() }

// Close syncs and closes the store. The file stays on disk.
func (s *Store) Close() error { return s.log.Close() }

// Fingerprint derives a stable campaign key from the app name and the
// campaign's records — the store-side analogue of core.CampaignFingerprint,
// computable from an ingested campaign JSON alone.
func Fingerprint(app string, recs []Record) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "app=%s\n", app)
	for i, r := range recs {
		payload, _ := json.Marshal(r)
		fmt.Fprintf(h, "%d %s\n", i, payload)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
