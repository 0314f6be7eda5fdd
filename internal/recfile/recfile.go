// Package recfile is the repository's one durable log: the length-prefixed,
// checksummed record-line grammar and the file discipline around it, shared
// by the campaign checkpoint journal (internal/core), the distributed
// coordinator's write-ahead log (internal/dist) and the cross-campaign
// sense feature store and model files (internal/sense). One JSON record per
// line, each line a fixed-width hex length prefix, a CRC32 of the payload
// and the payload itself:
//
//	llllllll cccccccc {payload}\n
//
// Every payload is a JSON object whose "kind" field names its record type;
// each format keeps only its record schema and its dispatch on that kind.
// Logs are created whole via write-to-temp-then-rename, so a half-created
// log is never observed under its final path. Appends are single writes of
// whole lines, so a crash can at worst leave one torn trailing line, which
// Parse reports and Reopen truncates away; a checksum, length or payload
// failure anywhere before the tail is real corruption, reported as an
// error naming the record's byte offset and never silently skipped.
package recfile

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// prefixLen is the byte length of "llllllll cccccccc " — two fixed-width
// lowercase-hex fields and their separating spaces.
const prefixLen = 18

// EncodeLine renders one payload as a complete record line, trailing
// newline included.
func EncodeLine(payload []byte) []byte {
	line := make([]byte, 0, len(payload)+prefixLen+1)
	line = fmt.Appendf(line, "%08x %08x ", len(payload), crc32.ChecksumIEEE(payload))
	line = append(line, payload...)
	return append(line, '\n')
}

// ParseLine validates one complete line (without its newline) and returns
// the payload.
func ParseLine(line string) ([]byte, error) {
	if len(line) < prefixLen {
		return nil, fmt.Errorf("short record prefix (%d bytes)", len(line))
	}
	if line[8] != ' ' || line[17] != ' ' {
		return nil, fmt.Errorf("malformed length/checksum prefix %q", line[:prefixLen])
	}
	n, err := strconv.ParseUint(line[:8], 16, 32)
	if err != nil {
		return nil, fmt.Errorf("malformed length prefix %q", line[:8])
	}
	sum, err := strconv.ParseUint(line[9:17], 16, 32)
	if err != nil {
		return nil, fmt.Errorf("malformed checksum prefix %q", line[9:17])
	}
	payload := line[prefixLen:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("payload is %d bytes, record declares %d", len(payload), n)
	}
	if got := crc32.ChecksumIEEE([]byte(payload)); uint64(got) != sum {
		return nil, fmt.Errorf("checksum mismatch: payload sums to %08x, record declares %08x", got, sum)
	}
	return []byte(payload), nil
}

// Split divides a log's bytes into its complete lines (newlines stripped,
// not yet validated — run each through ParseLine). A well-formed log ends
// with "\n"; any bytes after the final newline are a torn final append,
// reported via tornTail and excluded from the returned lines. validLen is
// the byte length up to and including the last complete line — what an
// opener truncates a torn log to before appending.
func Split(data []byte) (lines []string, tornTail bool, validLen int64) {
	lines = strings.Split(string(data), "\n")
	tornTail = lines[len(lines)-1] != ""
	validLen = int64(len(data))
	if tornTail {
		validLen -= int64(len(lines[len(lines)-1]))
	}
	return lines[:len(lines)-1], tornTail, validLen
}

// Record is one validated record of a log.
type Record struct {
	N       int    // 1-based position in the log
	Offset  int64  // byte offset of the record's line
	Kind    string // the payload's "kind" field
	Payload []byte // the JSON payload
}

// Errorf returns an error that names the record and its byte offset.
func (r Record) Errorf(format string, args ...any) error {
	return fmt.Errorf("record %d at offset %d: %w", r.N, r.Offset, fmt.Errorf(format, args...))
}

// Decode unmarshals the payload into v; a failure names the record.
func (r Record) Decode(v any) error {
	if err := json.Unmarshal(r.Payload, v); err != nil {
		return r.Errorf("corrupt %s record: %w", r.Kind, err)
	}
	return nil
}

// Contents is the validated content of a log.
type Contents struct {
	Records []Record
	// TornTail reports that a torn trailing line (an interrupted append)
	// was excluded from Records.
	TornTail bool
	// validLen is the byte length up to and including the last complete
	// line; Reopen truncates a torn tail to it.
	validLen int64
}

// Parse validates a log's bytes: every complete line must carry a sound
// prefix and checksum around a JSON object payload.
func Parse(data []byte) (*Contents, error) {
	if len(data) == 0 {
		return nil, errors.New("empty file")
	}
	lines, torn, validLen := Split(data)
	c := &Contents{Records: make([]Record, 0, len(lines)), TornTail: torn, validLen: validLen}
	offset := int64(0)
	for i, line := range lines {
		rec := Record{N: i + 1, Offset: offset}
		offset += int64(len(line)) + 1
		payload, err := ParseLine(line)
		if err != nil {
			return nil, rec.Errorf("%w", err)
		}
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(payload, &kind); err != nil {
			return nil, rec.Errorf("corrupt payload: %w", err)
		}
		rec.Kind, rec.Payload = kind.Kind, payload
		c.Records = append(c.Records, rec)
	}
	return c, nil
}

// Encode renders records as JSON record lines.
func Encode(records ...any) ([]byte, error) {
	var out []byte
	for _, v := range records {
		payload, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("encoding %T record: %w", v, err)
		}
		out = append(out, EncodeLine(payload)...)
	}
	return out, nil
}

// WriteFile atomically replaces path with data, a whole log of record
// lines (see Encode): it is written and synced to a temporary file in the
// same directory, which is then renamed into place.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("creating %s: %w", path, err)
	}
	return nil
}

// Log is an open log accepting appends. Its methods are safe for
// concurrent use.
type Log struct {
	path string

	mu sync.Mutex
	f  *os.File
}

// Create atomically creates the log at path holding records (see
// WriteFile) and opens it for appends.
func Create(path string, records ...any) (*Log, error) {
	data, err := Encode(records...)
	if err != nil {
		return nil, err
	}
	if err := WriteFile(path, data); err != nil {
		return nil, err
	}
	return openAppend(path)
}

// Reopen opens the log at path, whose parsed content is c, for appends,
// first truncating a torn tail so new records start on a fresh line.
func Reopen(path string, c *Contents) (*Log, error) {
	if c.TornTail {
		if err := os.Truncate(path, c.validLen); err != nil {
			return nil, fmt.Errorf("repairing %s: %w", path, err)
		}
	}
	return openAppend(path)
}

func openAppend(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("reopening %s: %w", path, err)
	}
	return &Log{path: path, f: f}, nil
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Append writes records as whole lines in a single write.
func (l *Log) Append(records ...any) error {
	data, err := Encode(records...)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("%s: already closed", l.path)
	}
	if _, err := l.f.Write(data); err != nil {
		return fmt.Errorf("appending to %s: %w", l.path, err)
	}
	return nil
}

// Sync flushes appends to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	return l.f.Sync()
}

// Close syncs and closes the log. The file stays on disk.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
