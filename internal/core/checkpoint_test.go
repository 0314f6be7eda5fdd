package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/classify"
	"github.com/fastfit/fastfit/internal/fault"
	"github.com/fastfit/fastfit/internal/mpi"
	"github.com/fastfit/fastfit/internal/recfile"
)

func ckptTestPoints() []Point {
	return []Point{
		{Rank: 0, SiteName: "main a.go:1", Type: mpi.CollAllreduce, Invocation: 0, NInv: 3},
		{Rank: 1, SiteName: "main a.go:1", Type: mpi.CollAllreduce, Invocation: 1, NInv: 3},
		{Rank: 0, SiteName: "main b.go:9", Type: mpi.CollBcast, Invocation: 0, NInv: 1},
	}
}

func ckptTestResult(p Point) PointResult {
	pr := PointResult{Point: p}
	for i, o := range []classify.Outcome{classify.Success, classify.WrongAns} {
		tr := TrialResult{Target: fault.TargetSendBuf, Bit: i * 3, Outcome: o}
		pr.Trials = append(pr.Trials, tr)
		pr.Counts.Add(o)
	}
	return pr
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	pts := ckptTestPoints()
	fp := CampaignFingerprint("toy", apps.Config{Ranks: 4}, Options{}, pts)

	ck, err := CreateCheckpoint(path, fp, "toy", 4, len(pts))
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.AppendResult(0, ckptTestResult(pts[0])); err != nil {
		t.Fatal(err)
	}
	if err := ck.AppendQuarantine(QuarantinedPoint{Point: pts[1], Index: 1, Attempts: 3, Err: "harness failure: runner panic: boom"}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := LoadCheckpointState(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if st.TornTail {
		t.Fatal("clean journal reported a torn tail")
	}
	if len(st.Results) != 1 || len(st.Quarantined) != 1 {
		t.Fatalf("state: %d results, %d quarantined", len(st.Results), len(st.Quarantined))
	}
	got := st.Results[0]
	want := ckptTestResult(pts[0])
	if got.Point != want.Point || got.Counts != want.Counts || len(got.Trials) != len(want.Trials) {
		t.Fatalf("restored result differs: %+v vs %+v", got, want)
	}
	q := st.Quarantined[1]
	if q.Point != pts[1] || q.Attempts != 3 || !strings.Contains(q.Err, "boom") {
		t.Fatalf("restored quarantine differs: %+v", q)
	}
}

func TestCheckpointRejectsMismatchedFingerprint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	pts := ckptTestPoints()
	fp := CampaignFingerprint("toy", apps.Config{Ranks: 4}, Options{Exec: Exec{Seed: 1}}, pts)
	ck, err := CreateCheckpoint(path, fp, "toy", 4, len(pts))
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()

	other := CampaignFingerprint("toy", apps.Config{Ranks: 4}, Options{Exec: Exec{Seed: 2}}, pts)
	if other == fp {
		t.Fatal("fingerprint must depend on the campaign seed")
	}
	_, err = LoadCheckpointState(path, other)
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("want ErrCheckpointMismatch, got %v", err)
	}
}

func TestCheckpointToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	pts := ckptTestPoints()
	fp := CampaignFingerprint("toy", apps.Config{Ranks: 4}, Options{}, pts)
	ck, err := CreateCheckpoint(path, fp, "toy", 4, len(pts))
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.AppendResult(0, ckptTestResult(pts[0])); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	// Simulate a crash mid-append: a torn, newline-less trailing record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"point","index":1,"resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ck2, st, err := OpenCheckpoint(path, fp)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if !st.TornTail {
		t.Fatal("torn tail not reported")
	}
	if len(st.Results) != 1 {
		t.Fatalf("results after torn tail: %d", len(st.Results))
	}
	// Appends after the repair must land on a fresh line and reload cleanly.
	if err := ck2.AppendResult(1, ckptTestResult(pts[1])); err != nil {
		t.Fatal(err)
	}
	ck2.Close()
	st2, err := LoadCheckpointState(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if st2.TornTail || len(st2.Results) != 2 {
		t.Fatalf("post-repair reload: torn=%v results=%d", st2.TornTail, len(st2.Results))
	}
}

func TestCheckpointRejectsCorruptMiddleLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	pts := ckptTestPoints()
	fp := CampaignFingerprint("toy", apps.Config{Ranks: 4}, Options{}, pts)
	ck, err := CreateCheckpoint(path, fp, "toy", 4, len(pts))
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	hdr, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{corrupt!!\n")
	f.Write(frameJournal(`{"kind":"point","index":0,"result":{"point":{},"trials":[]}}`))
	f.Close()

	_, err = LoadCheckpointState(path, fp)
	if err == nil {
		t.Fatal("corrupt middle line must fail loudly")
	}
	if want := fmt.Sprintf("offset %d", len(hdr)); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
}

// frameJournal renders journal payloads as recfile record lines.
func frameJournal(payloads ...string) []byte {
	var out []byte
	for _, p := range payloads {
		out = append(out, recfile.EncodeLine([]byte(p))...)
	}
	return out
}

const testCkptHeader = `{"kind":"header","version":2,"fingerprint":"fp","totalPoints":3}`

func TestCheckpointRejectsMissingHeaderAndBadRecords(t *testing.T) {
	dir := t.TempDir()
	// The second record of every two-record journal starts here.
	second := fmt.Sprintf("offset %d", len(frameJournal(testCkptHeader)))
	cases := []struct {
		name    string
		content []byte
		want    string // substring of the error
	}{
		{"empty", nil, "empty file"},
		{"no header", frameJournal(`{"kind":"point","index":0,"result":{"point":{},"trials":[]}}`), "missing header"},
		{"unknown kind", frameJournal(testCkptHeader, `{"kind":"wat"}`), second},
		{"bad outcome", frameJournal(testCkptHeader, `{"kind":"point","index":0,"result":{"point":{},"trials":[{"outcome":99}]}}`), second},
		{"version skew", frameJournal(`{"kind":"header","version":42,"fingerprint":"fp"}`), "version 42"},
		{"double header", frameJournal(testCkptHeader, testCkptHeader), second},
		{"header-is-torn", frameJournal(testCkptHeader)[:30], "missing header"},
		{"negative point index", frameJournal(testCkptHeader, `{"kind":"point","index":-1,"result":{"point":{},"trials":[]}}`), second},
		{"point index past total", frameJournal(testCkptHeader, `{"kind":"point","index":3,"result":{"point":{},"trials":[]}}`), second},
		{"negative quarantine index", frameJournal(testCkptHeader, `{"kind":"quarantine","index":-2,"point":{},"attempts":3,"error":"x"}`), second},
		{"quarantine index past total", frameJournal(testCkptHeader, `{"kind":"quarantine","index":7,"point":{},"attempts":3,"error":"x"}`), second},
		{"refine before point", frameJournal(testCkptHeader, `{"kind":"refine","index":0,"result":{"point":{},"trials":[{"outcome":0}]}}`), second},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_"))
		if err := os.WriteFile(path, tc.content, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpointState(path, "fp")
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// ckptTestJournal writes a journal holding every record kind and returns
// its bytes.
func ckptTestJournal(t *testing.T, path, fp string) []byte {
	t.Helper()
	pts := ckptTestPoints()
	ck, err := CreateCheckpoint(path, fp, "toy", 4, len(pts))
	if err != nil {
		t.Fatal(err)
	}
	p0 := ckptTestResult(pts[0])
	refined := p0
	refined.Trials = append(append([]TrialResult{}, p0.Trials...), TrialResult{Target: fault.TargetCount, Outcome: classify.SegFault})
	refined.Counts.Add(classify.SegFault)
	for _, err := range []error{
		ck.AppendResult(0, p0),
		ck.AppendQuarantine(QuarantinedPoint{Point: pts[1], Index: 1, Attempts: 3, Err: "wedged"}),
		ck.AppendResult(2, ckptTestResult(pts[2])),
		ck.AppendRefine(0, refined),
		ck.Close(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointRejectsEveryByteFlip: the journal is CRC-framed, so
// flipping any single byte of any record but the last (whose newline, once
// flipped, legitimately reads as a torn tail) must be refused with an error
// naming the offset of the record that holds the byte.
func TestCheckpointRejectsEveryByteFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	valid := ckptTestJournal(t, path, "fp")
	if _, err := LoadCheckpointState(path, "fp"); err != nil {
		t.Fatalf("unmutated journal: %v", err)
	}
	lastLine := bytes.LastIndexByte(valid[:len(valid)-1], '\n') + 1
	lineStart := 0
	for i := 0; i < lastLine; i++ {
		data := append([]byte{}, valid...)
		data[i] ^= 0xff
		_, err := loadCheckpoint(data, "fp")
		if want := fmt.Sprintf("offset %d", lineStart); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("byte %d flipped: got error %v, want one naming %q", i, err, want)
		}
		if valid[i] == '\n' {
			lineStart = i + 1
		}
	}
}

func TestCheckpointDuplicatePointFirstWriteWins(t *testing.T) {
	first := `{"kind":"point","index":0,"result":{"point":{},"trials":[{"outcome":0}]}}`
	replay := `{"kind":"point","index":0,"result":{"point":{},"trials":[{"outcome":2},{"outcome":2}]}}`
	st, err := loadCheckpoint(frameJournal(testCkptHeader, first, replay), "fp")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Results[0]; len(got.Trials) != 1 || got.Trials[0].Outcome != classify.Success {
		t.Fatalf("duplicate point record was not first-write-wins: %+v", got)
	}
	if st.BaseTrials[0] != 1 {
		t.Fatalf("base trials %d, want 1", st.BaseTrials[0])
	}
}

func TestCheckpointRefineRestoresRefinedTrials(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	ckptTestJournal(t, path, "fp")
	st, err := LoadCheckpointState(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	got := st.Results[0]
	if len(got.Trials) != 3 || got.Trials[2].Outcome != classify.SegFault || got.Counts.Total() != 3 {
		t.Fatalf("refined trials not restored: %+v", got)
	}
	if st.BaseTrials[0] != 2 {
		t.Fatalf("base trials %d, want the phase-1 count 2", st.BaseTrials[0])
	}
	if p1 := phase1Result(got, st.BaseTrials[0]); len(p1.Trials) != 2 || p1.Counts.Total() != 2 {
		t.Fatalf("phase-1 prefix not recoverable: %+v", p1)
	}
	if len(st.Results[2].Trials) != 2 || st.BaseTrials[2] != 2 || len(st.Quarantined) != 1 {
		t.Fatalf("other records disturbed: %+v", st)
	}

	// A refine record must extend its point's trials, not rewrite them.
	rewrite := `{"kind":"refine","index":0,"result":{"point":{},"trials":[{"outcome":3},{"outcome":3}]}}`
	point := `{"kind":"point","index":0,"result":{"point":{},"trials":[{"outcome":0}]}}`
	if _, err := loadCheckpoint(frameJournal(testCkptHeader, point, rewrite), "fp"); err == nil ||
		!strings.Contains(err.Error(), "does not extend") {
		t.Fatalf("non-extending refine record: got %v", err)
	}
}

func TestCheckpointRefusesVersion1(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1.ckpt")
	content := `{"kind":"header","version":1,"fingerprint":"fp","app":"is","ranks":8,"totalPoints":3}` + "\n" +
		`{"kind":"point","index":0,"result":{"point":{},"trials":[]},"baseTrials":0}` + "\n"
	if err := os.WriteFile(v1, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpointState(v1, "fp"); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("unframed v1 journal: want ErrCheckpointVersion, got %v", err)
	}
	if _, _, err := OpenCheckpoint(v1, "fp"); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("OpenCheckpoint of a v1 journal: want ErrCheckpointVersion, got %v", err)
	}
	framedV1 := filepath.Join(dir, "framed.ckpt")
	if err := os.WriteFile(framedV1, frameJournal(`{"kind":"header","version":1,"fingerprint":"fp"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpointState(framedV1, "fp"); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("framed version-1 header: want ErrCheckpointVersion, got %v", err)
	}
}
