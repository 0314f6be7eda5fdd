package recfile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	payloads := []string{
		`{}`,
		`{"kind":"record","n":1}`,
		"",
		strings.Repeat("x", 4096),
		"payload with spaces and \x00 bytes",
	}
	for _, p := range payloads {
		line := EncodeLine([]byte(p))
		if line[len(line)-1] != '\n' {
			t.Fatalf("EncodeLine(%q) does not end in newline", p)
		}
		got, err := ParseLine(string(line[:len(line)-1]))
		if err != nil {
			t.Fatalf("ParseLine(EncodeLine(%q)): %v", p, err)
		}
		if string(got) != p {
			t.Fatalf("round trip of %q returned %q", p, got)
		}
	}
}

func TestParseLineErrors(t *testing.T) {
	good := EncodeLine([]byte(`{"a":1}`))
	goodLine := string(good[:len(good)-1])

	cases := []struct {
		name string
		line string
		want string // substring of the error
	}{
		{"short", "0000", "short record prefix (4 bytes)"},
		{"no-spaces", strings.Repeat("0", prefixLen) + "{}", "malformed length/checksum prefix"},
		{"bad-length-hex", "zzzzzzzz 00000000 {}", "malformed length prefix"},
		{"bad-checksum-hex", "00000002 zzzzzzzz {}", "malformed checksum prefix"},
		{"length-mismatch", goodLine[:9] + goodLine[9:17] + " " + `{"a":1}x`, "record declares"},
		{"checksum-mismatch", goodLine[:9] + "deadbeef" + goodLine[17:], "checksum mismatch"},
	}
	for _, tc := range cases {
		if _, err := ParseLine(tc.line); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ParseLine(%q) = %v, want error containing %q", tc.name, tc.line, err, tc.want)
		}
	}
}

func TestSplitTornTail(t *testing.T) {
	a := EncodeLine([]byte(`{"a":1}`))
	b := EncodeLine([]byte(`{"b":2}`))
	whole := append(append([]byte{}, a...), b...)

	lines, torn, validLen := Split(whole)
	if torn || len(lines) != 2 || validLen != int64(len(whole)) {
		t.Fatalf("Split(whole) = %d lines, torn=%v, validLen=%d", len(lines), torn, validLen)
	}

	// Chop bytes off the tail: every truncation point inside the final line
	// must report a torn tail whose validLen is exactly the first line.
	for cut := len(whole) - 1; cut > len(a); cut-- {
		lines, torn, validLen := Split(whole[:cut])
		if !torn {
			t.Fatalf("Split(cut at %d): torn tail not detected", cut)
		}
		if len(lines) != 1 || validLen != int64(len(a)) {
			t.Fatalf("Split(cut at %d) = %d lines, validLen=%d (want 1 line, %d)", cut, len(lines), validLen, len(a))
		}
	}
}

func TestSplitEveryLineParses(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 50; i++ {
		buf.Write(EncodeLine([]byte(fmt.Sprintf(`{"i":%d}`, i))))
	}
	lines, torn, _ := Split(buf.Bytes())
	if torn || len(lines) != 50 {
		t.Fatalf("Split = %d lines, torn=%v", len(lines), torn)
	}
	for i, line := range lines {
		payload, err := ParseLine(line)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if want := fmt.Sprintf(`{"i":%d}`, i); string(payload) != want {
			t.Fatalf("line %d payload %q, want %q", i, payload, want)
		}
	}
}

func TestLogCreateAppendReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	type rec struct {
		Kind string `json:"kind"`
		N    int    `json:"n"`
	}
	l, err := Create(path, rec{"header", 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{"item", 1}, rec{"item", 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{"item", 3}); err == nil || !strings.Contains(err.Error(), "already closed") {
		t.Fatalf("append after close: %v", err)
	}

	// A crash mid-append leaves a torn tail: Parse excludes it and Reopen
	// truncates it so the next append starts on a fresh line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("0000000c 1234")
	f.Close()
	data, _ := os.ReadFile(path)
	c, err := Parse(data)
	if err != nil || !c.TornTail || len(c.Records) != 3 {
		t.Fatalf("Parse of torn log: %+v, %v", c, err)
	}
	if l, err = Reopen(path, c); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec{"item", 4}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	data, _ = os.ReadFile(path)
	c, err = Parse(data)
	if err != nil || c.TornTail || len(c.Records) != 4 {
		t.Fatalf("Parse after repair: %+v, %v", c, err)
	}
	offset := int64(0)
	for i, r := range c.Records {
		var got rec
		if err := r.Decode(&got); err != nil {
			t.Fatal(err)
		}
		if r.N != i+1 || r.Offset != offset || r.Kind != got.Kind || (i > 0 && got.N != []int{1, 2, 4}[i-1]) {
			t.Fatalf("record %d: %+v decoded %+v", i, r, got)
		}
		offset += int64(prefixLen + len(r.Payload) + 1)
	}

	// Interior damage is refused, naming the damaged record's offset.
	data[c.Records[2].Offset+prefixLen+3] ^= 0x01
	if _, err := Parse(data); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("record 3 at offset %d", c.Records[2].Offset)) {
		t.Fatalf("corrupt record 3: %v", err)
	}
}
