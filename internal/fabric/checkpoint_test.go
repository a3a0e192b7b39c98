package fabric

import (
	"bytes"
	"testing"
)

// FuzzJournalLine runs the checkpoint journal's line framing: any line
// either parses or is rejected without panicking, and any payload framed
// by frameJournalLine parses back to itself once the newline the journal
// reader splits on is removed. The seeds run under plain go test.
func FuzzJournalLine(f *testing.F) {
	for _, seed := range []string{
		`{"shard":"c0000-t0-1","sha256":"00ff","records":1,"worker":"w1"}`,
		string(frameJournalLine([]byte(`{"shard":"c0000-t0-1","records":1}`))),
		"crc32=00000000 ",
		"crc32=0000000 {}",
		"crc32=zzzzzzzz {}",
		"crc32=+0000000 {}",
		"crc32=",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		parseJournalLine(data)
		line := frameJournalLine(data)
		got, err := parseJournalLine(line[:len(line)-1])
		if err != nil {
			t.Fatalf("framed payload %q rejected: %v", data, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("framed payload %q parsed back as %q", data, got)
		}
	})
}
