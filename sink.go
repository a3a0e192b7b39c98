package repro

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Sink consumes TrialRecords as trials finish. The Experiment delivers
// records in completion order, not trial order (each record carries its
// Trial index), serializes Record calls across worker goroutines, and
// Closes every attached sink exactly once before Run or Stream returns —
// on success, on the first error, and on context cancellation alike, so a
// cancelled sweep still leaves a flushed, well-formed artifact behind. A
// Record error aborts the experiment and is surfaced by Run/Stream.
//
// Implementations used outside an Experiment (a command writing records
// from its own worker pool, say) must do their own serialization;
// JSONLSink locks internally and is safe either way.
type Sink interface {
	Record(rec TrialRecord) error
	Close() error
}

// JSONLSink streams TrialRecords as JSON Lines: one compact JSON object
// per record, newline-terminated — the bounded-memory artifact form for
// sweeps too large to hold in a Report. Writes are buffered; Close flushes
// (and closes the underlying file when the sink opened it). Record and
// Close are safe for concurrent use.
type JSONLSink struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	closer io.Closer
	closed bool
	count  int64
}

// NewJSONLSink returns a sink writing records to w. Close flushes buffered
// records but does not close w — the caller owns it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{bw: bufio.NewWriter(w)}
}

// CreateJSONL creates (or truncates) the file at path and returns a sink
// owning it: Close flushes and closes the file.
func CreateJSONL(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := NewJSONLSink(f)
	s.closer = f
	return s, nil
}

// Record implements Sink.
func (s *JSONLSink) Record(rec TrialRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("repro: JSONLSink is closed")
	}
	if _, err := s.bw.Write(data); err != nil {
		return err
	}
	if err := s.bw.WriteByte('\n'); err != nil {
		return err
	}
	s.count++
	return nil
}

// Count returns the number of records written so far.
func (s *JSONLSink) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Close implements Sink: it flushes buffered records and closes the
// underlying file when the sink owns one. Closing twice is a no-op.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.bw.Flush()
	if s.closer != nil {
		if cerr := s.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ErrTruncatedRecords marks a gzip record stream that ended mid-member —
// the footer (CRC + length trailer) is missing, which is what a torn
// write, a killed uploader or a truncated download leaves behind. It is
// distinct from a malformed line: the bytes that are present decoded
// fine; the stream just stops early. Errors wrapping it carry the byte
// offset of the underlying (compressed) input where it ended.
var ErrTruncatedRecords = errors.New("repro: truncated gzip record stream (missing footer)")

// DecodeTrialRecords streams a JSONL record artifact: fn is called once
// per line, in file order. Decoding stops at the first malformed line or
// fn error.
//
// Gzip input is detected automatically by its magic bytes and
// transparently decompressed, so RotatingJSONLSink ".gz" segments (and
// service cache spills) feed merge, replay and ReportFromRecords without
// an explicit decompression step. Concatenated gzip members — cat-ed
// segments, say — decode as one stream. A gzip stream cut short (its
// footer missing) surfaces as ErrTruncatedRecords with the byte offset
// where the compressed input ended, never a bare "unexpected EOF".
func DecodeTrialRecords(r io.Reader, fn func(rec TrialRecord) error) error {
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		offset := func() int64 { return cr.n - int64(br.Buffered()) }
		gz, err := gzip.NewReader(br)
		if err != nil {
			if err == io.ErrUnexpectedEOF || err == io.EOF {
				return fmt.Errorf("%w at byte offset %d", ErrTruncatedRecords, offset())
			}
			return fmt.Errorf("repro: gzip records: %w", err)
		}
		defer gz.Close()
		// Truncation can also surface indirectly — the decompressed stream
		// ends mid-line and the partial JSON fails to parse — so track the
		// reader error itself, not just what the scanner reports.
		et := &eofTracker{r: gz}
		err = decodeTrialRecords(et, fn)
		if et.truncated || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w at byte offset %d", ErrTruncatedRecords, offset())
		}
		return err
	}
	return decodeTrialRecords(br, fn)
}

// eofTracker flags a mid-member EOF from the decompressor.
type eofTracker struct {
	r         io.Reader
	truncated bool
}

func (e *eofTracker) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.ErrUnexpectedEOF {
		e.truncated = true
	}
	return n, err
}

// countingReader counts the bytes consumed from the source, so
// truncation errors can report where the input actually ended.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// decodeTrialRecords scans plain JSONL.
func decodeTrialRecords(r io.Reader, fn func(rec TrialRecord) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec TrialRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("repro: record line %d: %w", line, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return sc.Err()
}

// ReadTrialRecords reads a whole JSONL record artifact into memory.
func ReadTrialRecords(r io.Reader) ([]TrialRecord, error) {
	var out []TrialRecord
	err := DecodeTrialRecords(r, func(rec TrialRecord) error {
		out = append(out, rec)
		return nil
	})
	return out, err
}

// sinkFunc adapts a record function to a Sink whose Close does nothing.
type sinkFunc func(TrialRecord) error

func (f sinkFunc) Record(rec TrialRecord) error { return f(rec) }
func (sinkFunc) Close() error                   { return nil }

// sinkSet fans records out to every attached sink under one mutex — the
// serialization half of the Sink contract — and captures the first error
// (a failing sink or a failing trial).
type sinkSet struct {
	mu    sync.Mutex
	sinks []Sink
	err   error
}

// record delivers rec to every sink in order; after the first error the
// set goes inert.
func (ss *sinkSet) record(rec TrialRecord) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.err != nil {
		return
	}
	for _, s := range ss.sinks {
		if err := s.Record(rec); err != nil {
			ss.err = fmt.Errorf("repro: sink: %w", err)
			return
		}
	}
}

// fail records a trial error; the first error wins.
func (ss *sinkSet) fail(err error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.err == nil {
		ss.err = err
	}
}

func (ss *sinkSet) firstErr() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.err
}

// close closes every sink once, returning the first close error.
func (ss *sinkSet) close() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var first error
	for _, s := range ss.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	ss.sinks = nil
	return first
}
