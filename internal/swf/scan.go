package swf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
)

// Scanner is an iterator-style SWF reader: it yields one job record at a
// time without materializing the trace, so a multi-year archive log (or
// a generated million-job file) can be replayed in bounded memory. It
// shares the line parsers with Parse, so the two accept exactly the same
// inputs; a differential fuzz test (fuzz_test.go) holds them to that.
//
// Header directives are accumulated as they are encountered. SWF files
// place the header before the first job, so Header() is complete by the
// time the first Next returns — but mid-file comment directives (which
// some archive logs contain) are folded in as they are reached.
type Scanner struct {
	sc     *bufio.Scanner
	header Header
	lineNo int
	err    error
}

// NewScanner returns a streaming reader over r. The reader tolerates the
// same line lengths as Parse (up to 4 MiB).
func NewScanner(r io.Reader) *Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return &Scanner{sc: sc}
}

// Header returns the directives seen so far. It is stable (and normally
// complete) once the first job has been returned.
func (s *Scanner) Header() *Header { return &s.header }

// Line returns the line number of the most recently parsed line.
func (s *Scanner) Line() int { return s.lineNo }

// Next returns the next job record. It returns io.EOF after the last
// job, and a positional parse error (matching Parse's) on malformed
// data; once an error is returned every further call repeats it.
func (s *Scanner) Next() (Job, error) {
	var j Job
	if err := s.NextInto(&j); err != nil {
		return Job{}, err
	}
	return j, nil
}

// NextInto is Next parsing straight into *j, which it leaves untouched
// on error.
func (s *Scanner) NextInto(j *Job) error {
	if s.err != nil {
		return s.err
	}
	for s.sc.Scan() {
		s.lineNo++
		// bytes.TrimSpace trims exactly what strings.TrimSpace does, in
		// place; only header lines become strings.
		line := bytes.TrimSpace(s.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if line[0] == ';' {
			parseHeaderLine(&s.header, string(line))
			continue
		}
		if err := parseJobLine(line, j); err != nil {
			s.err = fmt.Errorf("swf: line %d: %w", s.lineNo, err)
			return s.err
		}
		return nil
	}
	if err := s.sc.Err(); err != nil {
		s.err = fmt.Errorf("swf: read: %w", err)
		return s.err
	}
	s.err = io.EOF
	return io.EOF
}

// Writer serializes an SWF trace incrementally: a header followed by one
// job per WriteJob call, so a trace can be generated straight to disk
// without ever holding it in memory. Write (swf.go's whole-trace form)
// is built on it.
type Writer struct {
	bw        *bufio.Writer
	err       error
	wroteJobs bool
	line      []byte
}

// NewWriter returns a buffered streaming writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// WriteHeader emits the header directives. With explicit Fields they are
// written verbatim; otherwise the structural directives (MaxProcs,
// MaxNodes, MaxJobs, UnixStartTime) that are set are emitted so the
// output is self-describing. Must be called before the first WriteJob.
func (w *Writer) WriteHeader(h *Header) error {
	if w.err != nil {
		return w.err
	}
	if w.wroteJobs {
		w.err = fmt.Errorf("swf: WriteHeader after WriteJob")
		return w.err
	}
	for _, f := range h.Fields {
		if _, err := fmt.Fprintf(w.bw, "; %s: %s\n", f.Key, f.Value); err != nil {
			w.err = err
			return err
		}
	}
	if len(h.Fields) == 0 {
		directives := []struct {
			key string
			val int64
		}{
			{"MaxProcs", h.MaxProcs},
			{"MaxNodes", h.MaxNodes},
			{"MaxJobs", h.MaxJobs},
			{"UnixStartTime", h.UnixStartTime},
		}
		for _, d := range directives {
			if d.val <= 0 {
				continue
			}
			if _, err := fmt.Fprintf(w.bw, "; %s: %d\n", d.key, d.val); err != nil {
				w.err = err
				return err
			}
		}
	}
	return nil
}

// WriteJob emits one 18-field data line: the fields in decimal, one
// space apart. The line is built in a reused buffer, so writing a trace
// allocates nothing per job.
func (w *Writer) WriteJob(j *Job) error {
	if w.err != nil {
		return w.err
	}
	w.wroteJobs = true
	b := w.line[:0]
	for i, v := range j.fields() {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	w.line = append(b, '\n')
	_, err := w.bw.Write(w.line)
	if err != nil {
		w.err = err
	}
	return err
}

// Flush drains the buffer to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}
