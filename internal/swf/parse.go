package swf

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Parse reads an SWF trace from r, materializing every record. Malformed
// data lines produce an error naming the line number; unknown header
// directives are preserved verbatim in Header.Fields. For bounded-memory
// iteration over huge logs use Scanner (scan.go), which Parse is built on.
func Parse(r io.Reader) (*Trace, error) {
	sc := NewScanner(r)
	tr := &Trace{}
	for {
		job, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		tr.Jobs = append(tr.Jobs, job)
	}
	tr.Header = *sc.Header()
	return tr, nil
}

func parseHeaderLine(h *Header, line string) {
	body := strings.TrimSpace(strings.TrimPrefix(line, ";"))
	idx := strings.Index(body, ":")
	if idx < 0 {
		return
	}
	key := strings.TrimSpace(body[:idx])
	value := strings.TrimSpace(body[idx+1:])
	if key == "" {
		return
	}
	h.Fields = append(h.Fields, HeaderField{Key: key, Value: value})
	n, err := strconv.ParseInt(strings.Fields(value + " 0")[0], 10, 64)
	if err != nil {
		return
	}
	switch key {
	case "MaxNodes":
		h.MaxNodes = n
	case "MaxProcs":
		h.MaxProcs = n
	case "MaxJobs":
		h.MaxJobs = n
	case "UnixStartTime":
		h.UnixStartTime = n
	}
}

// asciiSpace marks the bytes that strings.Fields and strings.TrimSpace
// treat as space in ASCII text.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// parseJobLine parses one data line into *j, which it leaves untouched
// on error, in a single pass that allocates nothing: a field of an
// optional '-' and at most 18 ASCII digits (which cannot overflow) is
// read as it is split off. A line with any other field among its first
// 18 (a '+', a float, more digits, anything invalid) goes whole to
// parseFields through strings.Fields and strconv, so the inputs
// accepted, the values and the error texts are exactly theirs. That includes every line a Unicode space such as
// U+0085 or U+00A0 (which only strings.Fields splits on) could split
// differently: the space's bytes are >= 0x80, so the field they sit in
// is odd, and past the 18th field a split changes nothing.
func parseJobLine(line []byte, j *Job) error {
	var vals [18]int64
	var odd bool
	n := 0
	for i := 0; i < len(line); {
		if asciiSpace[line[i]] {
			i++
			continue
		}
		neg := line[i] == '-'
		if neg {
			i++
		}
		digits := i
		var v int64
		for i < len(line) && line[i]-'0' <= 9 {
			v = v*10 + int64(line[i]-'0')
			i++
		}
		ok := i > digits && i-digits <= 18
		for i < len(line) && !asciiSpace[line[i]] {
			ok = false
			i++
		}
		if n < len(vals) {
			switch {
			case !ok:
				odd = true
			case neg:
				vals[n] = -v
			default:
				vals[n] = v
			}
		}
		n++
	}
	if odd {
		return parseFields(strings.Fields(string(line)), j)
	}
	if n < len(vals) {
		return fmt.Errorf("expected 18 fields, got %d", n)
	}
	*j = jobOf(&vals)
	return nil
}

// parseFields parses a data line already split into fields into *j,
// leaving it untouched on error.
func parseFields(fields []string, j *Job) error {
	if len(fields) < 18 {
		return fmt.Errorf("expected 18 fields, got %d", len(fields))
	}
	var vals [18]int64
	for i := range vals {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			// Some archive logs use floats in field 6 (avg CPU time).
			f, ferr := strconv.ParseFloat(fields[i], 64)
			if ferr != nil {
				return fmt.Errorf("field %d %q: %v", i+1, fields[i], err)
			}
			v = int64(f)
		}
		vals[i] = v
	}
	*j = jobOf(&vals)
	return nil
}

// jobOf builds a record from its 18 fields in file order.
func jobOf(v *[18]int64) Job {
	return Job{
		JobNumber:       v[0],
		SubmitTime:      v[1],
		WaitTime:        v[2],
		RunTime:         v[3],
		AllocatedProcs:  v[4],
		AvgCPUTime:      v[5],
		UsedMemory:      v[6],
		RequestedProcs:  v[7],
		RequestedTime:   v[8],
		RequestedMemory: v[9],
		Status:          v[10],
		UserID:          v[11],
		GroupID:         v[12],
		Executable:      v[13],
		Queue:           v[14],
		Partition:       v[15],
		PrecedingJob:    v[16],
		ThinkTime:       v[17],
	}
}

// fields lists a record's 18 fields in file order.
func (j *Job) fields() [18]int64 {
	return [18]int64{j.JobNumber, j.SubmitTime, j.WaitTime, j.RunTime, j.AllocatedProcs,
		j.AvgCPUTime, j.UsedMemory, j.RequestedProcs, j.RequestedTime,
		j.RequestedMemory, j.Status, j.UserID, j.GroupID, j.Executable,
		j.Queue, j.Partition, j.PrecedingJob, j.ThinkTime}
}

// Write serializes the trace to w in SWF format, emitting header
// directives first and then one line per job. It is the whole-trace form
// of the streaming Writer (scan.go).
func Write(w io.Writer, tr *Trace) error {
	sw := NewWriter(w)
	if err := sw.WriteHeader(&tr.Header); err != nil {
		return err
	}
	for i := range tr.Jobs {
		if err := sw.WriteJob(&tr.Jobs[i]); err != nil {
			return err
		}
	}
	return sw.Flush()
}
