package swf

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refParseJobLine is the line parser the in-place splitter replaced,
// kept as its reference: strings.Fields, then strconv.ParseInt and,
// failing that, strconv.ParseFloat on each of the first 18 fields.
func refParseJobLine(line string) (Job, error) {
	fields := strings.Fields(line)
	if len(fields) < 18 {
		return Job{}, fmt.Errorf("expected 18 fields, got %d", len(fields))
	}
	var vals [18]int64
	for i := 0; i < 18; i++ {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(fields[i], 64)
			if ferr != nil {
				return Job{}, fmt.Errorf("field %d %q: %v", i+1, fields[i], err)
			}
			v = int64(f)
		}
		vals[i] = v
	}
	return Job{
		JobNumber: vals[0], SubmitTime: vals[1], WaitTime: vals[2], RunTime: vals[3],
		AllocatedProcs: vals[4], AvgCPUTime: vals[5], UsedMemory: vals[6],
		RequestedProcs: vals[7], RequestedTime: vals[8], RequestedMemory: vals[9],
		Status: vals[10], UserID: vals[11], GroupID: vals[12], Executable: vals[13],
		Queue: vals[14], Partition: vals[15], PrecedingJob: vals[16], ThinkTime: vals[17],
	}, nil
}

// lineSeeds are data lines that take every route through parseJobLine:
// plain ASCII, Unicode spaces (which only strings.Fields splits on),
// invalid UTF-8, and fields that only strconv accepts or rejects.
var lineSeeds = []string{
	"1 0 -1 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 -1",
	"  1\t0 -1 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 -1\r\v\f",
	"1 0 -1 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1\u0085-1",
	"1 0 -1 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1\u00a0-1",
	"1\u30000 -1 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 -1 7",
	"\u00a01 0 -1 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 -1\u0085",
	"1 0 -1 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 -1 \xff",
	"1 0 -1 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 \xff",
	"+7 007 -0 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 -1",
	"1234567890123456789 0 -1 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 -1",
	"9223372036854775807 -9223372036854775808 -1 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 -1",
	"9223372036854775808 0 -1 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 -1",
	"12345678901234567890 0 -1 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 -1",
	"9999999999999999999 -9999999999999999999 -1 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 -1",
	"123456789012345678 -123456789012345678 -1 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 -1",
	"1 1e3 -1 10 1 3.5 -1 1 20 -1 1 1 1 1 1 1 -1 -1",
	"1 0 -1 10 1 -3.9 -1 1 1e30 -1 1 1 1 1 1 1 -1 -1",
	"1 0 - 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 -1",
	"1 0 --1 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 -1",
	"1 0 0x10 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 -1",
	"1 0 1_000 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 -1",
	"1 0 NaN 10 1 Inf -1 1 20 -1 1 1 1 1 1 1 -1 -1",
	"1 0 -1 10 1 x -1 1 20 -1 1 1 1 1 1 1 -1",
	"1 0 -1 10 1",
	"1 0 -1 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 -1 99 99 oops",
	"",
	"  \t ",
}

// FuzzParseJobLine holds the in-place line parser to the reference: for
// every line, trimmed as the Scanner trims it or not at all, the same
// Job and the same error text.
func FuzzParseJobLine(f *testing.F) {
	for _, s := range lineSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		for _, c := range []struct{ got, want string }{
			{line, line},
			{string(bytes.TrimSpace([]byte(line))), strings.TrimSpace(line)},
		} {
			var got Job
			gerr := parseJobLine([]byte(c.got), &got)
			want, werr := refParseJobLine(c.want)
			if (gerr != nil) != (werr != nil) || gerr != nil && gerr.Error() != werr.Error() {
				t.Fatalf("%q: error %v, reference %v", line, gerr, werr)
			}
			if got != want {
				t.Fatalf("%q: parsed %+v, reference %+v", line, got, want)
			}
		}
	})
}

// TestWriteJobMatchesFprintf pins the data-line format: each of the 18
// fields in decimal, one space apart, as fmt's %d writes them.
func TestWriteJobMatchesFprintf(t *testing.T) {
	extremes := []int64{math.MinInt64, math.MaxInt64, -1, 0}
	r := rand.New(rand.NewSource(3))
	var jobs []Job
	for i := 0; i < 500; i++ {
		var v [18]int64
		for k := range v {
			switch r.Intn(4) {
			case 0:
				v[k] = extremes[r.Intn(len(extremes))]
			case 1:
				v[k] = r.Int63n(100000) - 50000
			default:
				v[k] = r.Int63() - r.Int63()
			}
		}
		jobs = append(jobs, jobOf(&v))
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range jobs {
		if err := w.WriteJob(&jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	for i := range jobs {
		j := &jobs[i]
		want := fmt.Sprintf("%d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d\n",
			j.JobNumber, j.SubmitTime, j.WaitTime, j.RunTime, j.AllocatedProcs,
			j.AvgCPUTime, j.UsedMemory, j.RequestedProcs, j.RequestedTime,
			j.RequestedMemory, j.Status, j.UserID, j.GroupID, j.Executable,
			j.Queue, j.Partition, j.PrecedingJob, j.ThinkTime)
		if lines[i] != want {
			t.Fatalf("line %d:\n got  %q\n want %q", i, lines[i], want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { w.WriteJob(&jobs[0]) }); allocs != 0 {
		t.Fatalf("WriteJob allocated %v times per line", allocs)
	}
}

// TestScannerAllocatesNothingPerLine: once its buffer is sized, the
// Scanner reads data lines without allocating.
func TestScannerAllocatesNothingPerLine(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("; MaxProcs: 128\n")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&buf, "%d %d -1 %d 4 -1 -1 4 %d -1 1 %d 1 3 1 1 -1 -1\n", i+1, 10*i, 100+i, 200+i, i%17)
	}
	sc := NewScanner(bytes.NewReader(buf.Bytes()))
	if _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(2000, func() { _, err = sc.Next() })
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("Scanner.Next allocated %v times per line", allocs)
	}
	for err == nil {
		_, err = sc.Next()
	}
	if err != io.EOF || sc.Line() != 3001 {
		t.Fatalf("scan ended at line %d with %v", sc.Line(), err)
	}
}

// BenchmarkScanner reads a generated 10k-job SWF from memory: the SWF
// intake's own cost per byte, before any cleaning or simulation.
func BenchmarkScanner(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		j := Job{JobNumber: int64(i + 1), SubmitTime: int64(30 * i), WaitTime: -1, RunTime: r.Int63n(86400),
			AllocatedProcs: 1 + r.Int63n(256), AvgCPUTime: -1, UsedMemory: -1, RequestedProcs: 1 + r.Int63n(256),
			RequestedTime: r.Int63n(172800), RequestedMemory: -1, Status: 1, UserID: r.Int63n(300),
			GroupID: r.Int63n(20), Executable: r.Int63n(900), Queue: 1, Partition: 1, PrecedingJob: -1, ThinkTime: -1}
		if err := w.WriteJob(&j); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := NewScanner(bytes.NewReader(data))
		for {
			if _, err := sc.Next(); err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
		}
	}
}
