package workload

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/swf"
)

// scanText is an SWF file of n records, with a blank line and a
// mid-file directive before record n/2 and, when bad >= 0, a malformed
// line in place of record bad.
func scanText(n, bad int) string {
	var b strings.Builder
	b.WriteString("; MaxProcs: 64\n")
	for i := 0; i < n; i++ {
		if i == n/2 {
			b.WriteString("\n; Note: mid-file\n")
		}
		if i == bad {
			b.WriteString("7 70 -1 oops\n")
			continue
		}
		fmt.Fprintf(&b, "%d %d -1 %d %d -1 -1 %d %d -1 1 %d 1 1 1 1 -1 -1\n", i+1, 10*i, 100+i%7, 1+i%5, 1+i%3, 200+i, i%13)
	}
	return b.String()
}

// TestScanSourceMatchesScanner holds the read-ahead source to the
// scanner it wraps at every batch boundary: the same records one for
// one, the same error text and line, the error repeated on later calls,
// and the same header and line number after the end. Odd records are
// taken through Pull, even ones through NextJob.
func TestScanSourceMatchesScanner(t *testing.T) {
	const B = scanBatchLen
	for _, n := range []int{0, 1, B - 1, B, B + 1, 2 * B, 3*B + 7} {
		for _, bad := range []int{-1, 0, B - 1, B, B + 1, 2 * B} {
			if bad >= n {
				continue
			}
			t.Run(fmt.Sprintf("n=%d/bad=%d", n, bad), func(t *testing.T) {
				text := scanText(n, bad)
				ref := swf.NewScanner(strings.NewReader(text))
				sc := swf.NewScanner(strings.NewReader(text))
				src := NewScanSource(sc)
				var got swf.Job
				for k := 0; ; k++ {
					want, werr := ref.Next()
					var gerr error
					if k%2 == 1 {
						gerr = Pull(src, &got)
					} else {
						got, gerr = src.NextJob()
					}
					if !sameErr(gerr, werr) {
						t.Fatalf("record %d: error %v, scanner %v", k, gerr, werr)
					}
					if werr != nil {
						for r := 0; r < 3; r++ {
							if _, err := src.NextJob(); !sameErr(err, werr) {
								t.Fatalf("call %d after the end: error %v, scanner %v", r+1, err, werr)
							}
						}
						break
					}
					if got != want {
						t.Fatalf("record %d: %+v, scanner %+v", k, got, want)
					}
				}
				if !reflect.DeepEqual(sc.Header(), ref.Header()) || sc.Line() != ref.Line() {
					t.Fatalf("after the end: header %+v at line %d, scanner %+v at line %d", sc.Header(), sc.Line(), ref.Header(), ref.Line())
				}
			})
		}
	}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a == b || a != io.EOF && b != io.EOF && a.Error() == b.Error()
}

// TestScanSourceAbandoned drops a source mid-stream, with a batch parse
// in flight, and closes the file under it: the parse goroutine must
// still end.
func TestScanSourceAbandoned(t *testing.T) {
	const B = scanBatchLen
	path := filepath.Join(t.TempDir(), "t.swf")
	if err := os.WriteFile(path, []byte(scanText(3*B+7, -1)), 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	src := NewScanSource(swf.NewScanner(f))
	for k := 0; k <= B; k++ {
		if _, err := src.NextJob(); err != nil {
			t.Fatalf("record %d: %v", k, err)
		}
	}
	f.Close()
	src = nil
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after abandoning the source, %d before", runtime.NumGoroutine(), before)
		}
	}
}
