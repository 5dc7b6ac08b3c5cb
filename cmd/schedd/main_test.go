package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/swf"
	"repro/internal/workload"
)

// TestUsageErrors pins the flag-combination validation: every
// contradictory combination exits 2 with a message naming the conflict.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"connect-without-replay", []string{"-connect", "http://x"}, "needs -replay"},
		{"connect+maxprocs", []string{"-connect", "http://x", "-replay", "t.swf", "-maxprocs", "64"}, "conflicts with -connect"},
		{"connect+trace", []string{"-connect", "http://x", "-replay", "t.swf", "-trace", "t.jsonl"}, "conflicts with -connect"},
		{"replay-without-connect", []string{"-replay", "t.swf"}, "needs -connect"},
		{"shutdown-without-connect", []string{"-shutdown"}, "needs -connect"},
		{"session-without-connect", []string{"-session", "s"}, "needs -connect"},
		{"no-maxprocs", nil, "-maxprocs must be positive"},
		{"bad-triple", []string{"-maxprocs", "64", "-triple", "eazy"}, "unknown triple"},
		{"trace-to-stdout", []string{"-maxprocs", "64", "-trace", "-"}, "cannot write to stdout"},
		{"trace-to-dev-stdout", []string{"-maxprocs", "64", "-trace", "/dev/stdout"}, "cannot write to stdout"},
		{"spec+maxprocs", []string{"-spec", "x.yaml", "-maxprocs", "64"}, "drop -maxprocs"},
		{"spec+triple", []string{"-spec", "x.yaml", "-triple", "easy"}, "drop -triple"},
		{"unknown-flag", []string{"-flood", "everything"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
		})
	}
}

// syncBuffer is a goroutine-safe writer: the server goroutine writes
// while the test polls for the listening line.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`listening on (http://[^\s]+)`)

// startServer launches run() in server mode on an ephemeral port and
// returns the base URL plus the exit channel and output buffers.
func startServer(t *testing.T, args []string) (string, chan int, *syncBuffer, *syncBuffer) {
	t.Helper()
	stdout, stderr := &syncBuffer{}, &syncBuffer{}
	exit := make(chan int, 1)
	go func() { exit <- run(context.Background(), args, stdout, stderr) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(stderr.String()); m != nil {
			return m[1], exit, stdout, stderr
		}
		select {
		case code := <-exit:
			t.Fatalf("server exited %d before listening (stderr: %s)", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never printed the listening line (stderr: %s)", stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// writeTrace generates a workload and writes it as an SWF file,
// returning the path and the number of jobs the cleaning rules keep.
func writeTrace(t *testing.T, preset string, jobs int) (string, int64, int) {
	t.Helper()
	cfg, err := workload.Scaled(preset, jobs)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.swf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := swf.Write(f, &swf.Trace{Header: swf.Header{MaxProcs: w.MaxProcs}, Jobs: w.Jobs}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	src := workload.NewCleanSource(workload.NewScanSource(swf.NewScanner(g)), w.MaxProcs)
	kept := 0
	for {
		if _, err := src.NextJob(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		kept++
	}
	return path, w.MaxProcs, kept
}

// TestServeReplayShutdown is the CLI end to end: a server on an
// ephemeral port, a replay client submitting a generated SWF trace,
// a wire-side shutdown — and the server's final summary must be
// byte-identical to the block the client printed from the shutdown
// response (same StreamSummary either side of the wire).
func TestServeReplayShutdown(t *testing.T) {
	path, maxProcs, kept := writeTrace(t, "KTH-SP2", 150)
	base, exit, stdout, stderr := startServer(t, []string{
		"-addr", "127.0.0.1:0", "-maxprocs", fmt.Sprint(maxProcs), "-triple", "easy++",
	})

	var cliOut, cliErr bytes.Buffer
	if code := run(context.Background(), []string{
		"-connect", base, "-replay", path, "-shutdown",
	}, &cliOut, &cliErr); code != 0 {
		t.Fatalf("client exit %d, stderr: %s", code, cliErr.String())
	}
	if code := <-exit; code != 0 {
		t.Fatalf("server exit %d, stderr: %s", code, stderr.String())
	}

	want := fmt.Sprintf("workload      live (streamed, %d jobs finished, %d procs)", kept, maxProcs)
	if !strings.Contains(cliOut.String(), want) {
		t.Fatalf("client summary missing %q:\n%s", want, cliOut.String())
	}
	if cliOut.String() != stdout.String() {
		t.Fatalf("server and client summaries differ:\nserver:\n%s\nclient:\n%s", stdout.String(), cliOut.String())
	}
	for _, line := range []string{"triple        EASY-SJBF/AVE2/Incremental", "AVEbsld", "utilization", "prediction MAE"} {
		if !strings.Contains(cliOut.String(), line) {
			t.Errorf("summary missing %q:\n%s", line, cliOut.String())
		}
	}
}

// TestServeSpecAndSignal starts the server from a serve: spec block and
// drains it through context cancellation — the SIGTERM path.
func TestServeSpecAndSignal(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "serve.yaml")
	if err := os.WriteFile(specPath, []byte(
		"serve:\n  addr: 127.0.0.1:0\n  max_procs: 64\n  triple: easy\n  clients: [a, b]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr := &syncBuffer{}, &syncBuffer{}
	ctx, cancel := context.WithCancel(context.Background())
	exit := make(chan int, 1)
	go func() { exit <- run(ctx, []string{"-spec", specPath}, stdout, stderr) }()
	deadline := time.Now().Add(30 * time.Second)
	for listenRE.FindStringSubmatch(stderr.String()) == nil {
		if time.Now().After(deadline) {
			t.Fatalf("server never printed the listening line (stderr: %s)", stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if code := <-exit; code != 0 {
		t.Fatalf("server exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "draining") {
		t.Errorf("stderr missing the drain notice: %s", stderr.String())
	}
	out := stdout.String()
	for _, line := range []string{"workload      live (streamed, 0 jobs finished, 64 procs)", "triple        EASY/RequestedTime/RequestedTime", "client a", "client b"} {
		if !strings.Contains(out, line) {
			t.Errorf("summary missing %q:\n%s", line, out)
		}
	}
}

// TestServeDropsStalledHeader: a raw TCP client that writes a partial
// request line and then stalls is disconnected once the read-header
// timeout passes, instead of holding its connection open indefinitely.
func TestServeDropsStalledHeader(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	base, exit, _, stderr := startServer(t, []string{"-addr", "127.0.0.1:0", "-maxprocs", "64"})

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/metr")); err != nil {
		t.Fatal(err)
	}
	// ReadAll returns nil at EOF: the server hung up. Our own deadline
	// firing first means it never did.
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection still open after %v: %v", time.Since(start), err)
	}

	resp, err := http.Post(base+"/v1/shutdown", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if code := <-exit; code != 0 {
		t.Fatalf("server exit %d, stderr: %s", code, stderr.String())
	}
}
