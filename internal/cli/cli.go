// Package cli is the observability setup the commands share: the -trace
// destination check, and the lifetime of the flight-recorder trace
// (the structured decision JSONL summarized by cmd/tracestat), the CPU
// and heap profiles and the live net/http/pprof endpoint.
//
// Only commands import this package. The blank net/http/pprof import
// registers its handlers on the default mux when the package is
// linked, so a library package importing cli would carry them into
// every binary built on it, the benchmark's included.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/obs"
)

// ParseExit maps a flag-parsing error to an exit status: 0 for -h (the
// usage text was asked for), 2 for a usage error.
func ParseExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// TraceConflict reports a usage conflict on the -trace destination:
// the command's report owns stdout, so a trace aimed there would
// interleave JSONL with it; and the profile writers cannot share the
// trace's file. Empty means no conflict.
func TraceConflict(trace, cpuProfile, memProfile string) string {
	if trace == "" {
		return ""
	}
	if trace == "-" || trace == "/dev/stdout" {
		return "-trace cannot write to stdout (the report owns it); give it a file path"
	}
	if trace == cpuProfile {
		return "-trace and -cpuprofile both write " + trace
	}
	if trace == memProfile {
		return "-trace and -memprofile both write " + trace
	}
	return ""
}

// Observer holds the live observability state of one run; Close ends
// it.
type Observer struct {
	cpuFile   *os.File
	memPath   string
	trace     *obs.JSONL
	pprof     *http.Server
	pprofDone chan struct{}
}

// Start starts the requested observers, each off when its argument is
// empty: the CPU profile (written to cpuProfile until Close), the heap
// profile (written to memProfile at Close, after a GC so it shows live
// memory rather than garbage), the pprof endpoint on pprofAddr and the
// decision trace appended to trace. name prefixes the notices written
// to stderr. On error nothing is left running.
func Start(name string, stderr io.Writer, cpuProfile, memProfile, pprofAddr, trace string) (*Observer, error) {
	o := &Observer{memPath: memProfile}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		o.cpuFile = f
	}
	if trace != "" {
		t, err := obs.OpenJSONL(trace)
		if err != nil {
			o.memPath = ""
			o.Close()
			return nil, err
		}
		o.trace = t
		fmt.Fprintf(stderr, "%s: tracing decisions to %s\n", name, trace)
	}
	if pprofAddr != "" {
		// A nil handler serves the default mux, where the blank
		// net/http/pprof import registered its handlers. A listen
		// error is reported but does not stop the run it observes.
		srv, done := &http.Server{Addr: pprofAddr}, make(chan struct{})
		go func() {
			defer close(done)
			if err := srv.ListenAndServe(); err != http.ErrServerClosed {
				fmt.Fprintf(stderr, "%s: pprof: %v\n", name, err)
			}
		}()
		o.pprof, o.pprofDone = srv, done
		fmt.Fprintf(stderr, "%s: pprof listening on http://%s/debug/pprof/\n", name, pprofAddr)
	}
	return o, nil
}

// Tracer returns the run's decision tracer: nil when tracing is off,
// which is the engine's zero-cost path.
func (o *Observer) Tracer() obs.Tracer {
	if o.trace == nil {
		return nil
	}
	return o.trace
}

// Close stops the pprof endpoint and the CPU profile, writes the heap
// profile and flushes the trace, returning the first error of the
// files. A trace write error is sticky and surfaces here, so a run
// whose trace was truncated fails instead of passing silently.
func (o *Observer) Close() error {
	if o.pprof != nil {
		// The endpoint only watched the run; failing to close its
		// listener cannot make the run's output wrong.
		_ = o.pprof.Close()
		<-o.pprofDone
	}
	var first error
	if o.cpuFile != nil {
		pprof.StopCPUProfile()
		first = o.cpuFile.Close()
	}
	if o.memPath != "" {
		if err := writeHeapProfile(o.memPath); first == nil {
			first = err
		}
	}
	if o.trace != nil {
		if err := o.trace.Close(); first == nil {
			first = err
		}
	}
	return first
}

// writeHeapProfile dumps the live heap after a GC.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
