package main

import (
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Host-speed calibration.
//
// On a shared VM the host's speed drifts over minutes: in ten
// consecutive runs of one workload with identical inputs the wall time
// spread by 11-20% (interquartile range over median), with the slow and
// the fast runs in stretches, so no statistic taken within one run holds
// still. The drift hits any code that works in the caches the way the
// simulator does: timed in turns with a grid cell, a sort-and-map kernel
// moved with the cell (correlation 0.97 over 5 s windows) while pure
// register arithmetic did not, and the cell's time over the kernel's
// stayed within 3% as the cell's own time moved by 20%.
//
// The simulation workloads therefore time refKernel in short bursts
// between pieces of their timed work, on the same goroutine, and report
// their end-to-end times as they would read on a host where the kernel
// takes refKernelNs: times are divided by the slowdown, rates multiplied
// by it. The raw values are in the log, and the slowdown is the
// per-layer metric host.slowdown. refKernel does not follow the daemon,
// whose time goes to HTTP and goroutine hand-offs (scaling by it widened
// the spread of the daemon's saturation rate from 10% to 24% over five
// seeds), so the daemon times httpKernel instead.

// refKernelNs is about refKernel's mean time, and httpKernelNs about
// httpKernel's, on the 2-vCPU Intel Xeon VM the benchmark was written
// on.
const (
	refKernelNs  = 200_000
	httpKernelNs = 60_000
)

// burstRuns is how many times one burst runs the kernel, about 20 ms.
const burstRuns = 100

// refKernel is a fixed, allocation-free mix of integer arithmetic,
// sorting and map traffic.
type refKernel struct {
	buf  []int
	m    map[int]int
	sink int
}

func (k *refKernel) run() {
	x := uint64(88172645463325252)
	for i := range k.buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.buf[i] = int(x % 100000)
	}
	sort.Ints(k.buf)
	clear(k.m)
	for i, v := range k.buf {
		k.m[v] += i
	}
	for _, v := range k.buf {
		k.sink += k.m[v]
	}
}

// httpKernel is one bare HTTP POST round trip over loopback to a
// handler that drains the body and answers 200: the daemon's request
// path without the daemon.
type httpKernel struct {
	srv  *http.Server
	url  string
	hc   *http.Client
	body string
}

func newHTTPKernel() (*httpKernel, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	k := &httpKernel{
		srv: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"ok":true}`)
		})},
		url:  "http://" + ln.Addr().String() + "/",
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		body: `{"session":"a","job":{"number":1,"submit":0,"procs":1,"request":60,"runtime":30,"user":1}}`,
	}
	go k.srv.Serve(ln)
	return k, nil
}

func (k *httpKernel) run() {
	resp, err := k.hc.Post(k.url, "application/json", strings.NewReader(k.body))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

func (k *httpKernel) close() {
	k.srv.Close()
	k.hc.CloseIdleConnections()
}

// calibrator keeps a run's kernel times and the time its bursts took,
// which the timed work must leave out.
type calibrator struct {
	k     interface{ run() }
	refNs float64
	ns    []float64
	spent time.Duration
}

func newCalibrator() *calibrator {
	return &calibrator{k: &refKernel{buf: make([]int, 2048), m: make(map[int]int, 2048)}, refNs: refKernelNs}
}

// burst runs the kernel burstRuns times, timing each run.
func (c *calibrator) burst() {
	t0 := time.Now()
	for i := 0; i < burstRuns; i++ {
		t := time.Now()
		c.k.run()
		c.ns = append(c.ns, float64(time.Since(t)))
	}
	c.spent += time.Since(t0)
}

// slowdown is the kernel's mean time over refKernelNs, leaving out the
// slowest 2% of runs (preemptions): above 1 on a host slower than the
// reference, 1 when nothing was sampled.
func (c *calibrator) slowdown() float64 {
	if len(c.ns) == 0 {
		return 1
	}
	s := append([]float64(nil), c.ns...)
	sort.Float64s(s)
	s = s[:len(s)-len(s)/50]
	return sumFloats(s) / float64(len(s)) / c.refNs
}
