package workload

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"repro/internal/swf"
	"repro/internal/trace"
)

// Source is a lazily pulled stream of job submissions, the bounded-memory
// counterpart of trace.Workload. NextJob returns records in nondecreasing
// SubmitTime order and io.EOF after the last one; any other error is
// fatal to the consuming simulation. Implementations exist for in-memory
// slices (SliceSource), SWF files read incrementally (ScanSource, usually
// wrapped in CleanSource/StatusSource), and the streaming synthetic
// generators (GenSource, stream.go; MultiSource, clients.go). Every
// implementation documents its memory bound — the property that makes
// million-job runs affordable.
type Source interface {
	NextJob() (swf.Job, error)
}

// filler is the copy-free pull the sources of this package share: fill
// writes the next record straight into *dst, which may hold anything
// on error. Each of their NextJob methods is a wrapper around it.
type filler interface {
	fill(dst *swf.Job) error
}

// Pull writes src's next record into *dst, with NextJob's results
// otherwise: io.EOF after the last record, and *dst unspecified on any
// error. A chain of this package's sources hands dst down by pointer,
// so only the sources that buffer records copy them; any other Source
// is pulled through NextJob. dst escapes through the interface call, so
// it should already live on the heap (a slot of a buffer, a field of a
// long-lived struct) rather than be a fresh local per call.
func Pull(src Source, dst *swf.Job) error {
	if f, ok := src.(filler); ok {
		return f.fill(dst)
	}
	j, err := src.NextJob()
	if err != nil {
		return err
	}
	*dst = j
	return nil
}

// SliceSource streams an in-memory job slice. It is how a preloaded
// trace.Workload is fed to the streaming engine — memory is O(len(jobs)),
// already spent by the caller, but the engine still avoids retaining
// per-job runtime state.
type SliceSource struct {
	jobs []swf.Job
	next int
}

// NewSliceSource returns a Source over jobs (not copied; callers must
// not mutate it while streaming).
func NewSliceSource(jobs []swf.Job) *SliceSource {
	return &SliceSource{jobs: jobs}
}

// FromWorkload streams a preloaded workload's jobs.
func FromWorkload(w *trace.Workload) *SliceSource {
	return NewSliceSource(w.Jobs)
}

// NextJob implements Source.
func (s *SliceSource) NextJob() (j swf.Job, err error) { err = s.fill(&j); return }

func (s *SliceSource) fill(dst *swf.Job) error {
	if s.next >= len(s.jobs) {
		return io.EOF
	}
	*dst = s.jobs[s.next]
	s.next++
	return nil
}

// scanBatchLen is how many records a ScanSource parses ahead in one
// batch: 72 KiB of records per array.
const scanBatchLen = 512

// scanBatch is one batch of parsed records, followed by the scanner's
// error (nil when the batch is full).
type scanBatch struct {
	jobs []swf.Job
	err  error
}

// ScanSource adapts an swf.Scanner to the Source interface. The raw
// records are passed through untouched: archive logs should normally be
// wrapped in StatusSource and/or CleanSource before simulation, exactly
// as the preloading path applies swf.ApplyStatus and swf.Clean.
//
// It parses ahead, on a second CPU when one is free: while the consumer
// takes one batch of records, a goroutine parses the next into the
// array the consumer drained before. Each parse goroutine sends its one
// batch into a channel that always has room for it, since the source
// starts a parse only after receiving the previous batch, and then
// ends. So no parse can block, an abandoned source leaves at most one
// batch's parse running, to its end, and nothing needs closing. A
// batch carries the scanner's error after its records; the source hands
// out the records and then returns that error on every call, as
// Scanner.Next does. Memory is two arrays of scanBatchLen records
// beyond the scanner's line buffer, allocated together by the first
// pull with the channel; each batch allocates its goroutine's closure.
type ScanSource struct {
	sc    *swf.Scanner
	ready chan scanBatch // room for one batch
	bufs  [2][]swf.Job
	next  int       // which of bufs the next parse fills
	jobs  []swf.Job // the received batch's records not yet handed out
	err   error     // the received batch's error, once it is the last
}

// NewScanSource wraps a streaming SWF reader. From the source's first
// pull until it has returned an error or io.EOF, only its parse
// goroutines touch sc: read sc.Header() and sc.Line() before the first
// pull or after the end, which the end's receive orders after every
// parse.
func NewScanSource(sc *swf.Scanner) *ScanSource { return &ScanSource{sc: sc} }

// NextJob implements Source.
func (s *ScanSource) NextJob() (j swf.Job, err error) { err = s.fill(&j); return }

func (s *ScanSource) fill(dst *swf.Job) error {
	for len(s.jobs) == 0 {
		if s.err != nil {
			return s.err
		}
		s.receive()
	}
	*dst = s.jobs[0]
	s.jobs = s.jobs[1:]
	return nil
}

// receive waits for the batch in flight and, unless it is the last,
// starts the parse of the one after it into the array just drained.
func (s *ScanSource) receive() {
	if s.ready == nil {
		s.ready = make(chan scanBatch, 1)
		buf := make([]swf.Job, 2*scanBatchLen)
		s.bufs = [2][]swf.Job{buf[:scanBatchLen:scanBatchLen], buf[scanBatchLen:]}
		s.parse()
	}
	b := <-s.ready
	s.jobs, s.err = b.jobs, b.err
	if s.err == nil {
		s.parse()
	}
}

// parse starts one batch's parse into the array it is the turn of.
func (s *ScanSource) parse() {
	buf := s.bufs[s.next]
	s.next ^= 1
	go parseBatch(s.sc, buf, s.ready)
}

// parseBatch fills buf from sc, stopping at its end or the scanner's
// first error, and sends what it parsed.
func parseBatch(sc *swf.Scanner, buf []swf.Job, ready chan<- scanBatch) {
	n := 0
	var err error
	for n < len(buf) {
		if err = sc.NextInto(&buf[n]); err != nil {
			break
		}
		n++
	}
	ready <- scanBatch{buf[:n], err}
}

// CleanSource applies swf.Clean's per-job rules on the fly (shared via
// swf.CleanJob so the paths can never drift): jobs with non-positive
// runtime, processor count or submit time are dropped, jobs wider than
// the machine are dropped, runtimes are capped at the requested time
// and missing requested times default to the runtime. swf.Clean also
// sorts; a stream cannot, but the only silent case — several jobs
// sharing one submit instant, written out of job-number order — is
// reproduced exactly by buffering each instant's run of jobs and
// emitting it in Clean's (SubmitTime, JobNumber) order. Memory is
// bounded by the busiest single submit instant. A genuinely unsorted
// log still fails loudly in the engine's order check and must take the
// preloading path. The first error of src other than io.EOF is final:
// it is returned on that call and every later one, and the jobs
// buffered before it are dropped.
type CleanSource struct {
	src      Source
	maxProcs int64
	// buf[:n] are the current submit instant's cleaned jobs, handed out
	// up to next; while hasPending, buf[n] is the first cleaned job of
	// the following instant. Records are pulled straight into buf.
	buf        []swf.Job
	n, next    int
	hasPending bool
	err        error // src's first error, io.EOF included
}

// NewCleanSource wraps src with the per-job cleaning rules for a machine
// of maxProcs processors (<= 0 skips the capacity check, as in swf.Clean).
func NewCleanSource(src Source, maxProcs int64) *CleanSource {
	return &CleanSource{src: src, maxProcs: maxProcs}
}

// NextJob implements Source.
func (c *CleanSource) NextJob() (j swf.Job, err error) { err = c.fill(&j); return }

func (c *CleanSource) fill(dst *swf.Job) error {
	if c.next >= c.n {
		if err := c.refill(); err != nil {
			return err
		}
	}
	*dst = c.buf[c.next]
	c.next++
	return nil
}

// refill buffers the next submit instant's cleaned jobs, sorted the way
// swf.Clean sorts ties.
func (c *CleanSource) refill() error {
	if c.err != nil {
		return c.err
	}
	n := 0
	if c.hasPending {
		c.buf[0], n, c.hasPending = c.buf[c.n], 1, false
	}
	for {
		if n == len(c.buf) {
			c.buf = append(c.buf, swf.Job{})
		}
		j := &c.buf[n]
		if err := Pull(c.src, j); err != nil {
			c.err = err
			if err != io.EOF || n == 0 {
				return err
			}
			break // the last instant goes out before io.EOF
		}
		if !swf.CleanJob(j, c.maxProcs) {
			continue
		}
		if n > 0 && j.SubmitTime != c.buf[0].SubmitTime {
			c.hasPending = true
			break
		}
		n++
	}
	slices.SortStableFunc(c.buf[:n], func(a, b swf.Job) int {
		return cmp.Compare(a.JobNumber, b.JobNumber)
	})
	c.n, c.next = n, 0
	return nil
}

// StatusSource applies an swf.StatusMode on the fly. Keep, skip and
// truncate are per-job decisions and stream exactly as swf.ApplyStatus
// in O(1) memory; replay is rejected because deriving the cancellation
// script needs the whole log (use the preloading path for replay).
type StatusSource struct {
	src  Source
	mode swf.StatusMode
}

// NewStatusSource wraps src with the status policy.
func NewStatusSource(src Source, mode swf.StatusMode) (*StatusSource, error) {
	if mode == swf.StatusReplay {
		return nil, fmt.Errorf("workload: status mode replay needs the whole log (use the preloading path)")
	}
	return &StatusSource{src: src, mode: mode}, nil
}

// NextJob implements Source.
func (s *StatusSource) NextJob() (j swf.Job, err error) { err = s.fill(&j); return }

func (s *StatusSource) fill(dst *swf.Job) error {
	for {
		if err := Pull(s.src, dst); err != nil {
			return err
		}
		if swf.ApplyStatusJob(dst, s.mode) {
			return nil
		}
	}
}

// prependSource yields buffered records before draining the tail.
type prependSource struct {
	head []swf.Job
	next int
	tail Source
}

// Prepend returns a Source yielding the given records first, then
// everything from src. It is how a consumer that had to peek (e.g. to
// read an SWF header before choosing a machine size) puts the peeked
// records back. Memory is O(len(head)).
func Prepend(head []swf.Job, src Source) Source {
	return &prependSource{head: head, tail: src}
}

// NextJob implements Source.
func (p *prependSource) NextJob() (j swf.Job, err error) { err = p.fill(&j); return }

func (p *prependSource) fill(dst *swf.Job) error {
	if p.next < len(p.head) {
		*dst = p.head[p.next]
		p.next++
		return nil
	}
	return Pull(p.tail, dst)
}

// Collect drains a source into a slice — the bridge back to the
// preloading world, used by tests and by differential harnesses that
// need the same stream twice.
func Collect(src Source) ([]swf.Job, error) {
	var jobs []swf.Job
	for {
		j, err := src.NextJob()
		if err == io.EOF {
			return jobs, nil
		}
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
}
