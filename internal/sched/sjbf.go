package sched

import (
	"slices"
	"sort"

	"repro/internal/job"
)

// blockCap bounds the number of jobs one block of the SJBF index holds.
const blockCap = 128

// sjbfIndex holds EASY-SJBF's waiting jobs in predLess order, cut into
// consecutive blocks. Each block records its narrowest width, so the
// backfill search rules out a whole block of jobs too wide to start with
// one comparison, and an insert or a removal shifts the jobs of one block
// instead of the whole backlog.
//
// Invariants (checked after every step by the oracle test):
//   - no block is empty or holds more than blockCap jobs;
//   - a block's procs are its jobs' widths, its minProcs the narrowest
//     of them, and nMin counts its jobs of that width;
//   - any two adjacent blocks hold more than blockCap/2 jobs together,
//     so the blocks are a quarter full on average and a walk over them
//     costs at most about 4n/blockCap block visits.
//
// Emptied blocks are kept for reuse, so a steady state of inserts and
// removals allocates nothing.
type sjbfIndex struct {
	blocks []sjbfBlock
	n      int
	spare  []sjbfBlock
	sorted []*job.Job // rebuild scratch
}

type sjbfBlock struct {
	jobs []*job.Job
	// procs[i] is jobs[i].Procs, so a scan for a narrow job and a
	// recount of the narrowest width read no job.
	procs    []int64
	minProcs int64
	// nMin lets a removal keep minProcs exact without a recount unless
	// the last job of the narrowest width leaves.
	nMin int
}

// predLess is the SJBF scan order: shortest prediction first, with
// submission time and job ID as deterministic tie-breakers. Predictions
// are fixed while a job waits (corrections only touch running jobs), so
// an index sorted by predLess stays sorted until jobs enter or leave.
// Keys can still tie (a live run accepts a reused ID), and every sort of
// candidates is stable, so tied jobs keep arrival order.
func predLess(a, b *job.Job) bool {
	if a.Prediction != b.Prediction {
		return a.Prediction < b.Prediction
	}
	if a.Submit != b.Submit {
		return a.Submit < b.Submit
	}
	return a.ID < b.ID
}

// predCmp is predLess as a three-way comparison, for the stable sorts.
func predCmp(a, b *job.Job) int {
	switch {
	case predLess(a, b):
		return -1
	case predLess(b, a):
		return 1
	}
	return 0
}

// len returns the number of indexed jobs.
func (x *sjbfIndex) len() int { return x.n }

// reset empties the index, keeping its blocks for reuse.
func (x *sjbfIndex) reset() {
	for _, b := range x.blocks {
		x.recycle(b)
	}
	clear(x.blocks)
	x.blocks = x.blocks[:0]
	x.n = 0
}

// rebuild replaces the index with queue's jobs. The sort is stable, so
// jobs with equal keys keep queue (arrival) order, which is the order
// insert gives them and the order ReferenceEASY scans them in.
func (x *sjbfIndex) rebuild(queue []*job.Job) {
	x.reset()
	x.sorted = append(x.sorted[:0], queue...)
	slices.SortStableFunc(x.sorted, predCmp)
	for s := x.sorted; len(s) > 0; {
		k := min(len(s), blockCap/2)
		b := x.alloc()
		b.appendJobs(s[:k], nil)
		x.blocks = append(x.blocks, b)
		s = s[k:]
	}
	x.n = len(queue)
	clear(x.sorted)
}

// insert adds j after every job whose key is not greater.
func (x *sjbfIndex) insert(j *job.Job) {
	x.n++
	if len(x.blocks) == 0 {
		x.blocks = append(x.blocks, x.alloc())
	}
	// j belongs in the first block whose last job sorts after it, or
	// at the very end.
	bi := sort.Search(len(x.blocks)-1, func(i int) bool { return predLess(j, x.blocks[i].last()) })
	if len(x.blocks[bi].jobs) == blockCap {
		x.split(bi)
		if !predLess(j, x.blocks[bi].last()) {
			bi++
		}
	}
	b := &x.blocks[bi]
	i := sort.Search(len(b.jobs), func(i int) bool { return predLess(j, b.jobs[i]) })
	b.jobs = append(b.jobs, nil)
	copy(b.jobs[i+1:], b.jobs[i:])
	b.jobs[i] = j
	b.procs = append(b.procs, 0)
	copy(b.procs[i+1:], b.procs[i:])
	b.procs[i] = j.Procs
	b.add(j.Procs)
}

// remove deletes j and reports whether the index held it. Jobs with
// keys equal to j's are told apart by identity.
func (x *sjbfIndex) remove(j *job.Job) bool {
	bi := sort.Search(len(x.blocks), func(i int) bool { return !predLess(x.blocks[i].last(), j) })
	for ; bi < len(x.blocks); bi++ {
		b := &x.blocks[bi]
		for i := sort.Search(len(b.jobs), func(i int) bool { return !predLess(b.jobs[i], j) }); i < len(b.jobs); i++ {
			if b.jobs[i] == j {
				x.removeAt(bi, i)
				return true
			}
			if predLess(j, b.jobs[i]) {
				return false // past every job with j's key
			}
		}
	}
	return false
}

// removeAt deletes the i-th job of block bi, dropping the block once it
// is empty and merging it into a neighbor once they fit half a block.
func (x *sjbfIndex) removeAt(bi, i int) {
	x.n--
	b := &x.blocks[bi]
	p, n := b.procs[i], len(b.jobs)-1
	copy(b.jobs[i:], b.jobs[i+1:])
	copy(b.procs[i:], b.procs[i+1:])
	b.jobs[n] = nil // one store, where slices.Delete's clear costs a bulk barrier
	b.jobs, b.procs = b.jobs[:n], b.procs[:n]
	if n == 0 {
		x.recycle(*b)
		x.blocks = slices.Delete(x.blocks, bi, bi+1)
		x.mergeNext(bi - 1)
		return
	}
	b.drop(p)
	x.mergeNext(bi)
	x.mergeNext(bi - 1)
}

// first returns the first job in index order that may backfill: one
// predicted to complete within cutoff (shadow - now) and no wider than
// free, or one no wider than lim = min(extra, free). This is the EASY
// admission test of ReferenceEASY, given that every job needs at least
// one processor.
//
// The walk skips every block whose narrowest job is wider than its
// bound. While a block's first job completes within cutoff the block may
// hold jobs of either kind, so its bound is free; past the cutoff every
// job is of the second kind, so the bound is lim, and once lim admits
// nothing the rest of the index cannot either. Since lim <= free, a
// block narrower than free is tested first, without reading a job.
func (x *sjbfIndex) first(cutoff, free, lim int64) *job.Job {
	for bi := range x.blocks {
		b := &x.blocks[bi]
		if b.minProcs > free {
			continue
		}
		if b.jobs[0].Prediction > cutoff {
			if lim <= 0 {
				return nil
			}
			if b.minProcs > lim {
				continue
			}
		}
		for i, p := range b.procs {
			if p <= lim || p <= free && b.jobs[i].Prediction <= cutoff {
				return b.jobs[i]
			}
		}
	}
	return nil
}

// split moves the upper half of block bi into a new block after it.
func (x *sjbfIndex) split(bi int) {
	upper := x.alloc()
	b := &x.blocks[bi]
	h := len(b.jobs) / 2
	upper.appendJobs(b.jobs[h:], b.procs[h:])
	clear(b.jobs[h:])
	b.jobs, b.procs = b.jobs[:h], b.procs[:h]
	b.recount()
	x.blocks = slices.Insert(x.blocks, bi+1, upper)
}

// mergeNext folds block bi+1 into block bi when together they hold at
// most half a block, which keeps the adjacency invariant without a merge
// that the next insert would split again.
func (x *sjbfIndex) mergeNext(bi int) {
	if bi < 0 || bi+1 >= len(x.blocks) {
		return
	}
	a, b := &x.blocks[bi], &x.blocks[bi+1]
	if len(a.jobs)+len(b.jobs) > blockCap/2 {
		return
	}
	a.jobs = append(a.jobs, b.jobs...)
	a.procs = append(a.procs, b.procs...)
	switch {
	case b.minProcs < a.minProcs:
		a.minProcs, a.nMin = b.minProcs, b.nMin
	case b.minProcs == a.minProcs:
		a.nMin += b.nMin
	}
	x.recycle(*b)
	x.blocks = slices.Delete(x.blocks, bi+1, bi+2)
}

// alloc returns an empty block, reusing a recycled one if any.
func (x *sjbfIndex) alloc() sjbfBlock {
	if n := len(x.spare); n > 0 {
		b := x.spare[n-1]
		x.spare = x.spare[:n-1]
		return b
	}
	return sjbfBlock{jobs: make([]*job.Job, 0, blockCap), procs: make([]int64, 0, blockCap)}
}

// recycle keeps a block's arrays for reuse, dropping its pointers.
func (x *sjbfIndex) recycle(b sjbfBlock) {
	clear(b.jobs)
	x.spare = append(x.spare, sjbfBlock{jobs: b.jobs[:0], procs: b.procs[:0]})
}

func (b *sjbfBlock) last() *job.Job { return b.jobs[len(b.jobs)-1] }

// appendJobs appends jobs to an empty block and counts their widths;
// procs, when non-nil, already holds them.
func (b *sjbfBlock) appendJobs(jobs []*job.Job, procs []int64) {
	b.jobs = append(b.jobs, jobs...)
	if procs != nil {
		b.procs = append(b.procs, procs...)
	} else {
		for _, j := range jobs {
			b.procs = append(b.procs, j.Procs)
		}
	}
	b.recount()
}

// add counts a job of width p joining the block.
func (b *sjbfBlock) add(p int64) {
	switch {
	case b.nMin == 0 || p < b.minProcs:
		b.minProcs, b.nMin = p, 1
	case p == b.minProcs:
		b.nMin++
	}
}

// drop counts a job of width p leaving the block, which must still
// hold a job.
func (b *sjbfBlock) drop(p int64) {
	if p == b.minProcs {
		if b.nMin--; b.nMin == 0 {
			b.recount()
		}
	}
}

func (b *sjbfBlock) recount() {
	b.minProcs, b.nMin = slices.Min(b.procs), 0
	for _, p := range b.procs {
		if p == b.minProcs {
			b.nMin++
		}
	}
}
