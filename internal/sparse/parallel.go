package sparse

import (
	"runtime"
	"slices"

	"graphmat/internal/sched"
)

// This file is the parallel half of the ingestion pipeline: a stable parallel
// merge sort and a boundary-aligned parallel dedup over COO, and a concurrent
// per-partition DCSC build. Every function here is bit-identical to its
// sequential counterpart — same entry order, same partition arrays — which is
// what makes parallel ingestion safe to enable by default (and what the
// differential tests assert).

const (
	// minParallelSort is the slice length below which chunked sorting is not
	// worth the goroutine overhead.
	minParallelSort = 1 << 13
	// minParallelDedup is the slice length below which dedup runs serially.
	minParallelDedup = 1 << 15
)

// Workers resolves a worker-count option: 0 (or negative) means GOMAXPROCS,
// anything else is taken literally.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ParallelFor runs fn(i) for every i in [0, n) across min(workers, n)
// executors on the process-wide scheduler pool (work-stealing dynamic
// scheduling, the paper's §4.5 recipe). workers ≤ 1 runs inline. It returns
// after every call completes.
func ParallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	sched.Shared(workers).Run(n, nil, func(i, _ int) { fn(i) })
}

// SortColMajorParallel is SortColMajor on workers goroutines (0 =
// GOMAXPROCS): sorted chunks merged pairwise, stable end to end, so the
// result is identical to the sequential sort.
func (c *COO[E]) SortColMajorParallel(workers int) {
	parallelSortStable(c.Entries, cmpColMajor[E], Workers(workers))
}

// SortRowMajorParallel is SortRowMajor on workers goroutines (0 = GOMAXPROCS).
func (c *COO[E]) SortRowMajorParallel(workers int) {
	parallelSortStable(c.Entries, cmpRowMajor[E], Workers(workers))
}

// parallelSortStable sorts entries with cmp: the slice is cut into one chunk
// per worker, chunks sort concurrently, then adjacent runs merge pairwise
// (ties taken from the left run) until one remains. Left-preference makes
// every round stable, so the final order equals a sequential stable sort.
func parallelSortStable[E any](entries []Triple[E], cmp func(a, b Triple[E]) int, workers int) {
	n := len(entries)
	if workers <= 1 || n < minParallelSort {
		slices.SortStableFunc(entries, cmp)
		return
	}
	nchunks := workers
	if nchunks > n/minParallelSort+1 {
		nchunks = n/minParallelSort + 1
	}
	bounds := make([]int, nchunks+1)
	for i := 0; i <= nchunks; i++ {
		bounds[i] = i * n / nchunks
	}
	ParallelFor(nchunks, workers, func(i int) {
		slices.SortStableFunc(entries[bounds[i]:bounds[i+1]], cmp)
	})

	buf := make([]Triple[E], n)
	src, dst := entries, buf
	for len(bounds) > 2 {
		merged := make([]int, 0, len(bounds)/2+2)
		merged = append(merged, 0)
		type job struct{ lo, mid, hi int }
		var jobs []job
		i := 0
		for ; i+2 < len(bounds); i += 2 {
			jobs = append(jobs, job{bounds[i], bounds[i+1], bounds[i+2]})
			merged = append(merged, bounds[i+2])
		}
		if i+1 < len(bounds) { // odd run out: carry it over unmerged
			copy(dst[bounds[i]:bounds[i+1]], src[bounds[i]:bounds[i+1]])
			merged = append(merged, bounds[i+1])
		}
		ParallelFor(len(jobs), workers, func(j int) {
			jb := jobs[j]
			mergeStable(dst[jb.lo:jb.hi], src[jb.lo:jb.mid], src[jb.mid:jb.hi], cmp)
		})
		bounds = merged
		src, dst = dst, src
	}
	if n > 0 && &src[0] != &entries[0] {
		copy(entries, src)
	}
}

// mergeStable merges sorted runs a and b into dst (len(dst) = len(a)+len(b)),
// taking from a on ties.
func mergeStable[E any](dst, a, b []Triple[E], cmp func(x, y Triple[E]) int) {
	k := 0
	for len(a) > 0 && len(b) > 0 {
		if cmp(b[0], a[0]) < 0 {
			dst[k] = b[0]
			b = b[1:]
		} else {
			dst[k] = a[0]
			a = a[1:]
		}
		k++
	}
	copy(dst[k:], a)
	copy(dst[k+len(a):], b)
}

// DedupSumParallel is DedupSum on workers goroutines (0 = GOMAXPROCS). The
// receiver must already be sorted. Worker ranges are aligned so no duplicate
// group spans two ranges, which makes the result identical to the sequential
// dedup.
func (c *COO[E]) DedupSumParallel(combine func(a, b E) E, workers int) {
	workers = Workers(workers)
	n := len(c.Entries)
	if workers <= 1 || n < minParallelDedup {
		c.DedupSum(combine)
		return
	}
	bounds := []int{0}
	for i := 1; i < workers; i++ {
		p := i * n / workers
		if p <= bounds[len(bounds)-1] {
			continue
		}
		// Push the cut forward past any run of the same (row, col) key so a
		// group is deduplicated by exactly one worker.
		for p < n && c.Entries[p].Row == c.Entries[p-1].Row && c.Entries[p].Col == c.Entries[p-1].Col {
			p++
		}
		if p > bounds[len(bounds)-1] && p < n {
			bounds = append(bounds, p)
		}
	}
	bounds = append(bounds, n)

	nranges := len(bounds) - 1
	lens := make([]int, nranges)
	ParallelFor(nranges, workers, func(r int) {
		sub := COO[E]{Entries: c.Entries[bounds[r]:bounds[r+1]]}
		sub.DedupSum(combine)
		lens[r] = len(sub.Entries)
	})
	out := lens[0]
	for r := 1; r < nranges; r++ {
		copy(c.Entries[out:], c.Entries[bounds[r]:bounds[r]+lens[r]])
		out += lens[r]
	}
	c.Entries = c.Entries[:out]
}

// DedupKeepFirstParallel is DedupKeepFirst on workers goroutines
// (0 = GOMAXPROCS).
func (c *COO[E]) DedupKeepFirstParallel(workers int) {
	c.DedupSumParallel(func(a, _ E) E { return a }, workers)
}

// BuildPartitionedDCSCParallel splits the matrix into nparts row partitions
// balanced by nonzeros and builds one DCSC per partition, the builds running
// on workers goroutines (0 = GOMAXPROCS). The input must be col-major sorted
// and deduplicated. A single stable scatter pass buckets the entries by
// partition first, so total work is O(nnz + Σ partition builds) instead of
// the naive O(nnz × nparts) rescan, and each partition sees exactly the
// subsequence of entries BuildDCSC would have filtered — the output is
// bit-identical to a per-partition BuildDCSC at any worker count.
func BuildPartitionedDCSCParallel[E any](c *COO[E], nparts, workers int) []*DCSC[E] {
	workers = Workers(workers)
	bounds := PartitionRows(c.RowCounts(), nparts)

	// Row → partition lookup (bounds are contiguous and nondecreasing).
	rowPart := make([]uint32, c.NRows)
	for p := 0; p < nparts; p++ {
		for r := bounds[p]; r < bounds[p+1]; r++ {
			rowPart[r] = uint32(p)
		}
	}
	counts := make([]int, nparts)
	for _, t := range c.Entries {
		counts[rowPart[t.Row]]++
	}
	frags := make([][]Triple[E], nparts)
	for p := range frags {
		frags[p] = make([]Triple[E], 0, counts[p])
	}
	for _, t := range c.Entries {
		p := rowPart[t.Row]
		frags[p] = append(frags[p], t)
	}

	parts := make([]*DCSC[E], nparts)
	ParallelFor(nparts, workers, func(p int) {
		fc := &COO[E]{NRows: c.NRows, NCols: c.NCols, Entries: frags[p]}
		parts[p] = BuildDCSC(fc, bounds[p], bounds[p+1])
	})
	return parts
}
