package sparse

import (
	"fmt"
	"runtime"

	"graphmat/internal/sched"
)

// This file is the parallel half of the ingestion pipeline: the counting sort
// behind every COO sort, a boundary-aligned parallel dedup over COO, and a
// concurrent per-partition DCSC build. Every function here is bit-identical
// at every worker count — same entry order, same partition arrays — which is
// what makes parallel ingestion safe to enable by default (and what the
// differential tests assert).

// minParallelDedup is the slice length below which dedup runs serially.
const minParallelDedup = 1 << 15

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
// GOMAXPROCS); the result is the same at every worker count.
func (c *COO[E]) SortColMajorParallel(workers int) {
	sortTriples(c, true, Workers(workers))
}

// SortRowMajorParallel is SortRowMajor on workers goroutines (0 = GOMAXPROCS).
func (c *COO[E]) SortRowMajorParallel(workers int) {
	sortTriples(c, false, Workers(workers))
}

// sortTriples stably sorts c's entries by (col, row) when byCol, else by
// (row, col): a least-significant-key-first radix sort of two counting
// passes, by the minor key and then by the major key, O(m + NRows + NCols).
// Both passes are stable, so entries with equal keys keep their input order —
// DedupKeepFirst's "first" is then the first occurrence in the input, not an
// artifact of the sort. The first pass moves the entries into one m-sized
// buffer and the second moves them back. An input already in order inside
// the matrix — a row-major sorted adjacency transposed for a col-major sort,
// as every graph build does with a normalized or symmetrized input — is left
// as it is after one O(m) check, before the buffer is allocated.
//
// Every entry must lie inside the NRows×NCols matrix (Validate checks it); an
// entry outside panics, naming the entry and the dimensions.
func sortTriples[E any](c *COO[E], byCol bool, workers int) {
	if sortedInside(c.Entries, c.NRows, c.NCols, byCol) {
		return
	}
	buf := make([]Triple[E], len(c.Entries))
	countingPass(buf, c.Entries, c.NRows, c.NCols, !byCol, workers)
	countingPass(c.Entries, buf, c.NRows, c.NCols, byCol, workers)
}

// sortedInside reports whether every entry lies inside the nrows×ncols
// matrix and the keys — (col, row) when byCol, else (row, col) — never
// decrease: then the stable sort is the identity. An entry outside the matrix
// answers false, so the sort itself raises the panic.
func sortedInside[E any](entries []Triple[E], nrows, ncols uint32, byCol bool) bool {
	var prev uint64
	for _, t := range entries {
		if t.Row >= nrows || t.Col >= ncols {
			return false
		}
		key := uint64(t.Row)<<32 | uint64(t.Col)
		if byCol {
			key = uint64(t.Col)<<32 | uint64(t.Row)
		}
		if key < prev {
			return false
		}
		prev = key
	}
	return true
}

// countingPass stably scatters src into dst by Col when byCol, else by Row.
// The histogram and the scatter each run over up to workers contiguous chunks
// of src, only as many as each hold at least one key range's worth of
// entries. A key's slots in dst go to the chunks in chunk order, so the
// result is the same at every chunk count.
func countingPass[E any](dst, src []Triple[E], nrows, ncols uint32, byCol bool, workers int) {
	nkeys := int(nrows)
	if byCol {
		nkeys = int(ncols)
	}
	m := len(src)
	nchunks := max(1, min(workers, m/max(nkeys, 1)))
	chunk := func(ch int) []Triple[E] { return src[ch*m/nchunks : (ch+1)*m/nchunks] }
	// next[ch*nkeys+k] counts chunk ch's entries with key k, then holds the
	// dst slot of the next one.
	next := make([]int, nchunks*nkeys)
	// bad[ch] is 1 + the src index of chunk ch's first entry outside the
	// matrix, or 0.
	bad := make([]int, nchunks)
	ParallelFor(nchunks, workers, func(ch int) {
		cnt := next[ch*nkeys : (ch+1)*nkeys]
		for i, t := range chunk(ch) {
			if t.Row >= nrows || t.Col >= ncols {
				bad[ch] = ch*m/nchunks + i + 1
				return
			}
			k := t.Row
			if byCol {
				k = t.Col
			}
			cnt[k]++
		}
	})
	for _, i := range bad {
		if i > 0 {
			t := src[i-1]
			panic(fmt.Sprintf("sparse: sorting entry %d (%d,%d) outside %dx%d matrix", i-1, t.Row, t.Col, nrows, ncols)) //lint:graphmat bannedcalls the sort's precondition, raised once on the caller, off the per-entry loops
		}
	}
	slot := 0
	for k := 0; k < nkeys; k++ {
		for ch := 0; ch < nchunks; ch++ {
			i := ch*nkeys + k
			next[i], slot = slot, slot+next[i]
		}
	}
	ParallelFor(nchunks, workers, func(ch int) {
		at := next[ch*nkeys : (ch+1)*nkeys]
		for _, t := range chunk(ch) {
			k := t.Row
			if byCol {
				k = t.Col
			}
			dst[at[k]] = t
			at[k]++
		}
	})
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
