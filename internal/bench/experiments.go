package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"graphmat/internal/counters"
	"graphmat/internal/sparse"
)

// Options configures an experiment sweep.
type Options struct {
	// Shift scales every dataset by 2^Shift relative to the laptop-class
	// defaults (0); positive approaches paper scale.
	Shift int
	// Threads is the worker count for Figure 4/6/7 runs (0: GOMAXPROCS).
	Threads int
	// MaxThreads caps the Figure 5 sweep (0: GOMAXPROCS).
	MaxThreads int
	// PRIters / CFIters are the fixed iteration counts for the
	// time-per-iteration plots (defaults 10 / 5).
	PRIters, CFIters int
	// Repeats is how many warm runs follow each measurement's cold first
	// run; the minimum is kept (default 1).
	Repeats int
	// SpGEMMCap bounds CombBLAS TC's materialized intermediate.
	SpGEMMCap int64
	// Frameworks restricts the frameworks run (nil: Fig4Frameworks+Native).
	Frameworks []string
	// DatasetFilter restricts datasets by substring match (empty: all).
	DatasetFilter string
	// Verbose prints progress lines while running.
	Verbose bool
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	if o.MaxThreads <= 0 {
		o.MaxThreads = runtime.GOMAXPROCS(0)
	}
	if o.PRIters <= 0 {
		o.PRIters = 10
	}
	if o.CFIters <= 0 {
		o.CFIters = 5
	}
	if o.Repeats <= 0 {
		o.Repeats = 1
	}
	return o
}

func (o Options) wantFramework(name string) bool {
	if len(o.Frameworks) == 0 {
		return true
	}
	for _, f := range o.Frameworks {
		if f == name {
			return true
		}
	}
	return false
}

func (o Options) wantDataset(name string) bool {
	return o.DatasetFilter == "" || strings.Contains(strings.ToLower(name), strings.ToLower(o.DatasetFilter))
}

func (o Options) progress(format string, args ...any) {
	if o.Verbose {
		fmt.Printf("# "+format+"\n", args...)
	}
}

// Cell is one measured (dataset, framework) point.
type Cell struct {
	// ColdSeconds is the first run after Prepare: for GraphMat it includes
	// the lazily built traversal views (EdgeCols, RowIndex) the run needed.
	ColdSeconds float64
	// Seconds is the best of the warm runs that followed — total wall time
	// (divide by iterations for per-iter plots).
	Seconds float64
	Value   float64
	Set     counters.Set
	Err     error
}

// Fig4Result holds one Figure 4 subplot's measurements.
type Fig4Result struct {
	Algorithm  string // "PageRank", "BFS", "TC", "CF", "SSSP"
	PerIter    int    // >0: report Seconds/PerIter (PR and CF plots)
	Datasets   []string
	Frameworks []string
	Cells      map[string]map[string]Cell // dataset → framework → cell
}

// measure times a runner's first run after Prepare as the cold time, then
// runs it repeats more times keeping the fastest, paper-style, as the warm
// time. A failed first run is returned as is.
func measure(r Runner, repeats int) Cell {
	r.Prepare()
	timed := func() (RunResult, float64) {
		start := time.Now()
		res := r.Execute()
		return res, time.Since(start).Seconds()
	}
	res, cold := timed()
	best := Cell{ColdSeconds: cold, Value: res.Value, Err: res.Err}
	if res.Err != nil {
		return best
	}
	for i := 0; i < repeats; i++ {
		res, el := timed()
		if i == 0 || el < best.Seconds {
			best.Seconds, best.Value, best.Set, best.Err = el, res.Value, res.Set, res.Err
			best.Set.WallSeconds = el
		}
	}
	return best
}

// datasetsFor selects Table 1 datasets running a given algorithm tag.
func datasetsFor(algo string, o Options) []Dataset {
	var out []Dataset
	for _, d := range Datasets() {
		if strings.Contains(d.Algorithms, algo) && o.wantDataset(d.Name) {
			out = append(out, d)
		}
	}
	return out
}

func runFig4(algo string, o Options, runners func(data *sparse.COO[float32]) []Runner) *Fig4Result {
	res := &Fig4Result{Algorithm: algo, Cells: map[string]map[string]Cell{}}
	for _, d := range datasetsFor(algo, o) {
		data := d.Generate(o.Shift)
		res.Datasets = append(res.Datasets, d.Name)
		res.Cells[d.Name] = map[string]Cell{}
		for _, r := range runners(data) {
			if !o.wantFramework(r.Framework) {
				continue
			}
			o.progress("%s / %s / %s", algo, d.Name, r.Framework)
			res.Cells[d.Name][r.Framework] = measure(r, o.Repeats)
		}
	}
	for _, f := range append(append([]string{}, Fig4Frameworks...), FwNative) {
		if o.wantFramework(f) {
			res.Frameworks = append(res.Frameworks, f)
		}
	}
	return res
}

// Fig4a measures PageRank time per iteration (Figure 4a).
func Fig4a(o Options) *Fig4Result {
	o = o.withDefaults()
	r := runFig4("PR", o, func(data *sparse.COO[float32]) []Runner {
		return PageRankRunners(data, o.Threads, o.PRIters)
	})
	r.Algorithm = "PageRank"
	r.PerIter = o.PRIters
	return r
}

// Fig4b measures BFS total time (Figure 4b).
func Fig4b(o Options) *Fig4Result {
	o = o.withDefaults()
	r := runFig4("BFS", o, func(data *sparse.COO[float32]) []Runner {
		return BFSRunners(data, o.Threads)
	})
	r.Algorithm = "BFS"
	return r
}

// Fig4c measures triangle counting total time (Figure 4c).
func Fig4c(o Options) *Fig4Result {
	o = o.withDefaults()
	r := runFig4("TC", o, func(data *sparse.COO[float32]) []Runner {
		return TCRunners(data, o.Threads, o.SpGEMMCap)
	})
	r.Algorithm = "TriangleCounting"
	return r
}

// Fig4d measures collaborative filtering time per iteration (Figure 4d).
func Fig4d(o Options) *Fig4Result {
	o = o.withDefaults()
	r := runFig4("CF", o, func(data *sparse.COO[float32]) []Runner {
		return CFRunners(data, o.Threads, o.CFIters)
	})
	r.Algorithm = "CollaborativeFiltering"
	r.PerIter = o.CFIters
	return r
}

// Fig4e measures SSSP total time (Figure 4e).
func Fig4e(o Options) *Fig4Result {
	o = o.withDefaults()
	r := runFig4("SSSP", o, func(data *sparse.COO[float32]) []Runner {
		return SSSPRunners(data, o.Threads, 8)
	})
	r.Algorithm = "SSSP"
	return r
}

// Table renders a Fig4Result in the paper's layout: datasets as rows,
// frameworks as columns.
func (r *Fig4Result) Table() *Table {
	unit := "total time"
	if r.PerIter > 0 {
		unit = fmt.Sprintf("time/iteration (over %d iterations)", r.PerIter)
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 4: %s (%s)", r.Algorithm, unit),
		Caption: "lower is better; cold = first run after setup, warm = best of the rest; * = architectural stand-in (DESIGN.md)",
		Header:  []string{"dataset"},
	}
	for _, f := range r.Frameworks {
		t.Header = append(t.Header, f+" cold", f+" warm")
	}
	per := float64(max(r.PerIter, 1))
	for _, d := range r.Datasets {
		row := []string{d}
		for _, f := range r.Frameworks {
			c, ok := r.Cells[d][f]
			switch {
			case !ok:
				row = append(row, "-", "-")
			case c.Err != nil:
				row = append(row, "FAIL(OOM)", "FAIL(OOM)")
			default:
				row = append(row, FormatSeconds(c.ColdSeconds/per), FormatSeconds(c.Seconds/per))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Speedups returns GraphMat's speedup over a framework per dataset (the
// Table 2 inputs). Failed runs are skipped.
func (r *Fig4Result) Speedups(framework string) []float64 {
	var out []float64
	for _, d := range r.Datasets {
		gm, ok1 := r.Cells[d][FwGraphMat]
		other, ok2 := r.Cells[d][framework]
		if ok1 && ok2 && gm.Err == nil && other.Err == nil && gm.Seconds > 0 {
			out = append(out, other.Seconds/gm.Seconds)
		}
	}
	return out
}

// Table2 computes the paper's Table 2 from the five Figure 4 results:
// geometric-mean speedup of GraphMat over each framework per algorithm plus
// the overall geomean.
func Table2(results []*Fig4Result) *Table {
	baselines := []string{FwGraphLab, FwCombBLAS, FwGalois}
	t := &Table{
		Title:   "Table 2: GraphMat speedup summary (geomean; higher = GraphMat faster)",
		Caption: "paper: GraphLab 5.8x, CombBLAS 6.9x, Galois 1.2x overall",
	}
	t.Header = []string{"baseline"}
	for _, r := range results {
		t.Header = append(t.Header, r.Algorithm)
	}
	t.Header = append(t.Header, "Overall")
	for _, b := range baselines {
		row := []string{b}
		var all []float64
		for _, r := range results {
			sp := r.Speedups(b)
			all = append(all, sp...)
			if len(sp) == 0 {
				row = append(row, "-")
			} else {
				row = append(row, FormatRatio(geomean(sp)))
			}
		}
		row = append(row, FormatRatio(geomean(all)))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table3 computes the paper's Table 3: GraphMat slowdown vs native code per
// algorithm (geomean across datasets) and overall, cold run against cold run
// and warm against warm. Values above 1 mean native is faster.
func Table3(results []*Fig4Result) *Table {
	t := &Table{
		Title:   "Table 3: GraphMat slowdown vs native, hand-optimized code",
		Caption: "paper: PR 1.15, BFS 1.18, TC 2.10, CF 0.73, geomean 1.20 (SSSP not in paper's table)",
		Header:  []string{"algorithm", "cold", "warm"},
	}
	var allCold, allWarm []float64
	for _, r := range results {
		var cold, warm []float64
		for _, d := range r.Datasets {
			gm, ok1 := r.Cells[d][FwGraphMat]
			nat, ok2 := r.Cells[d][FwNative]
			if ok1 && ok2 && gm.Err == nil && nat.Err == nil && nat.Seconds > 0 && nat.ColdSeconds > 0 {
				cold = append(cold, gm.ColdSeconds/nat.ColdSeconds)
				warm = append(warm, gm.Seconds/nat.Seconds)
			}
		}
		allCold = append(allCold, cold...)
		allWarm = append(allWarm, warm...)
		if len(warm) > 0 {
			t.Rows = append(t.Rows, []string{r.Algorithm, FormatRatio(geomean(cold)), FormatRatio(geomean(warm))})
		}
	}
	t.Rows = append(t.Rows, []string{"Overall (Geomean)", FormatRatio(geomean(allCold)), FormatRatio(geomean(allWarm))})
	return t
}

// Fig5 measures multicore scalability (Figure 5): speedup over each
// framework's own single-thread time for PageRank on the Facebook stand-in
// (5a) and SSSP on the Flickr stand-in (5b).
func Fig5(o Options) []*Table {
	o = o.withDefaults()
	type plot struct {
		name    string
		dataset string
		runners func(data *sparse.COO[float32], threads int) []Runner
	}
	plots := []plot{
		{"Figure 5a: PageRank scalability (facebook stand-in)", "Facebook",
			func(d *sparse.COO[float32], th int) []Runner { return PageRankRunners(d, th, o.PRIters) }},
		{"Figure 5b: SSSP scalability (flickr stand-in)", "Flickr",
			func(d *sparse.COO[float32], th int) []Runner { return SSSPRunners(d, th, 8) }},
	}
	threadCounts := []int{}
	for th := 1; th <= o.MaxThreads; th *= 2 {
		threadCounts = append(threadCounts, th)
	}
	if last := threadCounts[len(threadCounts)-1]; last != o.MaxThreads {
		threadCounts = append(threadCounts, o.MaxThreads)
	}

	var tables []*Table
	for _, p := range plots {
		ds, ok := DatasetByName(p.dataset)
		if !ok {
			continue
		}
		data := ds.Generate(o.Shift)
		t := &Table{
			Title:   p.name,
			Caption: "speedup vs the same framework's 1-thread run; paper: GraphMat scales 13-15x on 24 cores",
			Header:  []string{"threads"},
		}
		base := map[string]float64{}
		rows := map[int][]string{}
		frameworks := []string{}
		for _, f := range Fig4Frameworks {
			if o.wantFramework(f) {
				frameworks = append(frameworks, f)
			}
		}
		t.Header = append(t.Header, frameworks...)
		for _, th := range threadCounts {
			row := []string{fmt.Sprintf("%d", th)}
			for _, f := range frameworks {
				var cell Cell
				for _, r := range p.runners(data, th) {
					if r.Framework == f {
						o.progress("%s / threads=%d / %s", p.name, th, f)
						cell = measure(r, o.Repeats)
						break
					}
				}
				if th == 1 {
					base[f] = cell.Seconds
				}
				if cell.Seconds > 0 && base[f] > 0 {
					row = append(row, FormatRatio(base[f]/cell.Seconds))
				} else {
					row = append(row, "-")
				}
			}
			rows[th] = row
		}
		for _, th := range threadCounts {
			t.Rows = append(t.Rows, rows[th])
		}
		tables = append(tables, t)
	}
	return tables
}

// Fig6 derives the performance-counter comparison (Figure 6) from Figure 4
// runs: for each of PR, TC, CF and SSSP, the four counter proxies averaged
// (geomean) across datasets and normalized to GraphMat.
func Fig6(results []*Fig4Result) []*Table {
	var tables []*Table
	for _, r := range results {
		switch r.Algorithm {
		case "PageRank", "TriangleCounting", "CollaborativeFiltering", "SSSP":
		default:
			continue
		}
		t := &Table{
			Title: fmt.Sprintf("Figure 6: hardware-counter proxies, %s (normalized to GraphMat)", r.Algorithm),
			Caption: "instructions & stall cycles: lower is better; read bandwidth & IPC: higher is better\n" +
				"(software proxies; see internal/counters and DESIGN.md §3)",
			Header: append([]string{"framework"}, counters.AxisNames[:]...),
		}
		for _, f := range []string{FwGraphMat, FwGraphLab, FwCombBLAS, FwGalois} {
			ratios := make([][]float64, 4)
			for _, d := range r.Datasets {
				gm, ok1 := r.Cells[d][FwGraphMat]
				fr, ok2 := r.Cells[d][f]
				if !ok1 || !ok2 || gm.Err != nil || fr.Err != nil {
					continue
				}
				rr := fr.Set.Ratios(gm.Set)
				for i := 0; i < 4; i++ {
					ratios[i] = append(ratios[i], rr[i])
				}
			}
			row := []string{f}
			for i := 0; i < 4; i++ {
				if len(ratios[i]) == 0 {
					row = append(row, "-")
				} else {
					row = append(row, fmt.Sprintf("%.2f", geomean(ratios[i])))
				}
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables
}

// Fig7 measures the optimization ablation (Figure 7): cumulative speedup of
// the engine configurations from naive scalar code to the fully optimized
// parallel engine (fig7Steps), for PageRank on the Facebook stand-in and
// SSSP on the Flickr stand-in. Each step builds both graphs at its own
// partition count before its runs are timed.
func Fig7(o Options) *Table {
	o = o.withDefaults()
	t := &Table{
		Title: "Figure 7: effect of optimizations (cumulative speedup over naive)",
		Caption: "paper reaches 27.3x (PageRank/facebook) and 19.9x (SSSP/flickr) on 24 cores;\n" +
			"parallel steps scale with the cores available here; threads × partitions: " + fig7Shapes(o.Threads),
		Header: []string{"configuration", "PageRank/facebook", "SSSP/flickr"},
	}
	var prBase, ssspBase float64
	for i, s := range fig7Steps {
		cfg, parts := s.at(o.Threads)
		prGraph, ssspGraph, ssspRoot := fig7Graphs(o, parts)
		o.progress("Fig7 %s", s.name)
		prSecs := timeBest(o.Repeats, func() { runPageRankAblation(prGraph, o.PRIters, cfg) })
		ssspSecs := timeBest(o.Repeats, func() { runSSSPAblation(ssspGraph, ssspRoot, cfg) })
		if i == 0 {
			prBase, ssspBase = prSecs, ssspSecs
		}
		t.Rows = append(t.Rows, []string{s.name, FormatRatio(prBase / prSecs), FormatRatio(ssspBase / ssspSecs)})
	}
	return t
}

// timeBest returns the best wall time of repeats calls of fn. Each call
// starts from a fresh heap: a collection runs before it, outside the timed
// window, so a run that allocates heavily (Fig. 7's boxed rows) is not
// charged for the garbage of the one before it.
func timeBest(repeats int, fn func()) float64 {
	best := -1.0
	for i := 0; i < repeats; i++ {
		runtime.GC()
		start := time.Now()
		fn()
		el := time.Since(start).Seconds()
		if best < 0 || el < best {
			best = el
		}
	}
	return best
}

// Table1 renders the dataset inventory with paper sizes and the stand-ins
// actually generated at the given shift.
func Table1(o Options) *Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "Table 1: datasets (paper size vs generated stand-in)",
		Caption: "stand-in rationale in DESIGN.md §3; sizes scale with -shift",
		Header:  []string{"dataset", "paper |V|", "paper |E|", "algorithms", "stand-in", "gen |V|", "gen |E|"},
	}
	for _, d := range Datasets() {
		if !o.wantDataset(d.Name) {
			continue
		}
		data := d.Generate(o.Shift)
		t.Rows = append(t.Rows, []string{
			d.Name,
			fmt.Sprintf("%d", d.PaperVertices),
			fmt.Sprintf("%d", d.PaperEdges),
			d.Algorithms,
			d.StandInDesc(o.Shift),
			fmt.Sprintf("%d", data.NRows),
			fmt.Sprintf("%d", len(data.Entries)),
		})
	}
	return t
}
