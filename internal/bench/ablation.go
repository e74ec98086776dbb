package bench

import (
	"context"
	"fmt"
	"strings"

	"graphmat"
	"graphmat/algorithms"
)

// must unwraps an experiment's GraphMat run. The runs are uncancellable and
// allocate their own scratch, so the only possible error is an engine
// configuration the experiment itself got wrong.
func must[T any](out T, stats graphmat.Stats, err error) (T, graphmat.Stats) {
	if err != nil {
		panic(err)
	}
	return out, stats
}

// fig7Step is one cumulative optimization step of the Figure 7 ablation.
type fig7Step struct {
	name string
	// cfg sets the step's callback dispatch; at fills in its threads.
	cfg graphmat.Config
	// perThread is the step's partition count per worker thread; 0 runs
	// one thread over one partition.
	perThread int
}

// fig7Steps are Figure 7's steps in order: three single-thread steps that
// differ only in Config.Dispatch, then the parallel engine over as many
// partitions as threads and over eight times as many (the paper's
// load-balancing recipe, §4.5 item 4). Every step computes the same answer.
var fig7Steps = []fig7Step{
	{"naive", graphmat.Config{Dispatch: graphmat.BoxedSorted}, 0},
	{"+bitvector", graphmat.Config{Dispatch: graphmat.Boxed}, 0},
	{"+ipo", graphmat.Config{Dispatch: graphmat.Inlined}, 0},
	{"+parallel", graphmat.Config{Dispatch: graphmat.Inlined}, 1},
	{"+load balance", graphmat.Config{Dispatch: graphmat.Inlined}, 8},
}

// at returns the step's engine configuration and partition count on a
// machine of the given thread count.
func (s fig7Step) at(threads int) (graphmat.Config, int) {
	cfg := s.cfg
	if s.perThread == 0 {
		cfg.Threads = 1
		return cfg, 1
	}
	cfg.Threads = threads
	return cfg, s.perThread * threads
}

// fig7Shapes names each step's threads × partitions for the table caption.
func fig7Shapes(threads int) string {
	shapes := make([]string, len(fig7Steps))
	for i, s := range fig7Steps {
		cfg, parts := s.at(threads)
		shapes[i] = fmt.Sprintf("%s %d×%d", s.name, cfg.Threads, parts)
	}
	return strings.Join(shapes, ", ")
}

// fig7Graphs builds Figure 7's two graphs at parts partitions each:
// PageRank's Facebook stand-in, and SSSP's Flickr stand-in with its root,
// the vertex of largest out-degree.
func fig7Graphs(o Options, parts int) (*graphmat.Graph[algorithms.PRVertex, float32], *graphmat.Graph[float32, float32], uint32) {
	fb, _ := DatasetByName("Facebook")
	fl, _ := DatasetByName("Flickr")
	prData := fb.Generate(o.Shift)
	prData.RemoveSelfLoops()
	prData.SortRowMajor()
	prData.DedupKeepFirst()
	prGraph, err := graphmat.New[algorithms.PRVertex](prData, graphmat.Options{Partitions: parts})
	if err != nil {
		panic(err)
	}
	ssspData := fl.Generate(o.Shift)
	ssspData.RemoveSelfLoops()
	ssspData.SortRowMajor()
	ssspData.DedupKeepFirst()
	ssspRoot := maxOutDegreeVertex(ssspData)
	ssspGraph, err := graphmat.New[float32](ssspData, graphmat.Options{Partitions: parts})
	if err != nil {
		panic(err)
	}
	return prGraph, ssspGraph, ssspRoot
}

// runPageRankAblation executes one fixed-iteration PageRank under an
// explicit engine configuration (the Figure 7 steps) and returns the ranks.
func runPageRankAblation(g *graphmat.Graph[algorithms.PRVertex, float32], iters int, cfg graphmat.Config) []float64 {
	ranks, _ := must(algorithms.RunPageRank(context.Background(), g, algorithms.WithConfig(cfg), algorithms.WithIterations(iters)))
	return ranks
}

// runSSSPAblation executes one SSSP under an explicit engine configuration
// and returns the distances.
func runSSSPAblation(g *graphmat.Graph[float32, float32], root uint32, cfg graphmat.Config) []float32 {
	dist, _ := must(algorithms.RunSSSP(context.Background(), g, root, algorithms.WithConfig(cfg)))
	return dist
}
