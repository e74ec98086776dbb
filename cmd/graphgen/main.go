// Command graphgen generates the synthetic graphs used throughout the
// GraphMat reproduction: Graph500 RMAT graphs with the paper's parameter
// sets, power-law bipartite ratings graphs and 2-D road-style grids.
//
// Usage:
//
//	graphgen -kind rmat -scale 20 -ef 16 -params graph500 -o graph.mtx
//	graphgen -kind rmat -scale 15 -params triangle -format bin -o tc.bin
//	graphgen -kind bipartite -users 480189 -items 17770 -ratings 99072112 -o nf.mtx
//	graphgen -kind grid -width 1000 -height 500 -maxweight 10 -o road.mtx
//	graphgen -kind rmat -scale 18 -o g.mtx -updates 40000 -updates-del 0.3
//
// -updates additionally emits an NDJSON edge-update stream (deletes drawn
// from the generated edges, inserts fresh, plus a small adversarial slice)
// for update benchmarks, live-update demos and fuzz corpora.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

func main() {
	var (
		kind      = flag.String("kind", "rmat", "generator: rmat, bipartite, grid, er")
		out       = flag.String("o", "", "output path (required; extension .mtx, .bin or text)")
		seed      = flag.Uint64("seed", 1, "generator seed")
		maxWeight = flag.Int("maxweight", 0, "uniform integer edge weights in [1,maxweight]; 0 = unweighted")
		jobs      = flag.Int("j", 0, "sections in .bin output, encoded in parallel; readers fan sections out to workers (0 = default)")

		scale  = flag.Int("scale", 16, "rmat: vertices = 2^scale")
		ef     = flag.Int("ef", 16, "rmat/er: edges per vertex")
		params = flag.String("params", "graph500", "rmat parameter set: graph500, triangle, sssp24")

		users   = flag.Uint("users", 1000, "bipartite: user count")
		items   = flag.Uint("items", 100, "bipartite: item count")
		ratings = flag.Int("ratings", 10000, "bipartite: rating count")

		width  = flag.Uint("width", 100, "grid: width")
		height = flag.Uint("height", 100, "grid: height")

		updates     = flag.Int("updates", 0, "also emit an edge-update stream of this many insert/delete records against the generated graph")
		updatesOut  = flag.String("updates-out", "", "update-stream output path (NDJSON; default: <o>.updates)")
		updatesDel  = flag.Float64("updates-del", 0.3, "fraction of updates that delete existing edges")
		updatesSeed = flag.Uint64("updates-seed", 0, "update-stream seed (0 = derive from -seed)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "graphgen: -o is required")
		flag.Usage()
		os.Exit(2)
	}

	var coo *sparse.COO[float32]
	switch strings.ToLower(*kind) {
	case "rmat":
		var p gen.RMATParams
		switch strings.ToLower(*params) {
		case "graph500":
			p = gen.RMATGraph500
		case "triangle":
			p = gen.RMATTriangle
		case "sssp24":
			p = gen.RMATSSSP24
		default:
			fatal("unknown -params %q", *params)
		}
		coo = gen.RMAT(gen.RMATOptions{Scale: *scale, EdgeFactor: *ef, Params: p, Seed: *seed, MaxWeight: *maxWeight})
	case "bipartite":
		coo = gen.Bipartite(gen.BipartiteOptions{Users: uint32(*users), Items: uint32(*items), Ratings: *ratings, Seed: *seed})
	case "grid":
		coo = gen.Grid(gen.GridOptions{Width: uint32(*width), Height: uint32(*height), MaxWeight: *maxWeight, Seed: *seed})
	case "er":
		n := uint32(1) << *scale
		coo = gen.ErdosRenyi(n, int(n)*(*ef), *maxWeight, *seed)
	default:
		fatal("unknown -kind %q", *kind)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	if strings.HasSuffix(*out, ".bin") {
		err = graph.WriteBinary2(f, coo, *jobs)
	} else {
		err = graph.WriteMTX(f, coo)
	}
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("wrote %s: %d vertices, %d edges\n", *out, coo.NRows, len(coo.Entries))

	if *updates > 0 {
		path := *updatesOut
		if path == "" {
			path = *out + ".updates"
		}
		seed2 := *updatesSeed
		if seed2 == 0 {
			seed2 = *seed + 1
		}
		ops := gen.Updates(coo, gen.UpdateOptions{
			Count:          *updates,
			DeleteFraction: *updatesDel,
			MaxWeight:      *maxWeight,
			Seed:           seed2,
		})
		ups := make([]graph.Update[float32], len(ops))
		dels := 0
		for i, op := range ops {
			ups[i] = graph.Update[float32]{Src: op.Src, Dst: op.Dst, Val: op.Weight, Del: op.Del}
			if op.Del {
				dels++
			}
		}
		uf, err := os.Create(path)
		if err != nil {
			fatal("%v", err)
		}
		defer uf.Close()
		if err := graph.WriteUpdates(uf, ups); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("wrote %s: %d updates (%d deletes)\n", path, len(ups), dels)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "graphgen: "+format+"\n", args...)
	os.Exit(1)
}
