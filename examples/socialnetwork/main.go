// Socialnetwork: the paper's social-graph workloads (§3-II, §3-IV) on one
// synthetic Facebook-style interaction graph — triangle counting for the
// clustering structure, BFS for degrees of separation, and connected
// components for community reach.
//
//	go run ./examples/socialnetwork [-scale 15]
package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"graphmat/algorithms"
	"graphmat/datagen"
)

func main() {
	scale := flag.Int("scale", 14, "social graph has 2^scale members")
	flag.Parse()
	ctx := context.Background()

	fmt.Printf("generating a synthetic social network: RMAT scale %d (A=0.45, B=C=0.15)\n", *scale)
	adj := datagen.RMAT(datagen.RMATOptions{
		Scale: *scale, EdgeFactor: 16, Params: datagen.Triangle, Seed: 9,
	})

	// --- Triangle counting ---
	start := time.Now()
	tg, err := algorithms.NewTriangleGraph(adj.Clone(), 0)
	if err != nil {
		panic(err)
	}
	triangles, _, err := algorithms.RunTriangleCount(ctx, tg)
	if err != nil {
		panic(err)
	}
	edges := tg.NumEdges() // undirected friendships after preprocessing
	fmt.Printf("triangles: %d across %d friendships (%.3fs)\n",
		triangles, edges, time.Since(start).Seconds())
	// Global clustering coefficient = 3*triangles / open+closed wedges.
	var wedges int64
	for v := uint32(0); v < tg.NumVertices(); v++ {
		d := int64(tg.OutDegree(v) + tg.InDegree(v))
		wedges += d * (d - 1) / 2
	}
	if wedges > 0 {
		fmt.Printf("global clustering coefficient: %.4f\n", 3*float64(triangles)/float64(wedges))
	}

	// --- Degrees of separation (BFS) ---
	start = time.Now()
	bg, err := algorithms.NewBFSGraph(adj.Clone(), 0)
	if err != nil {
		panic(err)
	}
	// Start from the best-connected member.
	var root, best uint32
	for v := uint32(0); v < bg.NumVertices(); v++ {
		if d := bg.OutDegree(v); d > best {
			root, best = v, d
		}
	}
	dist, stats, err := algorithms.RunBFS(ctx, bg, root)
	if err != nil {
		panic(err)
	}
	hist := map[uint32]int{}
	reached := 0
	for _, d := range dist {
		if d != algorithms.Unreached {
			hist[d]++
			reached++
		}
	}
	fmt.Printf("BFS from member %d (degree %d): reached %d/%d members in %d supersteps (%.3fs)\n",
		root, best, reached, len(dist), stats.Iterations, time.Since(start).Seconds())
	for d := uint32(0); int(d) < len(hist); d++ {
		if hist[d] > 0 {
			fmt.Printf("  %d hops: %d members\n", d, hist[d])
		}
	}

	// --- Connected components ---
	start = time.Now()
	cg, err := algorithms.NewCCGraph(adj.Clone(), 0)
	if err != nil {
		panic(err)
	}
	labels, _, err := algorithms.RunConnectedComponents(ctx, cg)
	if err != nil {
		panic(err)
	}
	sizes := map[uint32]int{}
	for _, l := range labels {
		sizes[l]++
	}
	largest := 0
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	fmt.Printf("communities: %d connected components; the giant component has %d members (%.1f%%) (%.3fs)\n",
		len(sizes), largest, 100*float64(largest)/float64(len(labels)), time.Since(start).Seconds())
}
