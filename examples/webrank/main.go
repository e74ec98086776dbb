// Webrank: PageRank over a synthetic web-crawl graph (the paper's §3-I
// workload). Generates a Graph500 RMAT graph with the paper's skew
// parameters, ranks it, and prints the top pages plus rank distribution
// statistics.
//
//	go run ./examples/webrank [-scale 16] [-iters 20]
package main

import (
	"context"
	"flag"
	"fmt"
	"sort"
	"time"

	"graphmat/algorithms"
	"graphmat/datagen"
)

func main() {
	scale := flag.Int("scale", 15, "web graph has 2^scale pages")
	iters := flag.Int("iters", 20, "PageRank iterations")
	flag.Parse()

	fmt.Printf("crawling a synthetic web: RMAT scale %d (A=0.57, B=C=0.19), edge factor 16\n", *scale)
	adj := datagen.RMAT(datagen.RMATOptions{
		Scale: *scale, EdgeFactor: 16, Params: datagen.Graph500, Seed: 42,
	})

	start := time.Now()
	g, err := algorithms.NewPageRankGraph(adj, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("built graph: %d pages, %d links (%.2fs)\n",
		g.NumVertices(), g.NumEdges(), time.Since(start).Seconds())

	start = time.Now()
	ranks, stats, err := algorithms.RunPageRank(context.Background(), g, algorithms.WithIterations(*iters))
	if err != nil {
		panic(err)
	}
	el := time.Since(start)
	fmt.Printf("ranked in %.3fs (%.2fms/iteration, %d iterations)\n",
		el.Seconds(), el.Seconds()*1e3/float64(stats.Iterations), stats.Iterations)

	type page struct {
		id   uint32
		rank float64
	}
	pages := make([]page, len(ranks))
	for i, r := range ranks {
		pages[i] = page{uint32(i), r}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].rank > pages[j].rank })

	fmt.Println("top 10 pages:")
	for i := 0; i < 10 && i < len(pages); i++ {
		fmt.Printf("  %2d. page %-8d rank %8.2f  in-degree %d\n",
			i+1, pages[i].id, pages[i].rank, g.InDegree(pages[i].id))
	}

	// Rank concentration: what share of total rank the top 1% holds —
	// the power-law signature of web graphs.
	total, top1 := 0.0, 0.0
	for i, p := range pages {
		total += p.rank
		if i < len(pages)/100 {
			top1 += p.rank
		}
	}
	fmt.Printf("rank concentration: top 1%% of pages hold %.1f%% of total rank\n", 100*top1/total)
}
