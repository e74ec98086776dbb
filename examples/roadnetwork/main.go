// Roadnetwork: single-source shortest paths on a road-style grid (the
// paper's §3-V workload and its USA-road SSSP experiment). Demonstrates the
// regime where SSSP runs for hundreds of low-work supersteps — the paper's
// motivating case for GraphMat's small per-iteration overhead.
//
//	go run ./examples/roadnetwork [-width 400] [-height 300]
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
	width := flag.Uint("width", 400, "grid width (intersections)")
	height := flag.Uint("height", 300, "grid height")
	flag.Parse()

	fmt.Printf("building a %dx%d road grid with segment lengths 1..10\n", *width, *height)
	adj := datagen.Grid(datagen.GridOptions{
		Width: uint32(*width), Height: uint32(*height), MaxWeight: 10, Seed: 3,
	})

	g, err := algorithms.NewSSSPGraph(adj, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("road network: %d intersections, %d directed segments\n",
		g.NumVertices(), g.NumEdges())

	// Route from the top-left corner.
	src := uint32(0)
	start := time.Now()
	dist, stats, err := algorithms.RunSSSP(context.Background(), g, src)
	if err != nil {
		panic(err)
	}
	el := time.Since(start)

	fmt.Printf("solved in %.3fs over %d supersteps (%.1fus/superstep) — the high-diameter\n",
		el.Seconds(), stats.Iterations, el.Seconds()*1e6/float64(stats.Iterations))
	fmt.Println("many-iterations regime the paper highlights for road networks (Fig 4e)")

	// Sample travel times across the map.
	at := func(x, y uint32) float32 { return dist[y*uint32(*width)+x] }
	fmt.Printf("travel cost from NW corner:\n")
	fmt.Printf("  to NE corner: %.0f\n", at(uint32(*width)-1, 0))
	fmt.Printf("  to SW corner: %.0f\n", at(0, uint32(*height)-1))
	fmt.Printf("  to SE corner: %.0f\n", at(uint32(*width)-1, uint32(*height)-1))
	fmt.Printf("  to center:    %.0f\n", at(uint32(*width)/2, uint32(*height)/2))

	// The farthest reachable intersection (graph eccentricity from src).
	far, farD := src, float32(0)
	for v, d := range dist {
		if d != algorithms.InfDist && d > farD {
			far, farD = uint32(v), d
		}
	}
	fmt.Printf("farthest intersection: %d at cost %.0f\n", far, farD)
}
