// Example liveupdate demonstrates the versioned mutable graph store: a
// PageRank service absorbing edge updates without ever rebuilding from
// scratch. A small web graph is built once, queried, mutated through batched
// inserts and deletes (each batch publishing a new epoch-numbered snapshot),
// and queried again — with a query pinned to an old snapshot running happily
// while the graph changes under it, and a final forced compaction folding
// the accumulated deltas back into the base structures.
//
//	go run ./examples/liveupdate
package main

import (
	"fmt"
	"log"

	"graphmat"
	"graphmat/algorithms"
)

func main() {
	// A tiny web graph: a ring of sites with a few cross links. Vertex 0
	// starts life as the hub everyone links to.
	const n = 64
	adj := graphmat.NewCOO[float32](n)
	for v := uint32(1); v < n; v++ {
		adj.Add(v, 0, 1)       // everyone links the hub
		adj.Add(v, (v+1)%n, 1) // ring
	}
	adj.Add(0, 1, 1)

	// The registry's build path gives us a versioned store under the hood.
	spec, _ := algorithms.Lookup("pagerank")
	inst, err := spec.Build(adj.Clone(), 0)
	if err != nil {
		log.Fatal(err)
	}
	// The raw master copy: updates are translated against it (the serving
	// layer keeps exactly this).
	master := adj
	graphmat.NormalizeAdjacency(master, 0)

	top := func(r algorithms.Result) uint32 {
		best := uint32(0)
		for v, x := range r.Values {
			if x > r.Values[best] {
				best = uint32(v)
			}
		}
		return best
	}

	res, err := inst.Run(algorithms.Params{Iterations: 20}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("epoch %d: top page is %d (rank %.3f), %d edges\n",
		res.Epoch, top(res), res.Values[top(res)], inst.NumEdges())

	// The crowd moves on: batches strip the hub's inlinks and point them at
	// site 42. Each batch is one POST /v1/graphs/{name}/edges in graphmatd.
	for b := 0; b < 4; b++ {
		var batch []algorithms.EdgeUpdate
		for v := uint32(1 + 16*b); v < uint32(16*(b+1)+1) && v < n; v++ {
			if v != 42 {
				batch = append(batch,
					algorithms.EdgeUpdate{Src: v, Dst: 0, Del: true},
					algorithms.EdgeUpdate{Src: v, Dst: 42, Val: 1})
			}
		}
		if master, err = graphmat.ApplyToAdjacency(master, batch); err != nil {
			log.Fatal(err)
		}
		upd, err := inst.ApplyUpdates(batch, algorithms.NewRawEdgeLookup(master))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("batch %d: epoch %d, +%d -%d property edges, overlay %d entries, compacted=%v\n",
			b+1, upd.Epoch, upd.Inserted, upd.Deleted, inst.StoreStats().OverlayNNZ, upd.Compacted)
	}

	res, err = inst.Run(algorithms.Params{Iterations: 20}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("epoch %d: top page is now %d (rank %.3f), %d edges\n",
		res.Epoch, top(res), res.Values[top(res)], inst.NumEdges())

	st := inst.StoreStats()
	fmt.Printf("store: %d batches, %d compactions, overlay %d entries over %d base edges\n",
		st.Batches, st.Compactions, st.OverlayNNZ, st.BaseEdges)

	// Snapshot pinning directly on a store: a long analytics run keeps its
	// epoch while updates land.
	store, err := algorithms.NewPageRankStore(master.Clone(), 0)
	if err != nil {
		log.Fatal(err)
	}
	pinned := store.Acquire()
	if _, err := store.ApplyEdges([]graphmat.EdgeUpdate{{Src: 42, Dst: 0, Del: true}}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pinned snapshot still at epoch %d with %d edges; store moved to epoch %d with %d edges\n",
		pinned.Epoch(), pinned.Graph().NumEdges(), store.Epoch(), store.NumEdges())
	pinned.Release()
	store.Compact()
	fmt.Printf("after compaction: epoch %d unchanged, overlay %d entries\n",
		store.Epoch(), store.Stats().OverlayNNZ)
}
