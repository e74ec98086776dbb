package graphmat_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"graphmat"
	"graphmat/algorithms"
	"graphmat/internal/gen"
)

// TestLiveUpdateBFS18 is the store-layer acceptance test: applying a 1%
// edge-update batch to a scale-18 RMAT graph and running BFS on the new
// snapshot must be ≥5× faster than the old path — a full re-ingest of the
// equivalent edge set followed by the same run — at GOMAXPROCS ≥ 8, while
// producing bit-identical results. Short mode and race builds scale the
// graph down (the identity checks still run); the timing gate applies only
// where the speedup is promised.
func TestLiveUpdateBFS18(t *testing.T) {
	scale, timed := 18, true
	if runtime.GOMAXPROCS(0) < 8 || runtime.NumCPU() < 8 {
		scale, timed = 15, false
	}
	if raceEnabled {
		scale, timed = 13, false
	}
	if testing.Short() {
		scale, timed = 12, false
	}

	adj := gen.RMAT(gen.RMATOptions{Scale: scale, EdgeFactor: 16, Seed: 20150831, MaxWeight: 255})
	ops := gen.Updates(adj, gen.UpdateOptions{
		Count:          len(adj.Entries) / 100, // the 1% batch
		DeleteFraction: 0.3,
		MaxWeight:      255,
		Seed:           7,
	})
	batch := make([]graphmat.EdgeUpdate, len(ops))
	for i, op := range ops {
		batch[i] = graphmat.EdgeUpdate{Src: op.Src, Dst: op.Dst, Val: op.Weight, Del: op.Del}
	}

	// The resident service state the update path starts from: a built BFS
	// instance plus the normalized raw master (what graphmatd holds per
	// registered graph).
	spec, _ := algorithms.Lookup("bfs")
	live, err := spec.Build(adj.Clone(), 0)
	if err != nil {
		t.Fatal(err)
	}
	master := adj.Clone()
	graphmat.NormalizeAdjacency(master, 0)

	// Live path, timed end to end: master merge + translation + delta
	// apply...
	applyStart := time.Now()
	master, err = graphmat.ApplyToAdjacency(master, batch)
	if err != nil {
		t.Fatal(err)
	}
	upd, err := live.Store().ApplyUpdates(batch, algorithms.NewRawEdgeLookup(master))
	if err != nil {
		t.Fatal(err)
	}
	applyTime := time.Since(applyStart)
	if upd.Epoch != 1 || upd.Inserted == 0 || upd.Deleted == 0 {
		t.Fatalf("batch did not mix inserts and deletes: %+v", upd)
	}

	// ...plus a BFS on the new snapshot. The serving workload this exists
	// for is the low-reach root (the sparse-frontier regime the kernel
	// layer optimizes); the hub BFS below re-checks identity on the giant
	// component without a gate, since its dense supersteps dominate both
	// paths equally.
	outDeg := make([]uint32, master.NRows)
	for _, e := range master.Entries {
		outDeg[e.Row]++
	}
	hub, quiet := uint32(0), uint32(0)
	for v := range outDeg {
		if outDeg[v] > outDeg[hub] {
			hub = uint32(v)
		}
		// Lowest positive degree: a real but low-reach traversal root.
		if outDeg[v] > 0 && (outDeg[quiet] == 0 || outDeg[v] < outDeg[quiet]) {
			quiet = uint32(v)
		}
	}
	runLive := func(root uint32) ([]float64, time.Duration) {
		start := time.Now()
		res, err := live.Run(algorithms.Params{Source: root}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Values, time.Since(start)
	}
	liveDist, liveRunTime := runLive(quiet)

	// Old path, timed the same way: full re-ingest of the equivalent edge
	// set (preprocessing + parallel build) + the same run. Best of two
	// rounds, to be generous to the side being beaten.
	reingest := func() (algorithms.Instance, time.Duration) {
		start := time.Now()
		inst, err := spec.Build(master.Clone(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return inst, time.Since(start)
	}
	fresh, buildTime := reingest()
	if _, again := reingest(); again < buildTime {
		buildTime = again
	}
	// Warm-up run first (scratch allocation), then the timed one — generous
	// to the path being beaten.
	if _, err := fresh.Run(algorithms.Params{Source: quiet}, nil); err != nil {
		t.Fatal(err)
	}
	freshStart := time.Now()
	freshRes, err := fresh.Run(algorithms.Params{Source: quiet}, nil)
	if err != nil {
		t.Fatal(err)
	}
	freshRunTime := time.Since(freshStart)

	// Identity: quiet-root and hub-root BFS, bit for bit.
	if live.Store().NumEdges() != fresh.Store().NumEdges() {
		t.Fatalf("edge counts diverge: live %d vs fresh %d", live.Store().NumEdges(), fresh.Store().NumEdges())
	}
	for v := range freshRes.Values {
		if math.Float64bits(liveDist[v]) != math.Float64bits(freshRes.Values[v]) {
			t.Fatalf("quiet-root dist[%d]: live %v vs fresh %v", v, liveDist[v], freshRes.Values[v])
		}
	}
	liveHub, _ := runLive(hub)
	freshHub, err := fresh.Run(algorithms.Params{Source: hub}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range freshHub.Values {
		if math.Float64bits(liveHub[v]) != math.Float64bits(freshHub.Values[v]) {
			t.Fatalf("hub dist[%d]: live %v vs fresh %v", v, liveHub[v], freshHub.Values[v])
		}
	}

	liveTotal := applyTime + liveRunTime
	oldTotal := buildTime + freshRunTime
	t.Logf("scale %d (%d procs): live apply %v + run %v = %v; re-ingest %v + run %v = %v (%.1fx, batch %d, overlay %d)",
		scale, runtime.GOMAXPROCS(0), applyTime, liveRunTime, liveTotal,
		buildTime, freshRunTime, oldTotal,
		float64(oldTotal)/float64(liveTotal), len(batch), live.Store().Stats().OverlayNNZ)
	if timed && liveTotal*5 > oldTotal {
		t.Errorf("live update path %v not ≥5× faster than re-ingest %v at GOMAXPROCS=%d",
			liveTotal, oldTotal, runtime.GOMAXPROCS(0))
	}
}

// applyAndCount applies batch to store and counts the edges of the epoch it
// published, with the edge type a type parameter: the store and snapshot
// aliases take the edge type alone, so generic code names them by its own E
// and needs no placeholder vertex type.
func applyAndCount[E any](t *testing.T, store *graphmat.Store[E], batch []graphmat.Update[E]) (epoch uint64, edges int64) {
	t.Helper()
	if _, err := store.ApplyEdges(batch); err != nil {
		t.Fatal(err)
	}
	var sn *graphmat.Snapshot[E] = store.Acquire()
	defer sn.Release()
	return sn.Epoch(), sn.Graph().NumEdges()
}

func TestStoreGenericEdgeType(t *testing.T) {
	adj := graphmat.NewCOO[float32](4)
	adj.Add(0, 1, 1)
	adj.Add(1, 2, 2)
	store, err := graphmat.NewStore(adj, graphmat.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	epoch, edges := applyAndCount(t, store, []graphmat.Update[float32]{{Src: 2, Dst: 3, Val: 3}})
	if epoch != 1 || edges != 3 {
		t.Fatalf("after one insert: epoch %d, %d edges; want epoch 1, 3 edges", epoch, edges)
	}
}
