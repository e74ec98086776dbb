// Package reference holds small, obviously-correct sequential
// implementations of the paper's five algorithms. They are the ground truth
// the GraphMat programs, the baseline engines and the native kernels are all
// tested against. Nothing here is optimized; clarity is the only goal.
package reference

import (
	"container/heap"
	"math"

	"graphmat/internal/sparse"
)

// AdjList is a forward adjacency list: AdjList[u] lists (v, w) for each edge
// u→v with weight w.
type AdjList [][]Arc

// Arc is one outgoing edge.
type Arc struct {
	To uint32
	W  float32
}

// BuildAdj converts triples (Row = src, Col = dst) into an adjacency list,
// keeping duplicates as given.
func BuildAdj(n uint32, edges []sparse.Triple[float32]) AdjList {
	adj := make(AdjList, n)
	for _, e := range edges {
		adj[e.Row] = append(adj[e.Row], Arc{To: e.Col, W: e.Val})
	}
	return adj
}

// PageRank iterates PR(v) = r + (1-r)·Σ_{(u,v)∈E} PR(u)/outdeg(u) for a
// fixed number of iterations from all-ones, exactly matching the paper's
// equation (1) and the engine's semantics: a vertex with no in-edges keeps
// its current value (it receives no messages).
func PageRank(n uint32, edges []sparse.Triple[float32], r float64, iterations int) []float64 {
	outdeg := make([]float64, n)
	for _, e := range edges {
		outdeg[e.Row]++
	}
	pr := make([]float64, n)
	for i := range pr {
		pr[i] = 1
	}
	for it := 0; it < iterations; it++ {
		sum := make([]float64, n)
		received := make([]bool, n)
		for _, e := range edges {
			if outdeg[e.Row] > 0 {
				sum[e.Col] += pr[e.Row] / outdeg[e.Row]
				received[e.Col] = true
			}
		}
		next := make([]float64, n)
		copy(next, pr)
		for v := uint32(0); v < n; v++ {
			if received[v] {
				next[v] = r + (1-r)*sum[v]
			}
		}
		pr = next
	}
	return pr
}

// InfDist marks an unreachable vertex in BFS and SSSP results.
const InfDist = math.MaxFloat32

// BFS returns hop distances from root (math.MaxUint32 for unreachable).
func BFS(n uint32, edges []sparse.Triple[float32], root uint32) []uint32 {
	adj := BuildAdj(n, edges)
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = math.MaxUint32
	}
	dist[root] = 0
	queue := []uint32{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range adj[u] {
			if dist[a.To] == math.MaxUint32 {
				dist[a.To] = dist[u] + 1
				queue = append(queue, a.To)
			}
		}
	}
	return dist
}

type pqItem struct {
	v uint32
	d float32
}

type pq []pqItem

func (p pq) Len() int           { return len(p) }
func (p pq) Less(i, j int) bool { return p[i].d < p[j].d }
func (p pq) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any          { old := *p; n := len(old); it := old[n-1]; *p = old[:n-1]; return it }

// SSSP returns Dijkstra shortest-path distances from src (InfDist for
// unreachable). Edge weights must be non-negative.
func SSSP(n uint32, edges []sparse.Triple[float32], src uint32) []float32 {
	adj := BuildAdj(n, edges)
	dist := make([]float32, n)
	for i := range dist {
		dist[i] = InfDist
	}
	dist[src] = 0
	q := &pq{{v: src, d: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.d > dist[it.v] {
			continue
		}
		for _, a := range adj[it.v] {
			if nd := it.d + a.W; nd < dist[a.To] {
				dist[a.To] = nd
				heap.Push(q, pqItem{v: a.To, d: nd})
			}
		}
	}
	return dist
}

// Triangles counts triangles in a DAG given as upper-triangular edges
// (u < v for every edge) by brute-force wedge checking with a hash set.
func Triangles(n uint32, edges []sparse.Triple[float32]) int64 {
	adj := make([][]uint32, n)
	set := make(map[uint64]bool, len(edges))
	key := func(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }
	for _, e := range edges {
		adj[e.Row] = append(adj[e.Row], e.Col)
		set[key(e.Row, e.Col)] = true
	}
	var count int64
	for u := uint32(0); u < n; u++ {
		for i := 0; i < len(adj[u]); i++ {
			for j := i + 1; j < len(adj[u]); j++ {
				a, b := adj[u][i], adj[u][j]
				if a > b {
					a, b = b, a
				}
				if set[key(a, b)] {
					count++
				}
			}
		}
	}
	return count
}

// CFLoss computes the collaborative-filtering objective of equation (3):
// Σ (G_uv − p_u·p_v)² + λ·Σ‖p‖² over all factor vectors, for ratings given
// as user→item triples.
func CFLoss(ratings []sparse.Triple[float32], factors [][]float32, lambda float64) float64 {
	loss := 0.0
	for _, e := range ratings {
		dot := 0.0
		pu, pv := factors[e.Row], factors[e.Col]
		for k := range pu {
			dot += float64(pu[k]) * float64(pv[k])
		}
		d := float64(e.Val) - dot
		loss += d * d
	}
	for _, p := range factors {
		for _, x := range p {
			loss += lambda * float64(x) * float64(x)
		}
	}
	return loss
}

// ConnectedComponents labels each vertex of an undirected graph (given as a
// symmetric edge list) with the smallest vertex id in its component.
func ConnectedComponents(n uint32, edges []sparse.Triple[float32]) []uint32 {
	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		a, b := find(e.Row), find(e.Col)
		if a != b {
			if a < b {
				parent[b] = a
			} else {
				parent[a] = b
			}
		}
	}
	labels := make([]uint32, n)
	// Two passes: point every vertex at its root, then collapse to the
	// minimum id in the component (union by min above already ensures the
	// root is the minimum).
	for v := uint32(0); v < n; v++ {
		labels[v] = find(v)
	}
	return labels
}
