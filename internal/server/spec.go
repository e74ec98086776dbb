package server

import (
	"fmt"
	"strconv"
	"strings"

	"graphmat"
	"graphmat/internal/gen"
	"graphmat/internal/sparse"
)

// Source describes where a graph's edges come from: a file on disk or one of
// the synthetic generators. Exactly one of Path and Generator must be set.
// The same struct is the JSON body of POST /v1/graphs and the value of
// graphmatd's -graph flag (via ParseSourceSpec), so the two registration
// paths cannot diverge.
type Source struct {
	// Path loads a graph file (.mtx Matrix Market, .bin binary edge list,
	// or whitespace text edge list).
	Path string `json:"path,omitempty"`
	// Generator synthesizes a graph: "rmat", "erdosrenyi", "grid" or
	// "bipartite".
	Generator string `json:"generator,omitempty"`

	// RMAT: vertices = 2^Scale, edges = EdgeFactor * vertices.
	Scale      int `json:"scale,omitempty"`
	EdgeFactor int `json:"edgefactor,omitempty"`

	// Erdos-Renyi: Edges drawn uniformly over Vertices.
	Vertices uint32 `json:"vertices,omitempty"`
	Edges    int    `json:"edges,omitempty"`

	// Grid: Width x Height 4-neighbor road-style grid.
	Width  uint32 `json:"width,omitempty"`
	Height uint32 `json:"height,omitempty"`

	// Bipartite ratings graph: Users + Items vertices, Ratings edges.
	Users   uint32 `json:"users,omitempty"`
	Items   uint32 `json:"items,omitempty"`
	Ratings int    `json:"ratings,omitempty"`

	// MaxWeight draws integer edge weights in [1, MaxWeight]; 0 keeps the
	// generator's default.
	MaxWeight int    `json:"maxweight,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
}

// Describe returns a short human-readable description of the source.
func (s Source) Describe() string {
	if s.Path != "" {
		return "file:" + s.Path
	}
	switch s.Generator {
	case "rmat":
		return fmt.Sprintf("rmat(scale=%d, edgefactor=%d, seed=%d)", s.Scale, s.EdgeFactor, s.Seed)
	case "erdosrenyi":
		return fmt.Sprintf("erdosrenyi(vertices=%d, edges=%d, seed=%d)", s.Vertices, s.Edges, s.Seed)
	case "grid":
		return fmt.Sprintf("grid(width=%d, height=%d, seed=%d)", s.Width, s.Height, s.Seed)
	case "bipartite":
		return fmt.Sprintf("bipartite(users=%d, items=%d, ratings=%d, seed=%d)", s.Users, s.Items, s.Ratings, s.Seed)
	}
	return "unknown"
}

// LoadWorkers produces the adjacency triples the source describes, with an
// explicit ingestion worker count for file sources (0 = GOMAXPROCS, 1 =
// sequential); generators are unaffected.
func (s Source) LoadWorkers(workers int) (*sparse.COO[float32], error) {
	if s.Path != "" && s.Generator != "" {
		return nil, fmt.Errorf("graph source: path and generator are mutually exclusive")
	}
	if s.Path != "" {
		return graphmat.LoadFileOptions(s.Path, graphmat.LoadOptions{Parallelism: workers})
	}
	switch s.Generator {
	case "rmat":
		if s.Scale <= 0 || s.Scale > 30 {
			return nil, fmt.Errorf("rmat: scale must be in [1, 30], got %d", s.Scale)
		}
		return gen.RMAT(gen.RMATOptions{Scale: s.Scale, EdgeFactor: s.EdgeFactor, Seed: s.Seed, MaxWeight: s.MaxWeight}), nil
	case "erdosrenyi":
		if s.Vertices == 0 || s.Edges <= 0 {
			return nil, fmt.Errorf("erdosrenyi: vertices and edges are required")
		}
		return gen.ErdosRenyi(s.Vertices, s.Edges, s.MaxWeight, s.Seed), nil
	case "grid":
		if s.Width == 0 || s.Height == 0 {
			return nil, fmt.Errorf("grid: width and height are required")
		}
		return gen.Grid(gen.GridOptions{Width: s.Width, Height: s.Height, MaxWeight: s.MaxWeight, Seed: s.Seed}), nil
	case "bipartite":
		if s.Users == 0 || s.Items == 0 || s.Ratings <= 0 {
			return nil, fmt.Errorf("bipartite: users, items and ratings are required")
		}
		return gen.Bipartite(gen.BipartiteOptions{Users: s.Users, Items: s.Items, Ratings: s.Ratings, MaxRating: s.MaxWeight, Seed: s.Seed}), nil
	case "":
		return nil, fmt.Errorf("graph source: path or generator is required")
	default:
		return nil, fmt.Errorf("unknown generator %q (want rmat, erdosrenyi, grid or bipartite)", s.Generator)
	}
}

// ParseSourceSpec parses the compact command-line form of a Source: either a
// bare file path ("web.mtx") or "generator:key=value,key=value"
// ("rmat:scale=12,edgefactor=16,seed=7").
func ParseSourceSpec(spec string) (Source, error) {
	head, rest, found := strings.Cut(spec, ":")
	switch head {
	case "rmat", "erdosrenyi", "grid", "bipartite":
	default:
		return Source{Path: spec}, nil
	}
	src := Source{Generator: head}
	if !found || rest == "" {
		return src, fmt.Errorf("generator spec %q needs key=value options", spec)
	}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return src, fmt.Errorf("malformed option %q in %q", kv, spec)
		}
		// Seed spans the full uint64 range (matching the JSON path); the
		// structural options are 32-bit.
		bits := 32
		if key == "seed" {
			bits = 64
		}
		n, err := strconv.ParseUint(val, 10, bits)
		if err != nil {
			return src, fmt.Errorf("option %s in %q: %v", key, spec, err)
		}
		switch key {
		case "scale":
			src.Scale = int(n)
		case "edgefactor":
			src.EdgeFactor = int(n)
		case "vertices":
			src.Vertices = uint32(n)
		case "edges":
			src.Edges = int(n)
		case "width":
			src.Width = uint32(n)
		case "height":
			src.Height = uint32(n)
		case "users":
			src.Users = uint32(n)
		case "items":
			src.Items = uint32(n)
		case "ratings":
			src.Ratings = int(n)
		case "maxweight":
			src.MaxWeight = int(n)
		case "seed":
			src.Seed = n
		default:
			return src, fmt.Errorf("unknown option %q in %q", key, spec)
		}
	}
	return src, nil
}
