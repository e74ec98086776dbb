package server

import (
	"strings"
	"testing"
)

func TestParseSourceSpec(t *testing.T) {
	src, err := ParseSourceSpec("rmat:scale=8,edgefactor=4,seed=7,maxweight=10")
	if err != nil {
		t.Fatal(err)
	}
	if src.Generator != "rmat" || src.Scale != 8 || src.EdgeFactor != 4 || src.Seed != 7 || src.MaxWeight != 10 {
		t.Fatalf("parsed %+v", src)
	}

	src, err = ParseSourceSpec("grid:width=30,height=20")
	if err != nil {
		t.Fatal(err)
	}
	if src.Generator != "grid" || src.Width != 30 || src.Height != 20 {
		t.Fatalf("parsed %+v", src)
	}

	src, err = ParseSourceSpec("data/web.mtx")
	if err != nil {
		t.Fatal(err)
	}
	if src.Path != "data/web.mtx" || src.Generator != "" {
		t.Fatalf("parsed %+v", src)
	}

	for _, bad := range []string{"rmat:", "rmat:scale", "rmat:scale=x", "rmat:wat=1"} {
		if _, err := ParseSourceSpec(bad); err == nil {
			t.Fatalf("spec %q should not parse", bad)
		}
	}
}

func TestSourceLoadValidation(t *testing.T) {
	cases := []struct {
		name string
		src  Source
		want string
	}{
		{"empty", Source{}, "path or generator"},
		{"both", Source{Path: "x", Generator: "rmat"}, "mutually exclusive"},
		{"unknown generator", Source{Generator: "mystery"}, "unknown generator"},
		{"rmat without scale", Source{Generator: "rmat"}, "scale"},
		{"grid without dims", Source{Generator: "grid"}, "width and height"},
		{"bipartite incomplete", Source{Generator: "bipartite", Users: 5}, "users, items and ratings"},
		{"erdosrenyi incomplete", Source{Generator: "erdosrenyi"}, "vertices and edges"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.src.LoadWorkers(0)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestSourceLoadGenerators(t *testing.T) {
	for _, src := range []Source{
		{Generator: "rmat", Scale: 5, EdgeFactor: 4, Seed: 1},
		{Generator: "erdosrenyi", Vertices: 50, Edges: 200, Seed: 1},
		{Generator: "grid", Width: 6, Height: 5, Seed: 1},
		{Generator: "bipartite", Users: 20, Items: 10, Ratings: 100, Seed: 1},
	} {
		adj, err := src.LoadWorkers(0)
		if err != nil {
			t.Fatalf("%s: %v", src.Describe(), err)
		}
		if len(adj.Entries) == 0 || adj.NRows == 0 {
			t.Fatalf("%s: empty graph", src.Describe())
		}
	}
}
