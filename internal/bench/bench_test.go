package bench

import (
	"math"
	"strings"
	"testing"
	"time"
)

// tinyOpts shrinks every dataset far below default so the whole harness runs
// in test time.
func tinyOpts() Options {
	return Options{Shift: -7, Threads: 2, PRIters: 3, CFIters: 2, Repeats: 1}
}

// checkAgreement asserts that all frameworks computed the same answer for
// every dataset (Value is an algorithm-specific checksum).
func checkAgreement(t *testing.T, r *Fig4Result, relTol float64) {
	t.Helper()
	for _, d := range r.Datasets {
		var ref float64
		var refSet bool
		for _, f := range r.Frameworks {
			c, ok := r.Cells[d][f]
			if !ok || c.Err != nil {
				continue
			}
			if !refSet {
				ref, refSet = c.Value, true
				continue
			}
			if ref == 0 {
				if c.Value != 0 {
					t.Errorf("%s/%s/%s: value %v, want 0", r.Algorithm, d, f, c.Value)
				}
				continue
			}
			if math.Abs(c.Value-ref)/math.Abs(ref) > relTol {
				t.Errorf("%s/%s/%s: value %v deviates from %v", r.Algorithm, d, f, c.Value, ref)
			}
		}
		if !refSet {
			t.Errorf("%s/%s: no successful runs", r.Algorithm, d)
		}
	}
}

func TestFig4aAgreement(t *testing.T) {
	r := Fig4a(tinyOpts())
	if len(r.Datasets) == 0 {
		t.Fatal("no PR datasets")
	}
	checkAgreement(t, r, 1e-9)
}

func TestFig4bAgreement(t *testing.T) {
	r := Fig4b(tinyOpts())
	checkAgreement(t, r, 0) // hop counts are exact
}

func TestFig4cAgreement(t *testing.T) {
	r := Fig4c(tinyOpts())
	checkAgreement(t, r, 0) // triangle counts are exact
}

func TestFig4dAgreement(t *testing.T) {
	r := Fig4d(tinyOpts())
	// All frameworks apply gradient contributions in ascending-source
	// order, so float results agree to high precision.
	checkAgreement(t, r, 1e-4)
}

func TestFig4eAgreement(t *testing.T) {
	r := Fig4e(tinyOpts())
	checkAgreement(t, r, 1e-6)
}

func TestTable2And3Render(t *testing.T) {
	o := tinyOpts()
	o.DatasetFilter = "Facebook"
	results := []*Fig4Result{Fig4a(o), Fig4b(o), Fig4c(o)}
	t2 := Table2(results)
	if !strings.Contains(t2.String(), "GraphLab*") {
		t.Errorf("Table2 missing baseline:\n%s", t2)
	}
	t3 := Table3(results)
	if !strings.Contains(t3.String(), "Overall") {
		t.Errorf("Table3 missing overall row:\n%s", t3)
	}
}

func TestFig5Renders(t *testing.T) {
	o := tinyOpts()
	o.MaxThreads = 2
	tables := Fig5(o)
	if len(tables) != 2 {
		t.Fatalf("Fig5 produced %d tables, want 2", len(tables))
	}
	for _, tb := range tables {
		s := tb.String()
		if !strings.Contains(s, "GraphMat") || !strings.Contains(s, "threads") {
			t.Errorf("Fig5 table malformed:\n%s", s)
		}
	}
}

func TestFig6Renders(t *testing.T) {
	o := tinyOpts()
	o.DatasetFilter = "Facebook"
	results := []*Fig4Result{Fig4a(o)}
	tables := Fig6(results)
	if len(tables) != 1 {
		t.Fatalf("Fig6 produced %d tables", len(tables))
	}
	s := tables[0].String()
	if !strings.Contains(s, "Instructions") {
		t.Errorf("Fig6 table malformed:\n%s", s)
	}
	// GraphMat row must be all 1.00 (self-normalized).
	for _, row := range tables[0].Rows {
		if row[0] == FwGraphMat {
			for i := 1; i < len(row); i++ {
				if row[i] != "1.00" {
					t.Errorf("GraphMat normalization broken: %v", row)
				}
			}
		}
	}
}

func TestFig7SpeedupsMonotoneEnough(t *testing.T) {
	o := tinyOpts()
	o.Shift = -6
	table := Fig7(o)
	if len(table.Rows) != 5 {
		t.Fatalf("Fig7 rows = %d, want 5", len(table.Rows))
	}
	if table.Rows[0][0] != "naive" || table.Rows[4][0] != "+load balance" {
		t.Errorf("Fig7 step order wrong: %v", table.Rows)
	}
	// The naive row is the 1.00x baseline by construction.
	if table.Rows[0][1] != "1.00x" || table.Rows[0][2] != "1.00x" {
		t.Errorf("Fig7 baseline not normalized: %v", table.Rows[0])
	}
}

// TestFig7StepsAgree runs every Figure 7 step once on the tiny stand-ins, at
// one and three threads: the steps change how the engine runs, never what it
// computes, so PageRank's ranks and SSSP's distances must be bit-identical
// across all five.
func TestFig7StepsAgree(t *testing.T) {
	o := tinyOpts()
	var wantRanks []float64
	var wantDist []float32
	for _, threads := range []int{1, 3} {
		for _, s := range fig7Steps {
			cfg, parts := s.at(threads)
			prGraph, ssspGraph, ssspRoot := fig7Graphs(o, parts)
			ranks := runPageRankAblation(prGraph, o.PRIters, cfg)
			dist := runSSSPAblation(ssspGraph, ssspRoot, cfg)
			if wantRanks == nil {
				wantRanks, wantDist = ranks, dist
				continue
			}
			for v := range wantRanks {
				if math.Float64bits(ranks[v]) != math.Float64bits(wantRanks[v]) {
					t.Fatalf("%s at %d threads × %d partitions: rank[%d] = %v, naive at 1 thread says %v", s.name, cfg.Threads, parts, v, ranks[v], wantRanks[v])
				}
			}
			for v := range wantDist {
				if math.Float32bits(dist[v]) != math.Float32bits(wantDist[v]) {
					t.Fatalf("%s at %d threads × %d partitions: dist[%d] = %v, naive at 1 thread says %v", s.name, cfg.Threads, parts, v, dist[v], wantDist[v])
				}
			}
		}
	}
}

func TestTable1Renders(t *testing.T) {
	o := tinyOpts()
	tb := Table1(o)
	if len(tb.Rows) != len(Datasets()) {
		t.Fatalf("Table1 rows = %d, want %d", len(tb.Rows), len(Datasets()))
	}
	s := tb.String()
	for _, name := range []string{"LiveJournal", "Netflix", "USA road (CAL)"} {
		if !strings.Contains(s, name) {
			t.Errorf("Table1 missing %s", name)
		}
	}
}

func TestDatasetsGenerateAtDefaultShiftHaveSaneSizes(t *testing.T) {
	for _, d := range Datasets() {
		data := d.Generate(-4) // small but structured
		if data.NRows == 0 || len(data.Entries) == 0 {
			t.Errorf("%s: empty stand-in", d.Name)
		}
		if err := data.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestMeasureRecordsWallSeconds(t *testing.T) {
	// The first call is slow, the way a run that builds its traversal views
	// is: it must land in ColdSeconds and stay out of the warm minimum.
	calls := 0
	r := Runner{
		Framework: "test",
		Prepare:   func() {},
		Execute: func() RunResult {
			calls++
			if calls == 1 {
				time.Sleep(20 * time.Millisecond)
			}
			s := 0.0
			for i := 0; i < 1_000_00; i++ {
				s += float64(i)
			}
			return RunResult{Value: s}
		},
	}
	c := measure(r, 2)
	if c.Seconds <= 0 || c.Set.WallSeconds != c.Seconds {
		t.Errorf("measure cell = %+v", c)
	}
	if calls != 3 {
		t.Errorf("measure(r, 2) made %d calls, want one cold and two warm", calls)
	}
	if c.ColdSeconds < 0.020 || c.Seconds >= c.ColdSeconds {
		t.Errorf("cold %.4fs, warm %.4fs: the slow first call is not billed to cold alone", c.ColdSeconds, c.Seconds)
	}
}
