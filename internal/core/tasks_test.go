package core

import (
	"testing"

	"graphmat/internal/gen"
	"graphmat/internal/graph"
)

// TestShapeTasksSplitsStarvedPartitions pins what made the pool runtime beat
// a partition-granular fan-out on a partition-starved graph: with 2
// partitions and 8 workers, an edge-dense RMAT's pull task list is cut into
// at least one task per worker — 64-aligned destination-row ranges that tile
// each partition's rows exactly once, none carrying more than twice the mean
// edge weight — while the push list stays one task per partition. Edge-dense
// (edge factor 32) on purpose: pull sub-tasks re-sweep the partition's live
// columns, and the shaper rightly keeps a column-rich hypersparse partition
// coarse.
func TestShapeTasksSplitsStarvedPartitions(t *testing.T) {
	const workers = 8
	adj := gen.RMAT(gen.RMATOptions{Scale: 12, EdgeFactor: 32, Seed: 20150831})
	adj.RemoveSelfLoops()
	g, err := graph.NewFromCOO[float64, float32](adj, graph.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	layers := g.OutLayers()
	plan := shapeTasks(layers, liveWeights(layers), workers)

	push := plan.pick(Push)
	if len(push) != len(layers) {
		t.Fatalf("push list has %d tasks, want one per partition (%d)", len(push), len(layers))
	}
	for i, task := range push {
		if task != (spmvTask{layer: int32(i), rhi: ^uint32(0)}) {
			t.Errorf("push task %d = %+v, want the whole partition", i, task)
		}
	}

	pull := plan.pick(Pull)
	if len(pull) < workers {
		t.Fatalf("pull list has %d tasks for %d workers", len(pull), workers)
	}
	// Tasks arrive grouped by layer in ascending row order, so tiling is
	// "each task starts where the previous one of its layer ended".
	next := make([]uint32, len(layers))
	for i, l := range layers {
		next[i] = l.Base.RowLo
	}
	total, heaviest := 0, 0
	for _, task := range pull {
		base := layers[task.layer].Base
		if task.rlo != next[task.layer] || task.rhi <= task.rlo {
			t.Fatalf("task %+v does not continue its partition's rows at %d", task, next[task.layer])
		}
		if task.rhi != base.RowHi && task.rhi%64 != 0 {
			t.Errorf("task %+v ends on an unaligned interior row", task)
		}
		next[task.layer] = task.rhi
		w := 0
		for _, r := range base.IR {
			if r >= task.rlo && r < task.rhi {
				w++
			}
		}
		total += w
		heaviest = max(heaviest, w)
	}
	for i, l := range layers {
		if next[i] != l.Base.RowHi {
			t.Errorf("partition %d: tasks cover rows up to %d of %d", i, next[i], l.Base.RowHi)
		}
	}
	if mean := total / len(pull); heaviest > 2*mean {
		t.Errorf("heaviest pull task carries %d edges, above twice the mean %d", heaviest, mean)
	}
}
