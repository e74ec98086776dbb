package sparse

import "fmt"

// NewDCSCView assembles a DCSC over externally owned arrays — typically
// zero-copy views into an mmap'd GMATSNAP section. The arrays are NOT
// copied: the caller guarantees they outlive the partition and, for mapped
// read-only memory, that nothing ever writes through it (published store
// snapshots never do). The column index is derived state, built on the
// heap by the first lookup, so nothing here allocates beyond the header.
//
// Validation is O(1): the length consistency that ties the arrays together
// (CP brackets JC, CP's final pointer covers IR and Val). Content-level
// invariants — sorted JC, monotone CP, row ids within range — are the
// serializer's contract, enforced by the snapshot writer's deep validation
// and its payload CRCs, so the boot path stays O(partitions), not O(nnz).
func NewDCSCView[E any](nrows, ncols, rowLo, rowHi uint32, jc, cp, ir []uint32, val []E) (*DCSC[E], error) {
	if rowLo > rowHi || rowHi > nrows {
		return nil, fmt.Errorf("sparse: view row range [%d, %d) outside [0, %d)", rowLo, rowHi, nrows)
	}
	if len(cp) != len(jc)+1 {
		return nil, fmt.Errorf("sparse: view CP length %d must be JC length %d + 1", len(cp), len(jc))
	}
	if cp[0] != 0 {
		return nil, fmt.Errorf("sparse: view CP must start at 0, got %d", cp[0])
	}
	nnz := cp[len(cp)-1]
	if uint32(len(ir)) != nnz || uint32(len(val)) != nnz {
		return nil, fmt.Errorf("sparse: view IR/Val lengths (%d, %d) must equal CP's final pointer %d", len(ir), len(val), nnz)
	}
	return &DCSC[E]{
		NRows: nrows,
		NCols: ncols,
		RowLo: rowLo,
		RowHi: rowHi,
		JC:    jc,
		CP:    cp,
		IR:    ir,
		Val:   val,
	}, nil
}
