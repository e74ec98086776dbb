package purefold

// Pure operators and non-qualifying method sets: none of these may be
// flagged.

type GoodProg struct{}

func (GoodProg) ProcessMessage(m, e int) int { return m + e }

func (GoodProg) Reduce(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// NotAProgram declares only Reduce, so the purity contract does not apply:
// a type needs both ProcessMessage and Reduce to qualify.
type NotAProgram struct{ calls int }

func (n *NotAProgram) Reduce(a, b int) int {
	n.calls++
	return a + b
}

// Local state inside an operator is fine: purity is about state that outlives
// the call.
type LocalsProg struct{}

func (LocalsProg) ProcessMessage(m, e int) int { return m * e }
func (LocalsProg) Reduce(a, b int) int {
	acc := a
	acc += b
	return acc
}
