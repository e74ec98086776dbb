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

// GoodSender's SendMessage is a function of (v, prop) alone.
type GoodSender struct{ scale int }

func (p GoodSender) SendMessage(v, prop int) (int, bool) {
	msg := prop * p.scale
	return msg + v, prop >= 0
}

func (GoodSender) ProcessMessage(m, e int) int { return m + e }
func (GoodSender) Reduce(a, b int) int         { return min(a, b) }

// OnlySends declares SendMessage but no fold operators, so it is not a
// program and its receiver write is not flagged.
type OnlySends struct{ sends int }

func (o *OnlySends) SendMessage(v, prop int) (int, bool) {
	o.sends++
	return prop, true
}
