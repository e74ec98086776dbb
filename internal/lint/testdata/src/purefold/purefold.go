// Fixture for the purefold analyzer: a vertex program's fold operators and
// SendMessage with every class of impurity, plus pure and non-qualifying
// types.
package purefold

import "fmt"

var totalReduces int
var sink chan int

type BadProg struct {
	seen    []int
	reduces int
}

func (p *BadProg) ProcessMessage(m, e int) int {
	p.seen = append(p.seen, m)       // want "writes receiver state"
	_ = fmt.Sprintf("message %d", m) // want "calls fmt.Sprintf"
	return m + e
}

func (p *BadProg) Reduce(a, b int) int {
	p.reduces++    // want "writes receiver state"
	totalReduces++ // want "writes package-level state"
	go func() {}() // want "starts a goroutine"
	sink <- a      // want "sends on a channel"
	if a > b {
		return a
	}
	return b
}

// BadSender's fold operators are pure, but its SendMessage, which runs inside
// the previous superstep's apply phase, is not.
type BadSender struct{ sends int }

func (p *BadSender) SendMessage(v, prop int) (int, bool) {
	p.sends++            // want "SendMessage writes receiver state"
	totalReduces += prop // want "SendMessage writes package-level state"
	_ = fmt.Sprint(v)    // want "SendMessage calls fmt.Sprint"
	go func() {}()       // want "SendMessage starts a goroutine"
	return prop, true
}

func (*BadSender) ProcessMessage(m, e int) int { return m + e }
func (*BadSender) Reduce(a, b int) int         { return a + b }
