// Fixture for the purefold analyzer: a vertex program's fold operators with
// every class of impurity, plus pure and non-qualifying types.
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
