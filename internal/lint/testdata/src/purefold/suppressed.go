package purefold

// Negative fixture: an instrumented program whose receiver write carries the
// justified directive purefold requires. No diagnostics in this file.

type AuditedProg struct{ reduces int }

func (p *AuditedProg) ProcessMessage(m, e int) int { return m * e }

func (p *AuditedProg) Reduce(a, b int) int {
	p.reduces++ //lint:graphmat purefold debug-only program, run single-worker under a build tag
	return a + b
}
