package analysis

import (
	"fmt"
	"strings"
)

// ChanHold is the interprocedural completion of lockdiscipline's "no
// channel operations under a mutex" rule. lockdiscipline sees a send,
// receive, or select performed literally between Lock and Unlock;
// ChanHold follows calls: a function that acquires a mutex and then
// calls — directly or through any chain — into a function that blocks
// on a channel holds that mutex for an unbounded time, the classic
// virtual-clock deadlock shape (the blocked goroutine still holds the
// lock another actor needs to make the clock advance).
//
// Blocking means: channel send, channel receive, or a select with no
// default clause. Function literals run via `go` are excluded (they
// block their own goroutine, not the lock holder); literals passed to
// synchronous callees (parallel.Run callbacks, transfer OnChunk hooks)
// are followed, since the lock holder waits for them.
type ChanHold struct{}

// ID implements Rule.
func (ChanHold) ID() string { return "chanhold" }

// Doc implements Rule.
func (ChanHold) Doc() string {
	return "no call chain may block on a channel while a mutex is held (interprocedural)"
}

// Check implements Rule.
func (ChanHold) Check(m *Module) []Diagnostic {
	lf, err := m.lockFlow()
	if err != nil {
		return []Diagnostic{typeErrorDiag("chanhold", err)}
	}
	var ds []Diagnostic
	for _, sum := range lf.allSummaries() {
		for _, c := range sum.calls {
			if len(c.held) == 0 {
				continue
			}
			callee := lf.calleeSummary(c)
			if callee == nil || callee.blocks == nil {
				continue
			}
			b := callee.blocks
			heldNames := make([]string, 0, len(c.held))
			for _, h := range c.held {
				heldNames = append(heldNames, h.inst)
			}
			ds = append(ds, Diagnostic{
				RuleID: "chanhold",
				Pos:    position(m, c.pos),
				Message: fmt.Sprintf("call while holding %s may block on a channel %s (%s at %s)",
					strings.Join(heldNames, ", "), b.kind,
					strings.Join(append([]string{sum.name}, b.chain...), " → "),
					position(m, b.pos)),
				Suggestion: "release the lock before the call, or move the channel operation out of the locked region",
			})
		}
	}
	return ds
}
