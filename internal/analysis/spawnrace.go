package analysis

import (
	"fmt"
	"go/token"
)

// SpawnRace flags spawner/goroutine access pairs with no
// happens-before edge between them: a variable the spawned goroutine
// writes and the spawner reads after the spawn (or vice versa), with
// neither a join — a WaitGroup.Wait the goroutine Dones, an Event.Wait
// on a vclock.Event it fires, or a receive on a channel it sends on —
// between the spawn and the spawner's access, nor a mutex both sides hold at their accesses.
//
// The facts come from the concflow engine: spawn sites cover plain
// `go` statements and async-wrapper calls (vclock's Virtual.Go and
// friends), goroutine access sets follow one same-function closure hop
// (the `runCell := func(…)` worker idiom), and field accesses carry
// their base object so s1.n and s2.n never pair. Method-call receivers
// are borrows, not accesses: the callee's own lock discipline is
// checked where it is declared. That keeps the rule object-precise and
// quiet on the repo's channel- and join-structured concurrency while
// still catching the classic "collect results after go, forget the
// Wait" slip.
type SpawnRace struct{}

// ID implements Rule.
func (SpawnRace) ID() string { return "spawnrace" }

// Doc implements Rule.
func (SpawnRace) Doc() string {
	return "a variable shared between a goroutine and its spawner needs a join edge or a common mutex"
}

// Check implements Rule.
func (SpawnRace) Check(m *Module) []Diagnostic {
	cf, err := m.concFlow()
	if err != nil {
		return []Diagnostic{typeErrorDiag("spawnrace", err)}
	}
	var ds []Diagnostic
	for _, scope := range cf.scopes {
		ds = append(ds, checkScopeRaces(m, scope)...)
	}
	return ds
}

// checkScopeRaces reports the first witness pair per (spawn, object).
func checkScopeRaces(m *Module, scope *concScope) []Diagnostic {
	var ds []Diagnostic
	for _, spawn := range scope.spawns {
		reported := map[string]bool{}
		for _, gA := range spawn.accesses {
			for _, sA := range scope.post {
				if sA.pos <= spawn.pos {
					continue // spawner access precedes the spawn
				}
				if !sameSharedObject(gA, sA) || !(gA.write || sA.write) {
					continue
				}
				if reported[gA.name] {
					continue
				}
				if joinBetween(scope, spawn, sA.pos) {
					continue
				}
				if commonLock(gA.held, sA.held) {
					continue
				}
				reported[gA.name] = true
				ds = append(ds, Diagnostic{
					RuleID: "spawnrace",
					Pos:    position(m, sA.pos),
					Message: fmt.Sprintf("%s is %s by the goroutine spawned at %s (via %s) and %s by the spawner here, with no join or common lock between them in %s",
						sA.name, accessVerb(gA.write), position(m, spawn.pos), spawn.via,
						accessVerb(sA.write), scope.name),
					Suggestion: "join the goroutine first (WaitGroup.Wait, Event.Wait on an Event it fires, or receive on a channel it closes/sends on), or guard both accesses with one mutex",
				})
			}
		}
	}
	return ds
}

func accessVerb(write bool) string {
	if write {
		return "written"
	}
	return "read"
}

// sameSharedObject reports whether two accesses touch the same storage:
// identical objects, and for field accesses an identical (resolved)
// base instance — an unresolved base on either side is conservatively
// treated as a different instance.
func sameSharedObject(a, b sharedAccess) bool {
	if a.obj != b.obj {
		return false
	}
	if a.base == nil && b.base == nil {
		return true
	}
	return a.base != nil && a.base == b.base
}

// joinBetween reports whether the scope joins this spawn's goroutine
// between the spawn point and the given access position: a Wait on a
// WaitGroup the goroutine Dones or an Event it fires, or a receive on a
// channel it sends on.
func joinBetween(scope *concScope, spawn *spawnSite, accessPos token.Pos) bool {
	for _, j := range scope.joins {
		if j.pos <= spawn.pos || j.pos >= accessPos {
			continue
		}
		switch j.kind {
		case "wait":
			if spawn.dones[j.obj] {
				return true
			}
		case "receive":
			if spawn.sends[j.obj] {
				return true
			}
		}
	}
	return false
}

// commonLock reports whether the two held sets share a lock, matched
// object-precisely when both sides resolved the mutex expression, by
// class otherwise.
func commonLock(a, b []heldRef) bool {
	for _, ra := range a {
		for _, rb := range b {
			if ra.obj != nil && ra.obj == rb.obj {
				return true
			}
			if ra.class != "" && ra.class == rb.class {
				return true
			}
		}
	}
	return false
}
