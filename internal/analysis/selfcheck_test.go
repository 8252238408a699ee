package analysis

import (
	"testing"
)

// loadSelf parses the repository this test runs in.
func loadSelf(t *testing.T) *Module {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRepositoryIsClean runs every rule over the repository itself and
// requires zero findings: the invariants c4h-vet enforces must hold in
// the tree that ships it. This is the same gate `make lint` and CI
// apply; keeping it as a test means `go test ./...` alone already
// catches a violation.
func TestRepositoryIsClean(t *testing.T) {
	m := loadSelf(t)
	diags := Run(m, DefaultRules())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("fix the findings above rather than allowlisting them; see DESIGN.md \"Static analysis & invariants\"")
	}
}

// BenchmarkVet measures a full c4h-vet pass over this repository: one
// load + type-check, then all four tiers' rules sharing the cached
// call-graph, lock-flow, def-use, and concurrency engines. The bench
// gate tracks its allocations, so an accidental per-tier reload — the
// regression the shared Module exists to prevent — shows up as a step
// change rather than slipping in as "lint got slower".
func BenchmarkVet(b *testing.B) {
	root, err := FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := LoadModule(root)
		if err != nil {
			b.Fatal(err)
		}
		if diags := Run(m, DefaultRules()); len(diags) != 0 {
			b.Fatalf("repository not clean: %d findings", len(diags))
		}
	}
}

// TestRuleMetadata pins rule IDs (allowlists and CI logs depend on
// them) and requires every rule to document itself.
func TestRuleMetadata(t *testing.T) {
	want := []string{
		"wallclock", "globalrand", "lockdiscipline", "layering",
		"lockorder", "guardedfield", "mapiter", "chanhold", "goroleak",
		"detflow", "guardescape", "errsink", "hotalloc",
		"atomicmix", "spawnrace", "condwait", "arenaowner",
	}
	rules := DefaultRules()
	if len(rules) != len(want) {
		t.Fatalf("DefaultRules() has %d rules, want %d", len(rules), len(want))
	}
	for i, r := range rules {
		if r.ID() != want[i] {
			t.Errorf("rule %d ID = %q, want %q", i, r.ID(), want[i])
		}
		if r.Doc() == "" {
			t.Errorf("rule %s has no Doc", r.ID())
		}
	}
}
