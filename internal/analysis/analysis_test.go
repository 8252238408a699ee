package analysis

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The fixture harness: every testdata/src/<rule>/*.go file is parsed as
// its own single-file package and run through that rule alone. Expected
// findings are declared inline with `// want "substring"` comments
// (several quoted substrings allowed per line); a line's diagnostics
// must match its want-comments exactly, and lines without wants must
// stay clean.
//
// A fixture may open with a `//c4hvet:pkg <import path>` directive to
// pretend it lives in a specific package (the wallclock, globalrand,
// and layering rules key off package paths).

var fixtureRules = map[string]Rule{
	"wallclock":      WallClock{},
	"globalrand":     GlobalRand{},
	"lockdiscipline": LockDiscipline{},
	"layering":       Layering{},
	"goroleak":       GoroLeak{},
	"lockorder":      LockOrder{},
	"guardedfield":   GuardedField{},
	"mapiter":        MapIter{},
	"chanhold":       ChanHold{},
	"detflow":        DetFlow{},
	"guardescape":    GuardEscape{},
	"errsink":        ErrSink{},
	"hotalloc":       HotAlloc{},
	"atomicmix":      AtomicMix{},
	"spawnrace":      SpawnRace{},
	"condwait":       CondWait{},
	"arenaowner":     ArenaOwner{},
}

func TestFixtures(t *testing.T) {
	for ruleName, rule := range fixtureRules {
		t.Run(ruleName, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", ruleName)
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatalf("no fixtures for rule %s: %v", ruleName, err)
			}
			var good, bad int
			for _, e := range entries {
				if !strings.HasSuffix(e.Name(), ".go") {
					continue
				}
				path := filepath.Join(dir, e.Name())
				nWant := runFixture(t, rule, path)
				if nWant == 0 {
					good++
				} else {
					bad++
				}
			}
			if good == 0 || bad == 0 {
				t.Fatalf("rule %s needs at least one clean and one violating fixture (got %d clean, %d violating)", ruleName, good, bad)
			}
		})
	}
}

var (
	pkgDirective = regexp.MustCompile(`(?m)^//c4hvet:pkg (\S+)$`)
	wantComment  = regexp.MustCompile(`// want (.*)$`)
	wantQuoted   = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
)

// runFixture checks one fixture file and returns how many want
// annotations it carries.
func runFixture(t *testing.T, rule Rule, path string) int {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	pkgPath := "cloud4home/internal/fixture"
	if m := pkgDirective.FindSubmatch(src); m != nil {
		pkgPath = string(m[1])
	}
	rel, ok := relPkg("cloud4home", pkgPath)
	if !ok {
		t.Fatalf("%s: directive package %q is not under module cloud4home", path, pkgPath)
	}

	fset := token.NewFileSet()
	astf, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	m := &Module{
		Path: "cloud4home",
		Fset: fset,
		Packages: []*Package{{
			Path:  pkgPath,
			Rel:   rel,
			Files: []*File{{Path: path, AST: astf}},
		}},
	}

	diags := Run(m, []Rule{rule})
	byLine := map[int][]Diagnostic{}
	for _, d := range diags {
		byLine[d.Pos.Line] = append(byLine[d.Pos.Line], d)
	}

	// Collect want annotations per line.
	wants := map[int][]string{}
	total := 0
	for i, line := range strings.Split(string(src), "\n") {
		wm := wantComment.FindStringSubmatch(line)
		if wm == nil {
			continue
		}
		for _, q := range wantQuoted.FindAllStringSubmatch(wm[1], -1) {
			wants[i+1] = append(wants[i+1], q[1])
			total++
		}
	}

	// Every want must be satisfied by a diagnostic on its line.
	for line, subs := range wants {
		got := byLine[line]
		if len(got) != len(subs) {
			t.Errorf("%s:%d: want %d diagnostic(s) %q, got %d: %v", path, line, len(subs), subs, len(got), got)
			continue
		}
		for _, sub := range subs {
			found := false
			for _, d := range got {
				if strings.Contains(d.Message, sub) || d.RuleID == sub {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s:%d: no diagnostic matching %q in %v", path, line, sub, got)
			}
		}
	}
	// No diagnostics on unannotated lines.
	lines := make([]int, 0, len(byLine))
	for line := range byLine {
		lines = append(lines, line)
	}
	sort.Ints(lines)
	for _, line := range lines {
		if _, annotated := wants[line]; !annotated {
			t.Errorf("%s:%d: unexpected diagnostic(s): %v", path, line, byLine[line])
		}
	}
	return total
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		RuleID:     "wallclock",
		Pos:        token.Position{Filename: "internal/netsim/netsim.go", Line: 10, Column: 3},
		Message:    "wall-clock call time.Now",
		Suggestion: "inject a vclock.Clock",
	}
	got := d.String()
	want := "internal/netsim/netsim.go:10:3: [wallclock] wall-clock call time.Now — inject a vclock.Clock"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestAllowlist(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "allow")
	content := "# accepted findings\n" +
		"wallclock internal/netsim/   # whole directory\n" +
		"globalrand internal/trace/trace.go\n" +
		"* internal/legacy/*.go\n"
	if err := os.WriteFile(file, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	al, err := ParseAllowlist(file)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		rule, file string
		want       bool
	}{
		{"wallclock", "internal/netsim/netsim.go", true},
		{"wallclock", "internal/netsim/profiles.go", true},
		{"globalrand", "internal/netsim/netsim.go", false},
		{"globalrand", "internal/trace/trace.go", true},
		{"lockdiscipline", "internal/legacy/old.go", true},
		{"wallclock", "internal/cloudsim/cloudsim.go", false},
	}
	for _, c := range cases {
		d := Diagnostic{RuleID: c.rule, Pos: token.Position{Filename: c.file}}
		if got := al.Allows(d); got != c.want {
			t.Errorf("Allows(%s, %s) = %v, want %v", c.rule, c.file, got, c.want)
		}
	}

	if _, err := ParseAllowlist(filepath.Join(dir, "missing")); err == nil {
		t.Error("ParseAllowlist of a missing file should error")
	}
	badFile := filepath.Join(dir, "bad")
	os.WriteFile(badFile, []byte("only-one-field\n"), 0o644)
	if _, err := ParseAllowlist(badFile); err == nil {
		t.Error("ParseAllowlist of a malformed line should error")
	}

	// A nil allowlist suppresses nothing and filters nothing.
	var nilAl *Allowlist
	d := Diagnostic{RuleID: "wallclock", Pos: token.Position{Filename: "x.go"}}
	if nilAl.Allows(d) {
		t.Error("nil allowlist must not suppress")
	}
	if got := nilAl.Filter([]Diagnostic{d}); len(got) != 1 {
		t.Errorf("nil allowlist Filter dropped diagnostics: %v", got)
	}
}

func TestLoadModule(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if m.Path != "cloud4home" {
		t.Fatalf("module path = %q, want cloud4home", m.Path)
	}
	byPath := map[string]*Package{}
	for _, p := range m.Packages {
		byPath[p.Path] = p
	}
	for _, want := range []string{
		"cloud4home",
		"cloud4home/internal/analysis",
		"cloud4home/internal/netsim",
		"cloud4home/cmd/c4h-vet",
	} {
		if byPath[want] == nil {
			t.Errorf("package %s not loaded", want)
		}
	}
	// Fixtures under testdata must not be loaded as module packages.
	for path := range byPath {
		if strings.Contains(path, "testdata") {
			t.Errorf("testdata package leaked into module load: %s", path)
		}
	}
	// Test files must be classified so rules can skip them.
	netsim := byPath["cloud4home/internal/netsim"]
	var tests, nonTests int
	for _, f := range netsim.Files {
		if f.Test {
			tests++
		} else {
			nonTests++
		}
	}
	if tests == 0 || nonTests == 0 {
		t.Errorf("netsim file classification off: %d test, %d non-test", tests, nonTests)
	}
	// Of a build-tagged pair only the host's half is loaded: vclock's
	// fine wait is a nanosleep or, where there is none, the timer alone.
	var fine []string
	for _, f := range byPath["cloud4home/internal/vclock"].Files {
		if strings.HasPrefix(f.Path, "internal/vclock/fine_") {
			fine = append(fine, f.Path)
		}
	}
	if len(fine) != 1 {
		t.Errorf("vclock's build-tagged pair loaded as %v, want one file", fine)
	}
}

// TestAllowlistFormatRoundTrip pins the Format/Parse round trip:
// formatting an allowlist and parsing the result yields an equivalent
// suppression set (comments and blank lines are not preserved).
func TestAllowlistFormatRoundTrip(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "allow")
	content := "# accepted findings\n" +
		"wallclock internal/netsim/   # whole directory\n" +
		"\n" +
		"globalrand internal/trace/trace.go\n" +
		"* internal/legacy/*.go\n"
	if err := os.WriteFile(file, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	al, err := ParseAllowlist(file)
	if err != nil {
		t.Fatal(err)
	}

	formatted := al.Format()
	if strings.Contains(formatted, "#") {
		t.Errorf("Format() should not emit comments:\n%s", formatted)
	}
	file2 := filepath.Join(dir, "allow2")
	if err := os.WriteFile(file2, []byte(formatted), 0o644); err != nil {
		t.Fatal(err)
	}
	al2, err := ParseAllowlist(file2)
	if err != nil {
		t.Fatalf("Format() output failed to re-parse: %v", err)
	}
	if got := al2.Format(); got != formatted {
		t.Errorf("round trip diverged:\nfirst:\n%s\nsecond:\n%s", formatted, got)
	}
	// Both allowlists must make identical suppression decisions.
	probes := []Diagnostic{
		{RuleID: "wallclock", Pos: token.Position{Filename: "internal/netsim/netsim.go"}},
		{RuleID: "globalrand", Pos: token.Position{Filename: "internal/trace/trace.go"}},
		{RuleID: "lockorder", Pos: token.Position{Filename: "internal/legacy/old.go"}},
		{RuleID: "wallclock", Pos: token.Position{Filename: "internal/core/node.go"}},
	}
	for _, d := range probes {
		if al.Allows(d) != al2.Allows(d) {
			t.Errorf("round trip changed Allows(%s, %s)", d.RuleID, d.Pos.Filename)
		}
	}

	// Empty and nil allowlists format to nothing.
	if got := (&Allowlist{}).Format(); got != "" {
		t.Errorf("empty allowlist Format() = %q, want empty", got)
	}
	var nilAl *Allowlist
	if got := nilAl.Format(); got != "" {
		t.Errorf("nil allowlist Format() = %q, want empty", got)
	}
}

// TestSelectRules pins tier selection, single-rule selection, and
// deduplication across overlapping selectors.
func TestSelectRules(t *testing.T) {
	ids := func(rs []Rule) []string {
		var out []string
		for _, r := range rs {
			out = append(out, r.ID())
		}
		return out
	}
	cases := []struct {
		selector string
		want     []string
	}{
		{"syntactic", []string{"wallclock", "globalrand", "lockdiscipline", "layering"}},
		{"typed", []string{"lockorder", "guardedfield", "mapiter", "chanhold", "goroleak"}},
		{"dataflow", []string{"detflow", "guardescape", "errsink", "hotalloc"}},
		{"concurrency", []string{"atomicmix", "spawnrace", "condwait", "arenaowner"}},
		{"lockorder", []string{"lockorder"}},
		{"spawnrace,condwait", []string{"spawnrace", "condwait"}},
		{"syntactic,wallclock", []string{"wallclock", "globalrand", "lockdiscipline", "layering"}},
		{"errsink, hotalloc", []string{"errsink", "hotalloc"}},
	}
	for _, c := range cases {
		rs, err := SelectRules(c.selector)
		if err != nil {
			t.Errorf("SelectRules(%q): %v", c.selector, err)
			continue
		}
		got := ids(rs)
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("SelectRules(%q) = %v, want %v", c.selector, got, c.want)
		}
	}
	for _, bad := range []string{"nope", "", ",", "typed,nope"} {
		if _, err := SelectRules(bad); err == nil {
			t.Errorf("SelectRules(%q) should error", bad)
		}
	}
}
