package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// File is one parsed source file.
type File struct {
	// Path is the file path relative to the module root, with forward
	// slashes (stable across platforms for allowlists and tests).
	Path string
	AST  *ast.File
	// Test reports whether the file is a _test.go file. Most rules skip
	// tests: they may legitimately use wall clock, extra imports, etc.
	Test bool
}

// Package is one directory's worth of parsed files.
type Package struct {
	// Path is the full import path (module path + relative directory).
	Path string
	// Rel is the directory relative to the module root ("" for the root
	// package itself).
	Rel   string
	Files []*File
}

// Module is the parsed unit rules run over.
type Module struct {
	// Path is the module path from go.mod (e.g. "cloud4home").
	Path string
	// Root is the absolute directory containing go.mod.
	Root     string
	Fset     *token.FileSet
	Packages []*Package

	// typed caches the go/types check of the module (see Types).
	typed *typedResult
	// flow caches the lock-flow summaries built on top of it.
	flow *lockFlowResult
	// defuse caches the def-use dataflow context built on top of both.
	defuse *dataFlowResult
	// conc caches the goroutine-aware concurrency context built on top
	// of the lock-flow summaries (see concflow.go).
	conc *concFlowResult
}

// FindModuleRoot walks upward from dir until it finds go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// LoadModule parses every Go source file under root that the host's
// build compiles (skipping testdata, vendor, hidden and underscore
// directories, and files whose build constraints exclude them, so a
// build-tagged pair declares its names once) into a Module.
func LoadModule(root string) (*Module, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	mod := modulePath(gomod)
	if mod == "" {
		return nil, fmt.Errorf("analysis: no module path in %s/go.mod", root)
	}

	m := &Module{Path: mod, Root: root, Fset: token.NewFileSet()}
	pkgs := make(map[string]*Package)

	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), name); err != nil || !ok {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		dir := ""
		if i := strings.LastIndex(rel, "/"); i >= 0 {
			dir = rel[:i]
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		// Register under the relative path so diagnostics, allowlists,
		// and tests are independent of where the module is checked out.
		astf, err := parser.ParseFile(m.Fset, rel, src, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("analysis: parse %s: %w", rel, err)
		}
		pkgPath := mod
		if dir != "" {
			pkgPath = mod + "/" + dir
		}
		p := pkgs[pkgPath]
		if p == nil {
			p = &Package{Path: pkgPath, Rel: dir}
			pkgs[pkgPath] = p
		}
		p.Files = append(p.Files, &File{
			Path: rel,
			AST:  astf,
			Test: strings.HasSuffix(name, "_test.go"),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, p := range pkgs {
		sort.Slice(p.Files, func(i, j int) bool { return p.Files[i].Path < p.Files[j].Path })
		m.Packages = append(m.Packages, p)
	}
	sort.Slice(m.Packages, func(i, j int) bool { return m.Packages[i].Path < m.Packages[j].Path })
	return m, nil
}
