package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/byz"
	"repro/internal/protocol"
	"repro/internal/scenario"
)

// TestDocsFreshnessPackageComments fails when any internal/* package
// lacks a `// Package ...` godoc comment: the layer map in DESIGN.md and
// the godoc are the two entry points new readers get, and a silent
// package keeps falling out of both. CI runs this as the docs-freshness
// gate.
func TestDocsFreshnessPackageComments(t *testing.T) {
	pkgFiles := map[string][]string{} // dir -> non-test .go files
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			pkgFiles[dir] = append(pkgFiles[dir], path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for dir, files := range pkgFiles {
		documented := false
		for _, f := range files {
			af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			if af.Doc != nil && strings.HasPrefix(af.Doc.Text(), "Package ") {
				documented = true
				break
			}
		}
		if !documented {
			t.Errorf("package %s has no `// Package ...` godoc comment in any file", dir)
		}
	}
}

// TestDocsFreshnessScenarioDSL fails when the scenario DSL grammar
// documented in EXPERIMENTS.md misses an event kind or a Byzantine
// behavior name — the docs drift this PR fixed must not reopen. The
// same check covers the Parse grammar comment and the wbft usage string,
// the two places PR 2's vocabulary additions were forgotten.
func TestDocsFreshnessScenarioDSL(t *testing.T) {
	for _, src := range []string{
		"EXPERIMENTS.md",
		filepath.Join("internal", "scenario", "parse.go"),
		filepath.Join("cmd", "wbft", "main.go"),
	} {
		raw, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, k := range scenario.Kinds() {
			if !strings.Contains(text, string(k)) {
				t.Errorf("%s does not mention scenario kind %q", src, k)
			}
		}
		for _, b := range byz.Names() {
			if !strings.Contains(text, b) {
				t.Errorf("%s does not mention Byzantine behavior %q", src, b)
			}
		}
	}
}

// TestDocsFreshnessEngines fails when a registered consensus engine is
// missing from the user-facing documentation or the wbft usage surface —
// the drift an engine registry makes possible: adding an engine touches
// one Go file, and nothing else would notice the docs staying stale.
func TestDocsFreshnessEngines(t *testing.T) {
	for _, src := range []string{
		"README.md",
		"DESIGN.md",
		"EXPERIMENTS.md",
		filepath.Join("cmd", "wbft", "main.go"),
	} {
		raw, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, k := range protocol.Kinds() {
			if !strings.Contains(text, string(k)) {
				t.Errorf("%s does not mention consensus engine %q", src, k)
			}
		}
	}
}

// docAnchor matches a code anchor of the form `path/file.go:Name`. Anchors
// name a declaration, never a line: line numbers rot with every edit above
// them and nothing notices.
var (
	docAnchor     = regexp.MustCompile(`([A-Za-z0-9_./-]+\.go):([A-Za-z_][A-Za-z0-9_]*)`)
	docLineAnchor = regexp.MustCompile(`[A-Za-z0-9_./-]+\.go:[0-9]+`)
)

// TestDocsFreshnessAnchors fails when a code anchor in the user-facing
// documentation names a file that does not exist, or a function, method
// or type that file does not declare, or falls back to a line number.
func TestDocsFreshnessAnchors(t *testing.T) {
	declared := map[string]map[string]bool{} // file -> top-level names
	fset := token.NewFileSet()
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docLineAnchor.FindAllString(string(raw), -1) {
			t.Errorf("%s: anchor %s cites a line number; cite file.go:FuncOrMethod", doc, m)
		}
		for _, m := range docAnchor.FindAllStringSubmatch(string(raw), -1) {
			file, name := m[1], m[2]
			names, ok := declared[file]
			if !ok {
				af, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
				if err != nil {
					t.Errorf("%s: anchor %s: %v", doc, m[0], err)
					declared[file] = nil
					continue
				}
				names = map[string]bool{}
				for _, d := range af.Decls {
					switch d := d.(type) {
					case *ast.FuncDecl:
						names[d.Name.Name] = true
					case *ast.GenDecl:
						for _, sp := range d.Specs {
							if ts, ok := sp.(*ast.TypeSpec); ok {
								names[ts.Name.Name] = true
							}
						}
					}
				}
				declared[file] = names
			}
			if names != nil && !names[name] {
				t.Errorf("%s: anchor %s: %s declares no function, method or type %s", doc, m[0], file, name)
			}
		}
	}
}

// TestDocsFreshnessCI fails when a CI step's test selection misses: an
// alternative of a `go test -run '…'` pattern in the workflow that is a
// prefix of no Test function declared in that command's packages, a
// `-fuzz '^X$'` target its package does not declare, or a declared Fuzz
// target the fuzz smoke does not run. go test passes a pattern that
// matches nothing, so a renamed test would otherwise drop out of its
// named step in silence.
func TestDocsFreshnessCI(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	decls := map[string][]string{} // package dir -> top-level test-file funcs
	declared := func(dir string) []string {
		if names, ok := decls[dir]; ok {
			return names
		}
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, f := range files {
			af, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range af.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					names = append(names, fd.Name.Name)
				}
			}
		}
		decls[dir] = names
		return names
	}
	fuzzed := map[string]bool{} // "dir.FuzzX" the fuzz smoke runs
	for _, line := range strings.Split(string(raw), "\n") {
		args := strings.Fields(line)
		at := slices.Index(args, "test")
		if strings.HasPrefix(strings.TrimSpace(line), "#") || at < 1 || args[at-1] != "go" {
			continue
		}
		var run, fuzz string
		var pkgs []string
		for i := at + 1; i < len(args) && args[i] != "&&"; i++ {
			switch a := args[i]; a {
			case "-run", "-fuzz", "-bench", "-benchtime", "-fuzztime", "-fuzzminimizetime":
				if i++; i < len(args) {
					v := strings.Trim(args[i], `'"`)
					if a == "-run" {
						run = v
					} else if a == "-fuzz" {
						fuzz = v
					}
				}
			default:
				if !strings.HasPrefix(a, "-") {
					pkgs = append(pkgs, filepath.Clean(a))
				}
			}
		}
		if run != "" && run != "^$" {
			var names []string
			for _, p := range pkgs {
				names = append(names, declared(p)...)
			}
			for _, alt := range strings.Split(run, "|") {
				if !slices.ContainsFunc(names, func(n string) bool { return strings.HasPrefix(n, "Test") && strings.HasPrefix(n, alt) }) {
					t.Errorf("ci.yml: -run alternative %q is a prefix of no Test declared in %v", alt, pkgs)
				}
			}
		}
		if fuzz != "" {
			name := strings.TrimSuffix(strings.TrimPrefix(fuzz, "^"), "$")
			if len(pkgs) != 1 || !slices.Contains(declared(pkgs[0]), name) {
				t.Errorf("ci.yml: -fuzz %q names no target declared in %v", fuzz, pkgs)
				continue
			}
			fuzzed[pkgs[0]+"."+name] = true
		}
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "benchmark") {
			return filepath.SkipDir // hidden, or its own module
		}
		for _, name := range declared(path) {
			if strings.HasPrefix(name, "Fuzz") && !fuzzed[path+"."+name] {
				t.Errorf("%s declares %s, which ci.yml's fuzz smoke does not run", path, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
