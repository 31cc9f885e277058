// Command loc counts the code lines of Go packages: a line counts when it
// holds a token, so comments and blank lines do not, and test files
// (_test.go) are left out. It prints each package's count, each root's
// when given more than one, and the total.
//
//	go run ./.github/loc internal cmd examples
package main

import (
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	total := 0
	for _, root := range roots {
		pkgs, err := count(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loc:", err)
			os.Exit(1)
		}
		dirs := make([]string, 0, len(pkgs))
		for dir := range pkgs {
			dirs = append(dirs, dir)
		}
		sort.Strings(dirs)
		sum := 0
		for _, dir := range dirs {
			fmt.Printf("%7d  %s\n", pkgs[dir], dir)
			sum += pkgs[dir]
		}
		if len(roots) > 1 {
			fmt.Printf("%7d  %s (all)\n", sum, root)
		}
		total += sum
	}
	fmt.Printf("%7d  total\n", total)
}

// count returns the code lines of each package directory under root.
func count(root string) (map[string]int, error) {
	pkgs := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n, err := codeLines(path, src)
		pkgs[filepath.Dir(path)] += n
		return err
	})
	return pkgs, err
}

// codeLines counts the lines of src that hold a token other than a
// semicolon the scanner inserted at a line's end.
func codeLines(path string, src []byte) (int, error) {
	fset := token.NewFileSet()
	file := fset.AddFile(path, -1, len(src))
	var s scanner.Scanner
	var bad error
	s.Init(file, src, func(pos token.Position, msg string) { bad = fmt.Errorf("%s: %s", pos, msg) }, 0)
	lines := map[int]bool{}
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		if tok == token.SEMICOLON && lit == "\n" {
			continue
		}
		lines[file.Line(pos)] = true
	}
	return len(lines), bad
}
