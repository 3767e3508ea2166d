package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, parsed, type-checked package — the unit every
// analyzer runs over.
type Package struct {
	// Path is the import path ("repro/internal/gpu"), or a synthetic
	// "fixture/<name>" path for testdata packages.
	Path string
	// Dir is the package's source directory.
	Dir string
	// Fset positions the package's syntax.
	Fset *token.FileSet
	// Files are the parsed non-test Go files, comments included.
	Files []*ast.File
	// Types and Info carry the go/types results.
	Types *types.Package
	Info  *types.Info
	// Fixture marks a testdata package: analyzers with a package scope
	// treat fixtures as in scope so golden tests exercise them.
	Fixture bool
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
}

// goList runs `go list` in dir (module root resolution is the go
// command's) and decodes its JSON package stream.
func goList(dir string, args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", append([]string{"list",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Standard"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decode go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter builds a go/types importer that resolves every import
// from compiler export data produced by `go list -export`.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		p, ok := exports[path]
		if !ok || p == "" {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(p)
	})
}

// Load resolves the package patterns with the go command, then parses
// and type-checks each matched package from source, with all imports
// (stdlib and module siblings alike) satisfied from `go list -export`
// compiler export data — a go/packages-equivalent loader on the
// standard library only, so simlint works offline.
func Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList("", append([]string{"-export", "-deps"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(pkgs))
	var roots []listPkg
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			roots = append(roots, p)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ImportPath < roots[j].ImportPath })

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	out := make([]*Package, 0, len(roots))
	for _, r := range roots {
		files := make([]string, len(r.GoFiles))
		for i, f := range r.GoFiles {
			files[i] = filepath.Join(r.Dir, f)
		}
		pkg, err := typeCheck(fset, imp, r.ImportPath, r.Dir, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadFixture loads one testdata fixture directory — which the go tool
// ignores by design — as a package with the synthetic import path
// "fixture/<dir>". Everything the fixture imports (including this
// module's own internal packages) resolves via `go list -export`.
func LoadFixture(dir string) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: fixture %s: %w", dir, err)
	}
	fset := token.NewFileSet()
	var asts []*ast.File
	importSet := map[string]bool{}
	for _, e := range entries { // ReadDir sorts by name
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		af, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse fixture: %w", err)
		}
		asts = append(asts, af)
		for _, spec := range af.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return nil, fmt.Errorf("analysis: fixture import %s: %w", spec.Path.Value, err)
			}
			if p != "unsafe" {
				importSet[p] = true
			}
		}
	}
	if len(asts) == 0 {
		return nil, fmt.Errorf("analysis: fixture %s: no Go files", dir)
	}
	exports := map[string]string{}
	if len(importSet) > 0 {
		imports := make([]string, 0, len(importSet))
		for p := range importSet {
			imports = append(imports, p)
		}
		sort.Strings(imports)
		// Resolve from the fixture's directory: it lives inside the
		// module, so module-internal import paths resolve too.
		deps, err := goList(dir, append([]string{"-export", "-deps"}, imports...)...)
		if err != nil {
			return nil, err
		}
		for _, p := range deps {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	pkg, err := typeCheckFiles(fset, exportImporter(fset, exports), "fixture/"+filepath.Base(dir), dir, asts)
	if err != nil {
		return nil, err
	}
	pkg.Fixture = true
	return []*Package{pkg}, nil
}

func typeCheck(fset *token.FileSet, imp types.Importer, path, dir string, files []string) (*Package, error) {
	var asts []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse: %w", err)
		}
		asts = append(asts, af)
	}
	return typeCheckFiles(fset, imp, path, dir, asts)
}

func typeCheckFiles(fset *token.FileSet, imp types.Importer, path, dir string, asts []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: fset, Files: asts, Types: tpkg, Info: info}, nil
}
