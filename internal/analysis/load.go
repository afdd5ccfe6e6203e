package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	pathpkg "path"
	"path/filepath"
	"sort"
	"strings"
)

// The loader turns `go list` package patterns into type-checked
// *Packages without depending on golang.org/x/tools. The trick that
// keeps it small and fast is `go list -export -deps -json`: the go
// command compiles (or serves from the build cache) export data for
// every dependency and prints the file path, and go/importer's gc mode
// accepts a lookup function that reads exactly those files. Only the
// requested packages themselves are parsed and type-checked from
// source — dependencies, including in-module ones, are imported from
// export data — so a whole-module load is one cached `go list`
// invocation plus one type-check per analyzed package.

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	Name       string
	GoFiles    []string
	Module     *struct {
		Path string
		Main bool
	}
	Error *struct {
		Err string
	}
}

// Load lists patterns in the module rooted at dir and returns the
// type-checked main-module packages the patterns name. Dependencies are
// imported from compiler export data; the named packages are parsed
// with comments (analyzers read doc markers and directives) and
// type-checked from source.
func Load(dir string, patterns ...string) (*token.FileSet, []*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,Standard,DepOnly,Name,GoFiles,Module,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var roots []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && p.Module != nil && p.Module.Main {
			cp := p
			roots = append(roots, &cp)
		}
	}
	if len(roots) == 0 {
		return nil, nil, fmt.Errorf("go list %s: no main-module packages matched", strings.Join(patterns, " "))
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ImportPath < roots[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	var pkgs []*Package
	whole := wholeRoot(roots)
	for _, root := range roots {
		pkg, err := typeCheck(fset, imp, root)
		if err != nil {
			return nil, nil, err
		}
		pkg.wholeRoot = whole
		pkgs = append(pkgs, pkg)
	}
	return fset, pkgs, nil
}

// wholeRoot returns the import path the listed packages share when they
// are every package under the directory they share, and "" when the
// load is partial: a whole-module load's root is the module path.
func wholeRoot(roots []*listPackage) string {
	path, dir := roots[0].ImportPath, roots[0].Dir
	loaded := make(map[string]bool)
	for _, r := range roots {
		for r.ImportPath != path && !strings.HasPrefix(r.ImportPath, path+"/") {
			path, dir = pathpkg.Dir(path), filepath.Dir(dir)
		}
		loaded[r.ImportPath] = true
	}
	cmd := exec.Command("go", "list", "-e", "-find", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	for _, p := range strings.Fields(string(out)) {
		if !loaded[p] {
			return ""
		}
	}
	return path
}

// typeCheck parses and checks one listed package from source.
func typeCheck(fset *token.FileSet, imp types.Importer, lp *listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, errors.Join(typeErrs...))
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{Path: lp.ImportPath, Files: files, Types: tpkg, Info: info}, nil
}
