package integration

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// exportedWithoutCaller lists the exported functions under internal/ that
// no program calls, each with the reason it stays.
var exportedWithoutCaller = map[string]string{
	"paths.Disjoint":               "reference oracle: tests check edge-disjoint path sets against it",
	"job.WriteJSON":                "writer half of the job format the command reads",
	"sim.WriteLinkTrace":           "writer half of the failure-trace format -fail-trace reads",
	"schedule.WeightUniform":       "one of the paper's stage-2 weight alternatives, chosen through Config.Weight",
	"schedule.WeightByInverseSize": "one of the paper's stage-2 weight alternatives, chosen through Config.Weight",
	"schedule.WeightByImportance":  "one of the paper's stage-2 weight alternatives, chosen through Config.Weight",
	"timeslice.FromBoundaries":     "the paper's non-uniform LEN(j) grids",
}

// methodsWithoutCaller lists the exported methods under internal/ that no
// program calls, each with the reason it stays.
var methodsWithoutCaller = map[string]string{
	"dense.Problem.Solve":      "reference oracle: tests cross-check the sparse simplex against the dense tableau",
	"server.Server.Controller": "the cluster soak test, in another package, reads the live controller through it",
}

// libraryInterfaces declares the standard-library interfaces the library
// calls through — fmt.Stringer, error, errors.Is/As, sort and heap,
// http.Handler, json's (un)marshalers: a method with which its type
// implements one of them is called by the library, not by a caller in the
// module.
const libraryInterfaces = `package lib

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
)

type (
	stringer    = fmt.Stringer
	errorType   = error
	unwrapper   interface{ Unwrap() error }
	sorter      = sort.Interface
	heapType    = heap.Interface
	handler     = http.Handler
	marshaler   = json.Marshaler
	unmarshaler = json.Unmarshaler
)
`

// TestEveryExportedFunctionHasACaller: an exported top-level function or
// method under internal/ cannot be reached from outside the module, so one
// that only tests call is code no program runs. Every non-test package of
// the module — the command, example and benchmark programs and the
// packages they import — counts as a caller. One without a caller must be
// deleted or allowlisted above with its reason.
func TestEveryExportedFunctionHasACaller(t *testing.T) {
	funcs, methods := uncalled(t, filepath.Join("..", ".."))
	for _, list := range []struct {
		what      string
		found     []declRef
		allowlist map[string]string
	}{
		{"function", funcs, exportedWithoutCaller},
		{"method", methods, methodsWithoutCaller},
	} {
		seen := map[string]bool{}
		for _, d := range list.found {
			seen[d.key] = true
			if list.allowlist[d.key] == "" {
				t.Errorf("%s %s: %s has no caller outside tests: delete it, or allowlist it with its reason", list.what, d.dir, d.name)
			}
		}
		for key := range list.allowlist {
			if !seen[key] {
				t.Errorf("allowlisted %s %s is called by a program or is not under internal/ any more", list.what, key)
			}
		}
	}
}

// TestCallerGuardIsTypeExact runs the guard on a fixture module whose
// uncalled methods share their names with a field a program reads (Name)
// and a standard-library function it calls (Contains); a name match must
// not count as a caller, while a call through an interface and a method
// value must.
func TestCallerGuardIsTypeExact(t *testing.T) {
	funcs, methods := uncalled(t, filepath.Join("testdata", "callers"))
	var got []string
	for _, d := range append(funcs, methods...) {
		got = append(got, d.key)
	}
	want := []string{"shapes.Square.Contains", "shapes.Square.Name"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("uncalled = %q, want %q", got, want)
	}
}

// declRef is one exported declaration under internal/: its package
// directory, relative to the module root, its name ([Type.]Name) and the
// allowlist key (package.[Type.]Name).
type declRef struct{ dir, name, key string }

// uncalled type-checks every non-test package of the module at root and
// returns the exported functions and methods declared under internal/
// that no non-test code uses, each list sorted by key. A use is an
// identifier go/types resolves to the declaration itself — a call, a
// function or method value, a method expression — outside the
// declaration's own body; Info.Uses holds the selected name of every
// selector expression as well as every other identifier. A method also counts as used when its type
// implements an interface method that a program calls through the
// interface, or that the library does (libraryInterfaces).
func uncalled(t *testing.T, root string) (funcs, methods []declRef) {
	t.Helper()
	pkgs, library := typeCheck(t, root)
	used := map[*types.Func]bool{}
	var viaInterface []interfaceMethod
	for _, iface := range library {
		for i := 0; i < iface.NumMethods(); i++ {
			viaInterface = append(viaInterface, interfaceMethod{iface.Method(i).Name(), iface})
		}
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := p.info.Uses[id].(*types.Func)
					if !ok {
						return true
					}
					fn = fn.Origin()
					if fn == self || used[fn] {
						return true
					}
					used[fn] = true
					if recv := receiver(fn); recv != nil && types.IsInterface(recv) {
						viaInterface = append(viaInterface, interfaceMethod{fn.Name(), recv.Underlying().(*types.Interface)})
					}
					return true
				})
			}
		}
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				if used[fn] {
					continue
				}
				name := fd.Name.Name
				if fd.Recv == nil {
					funcs = append(funcs, declRef{p.dir, name, p.types.Name() + "." + name})
					continue
				}
				recv := receiver(fn)
				implemented := false
				for _, im := range viaInterface {
					if im.name == name && (types.Implements(recv, im.iface) || types.Implements(types.NewPointer(recv), im.iface)) {
						implemented = true
						break
					}
				}
				if !implemented {
					name = recv.(*types.Named).Obj().Name() + "." + name
					methods = append(methods, declRef{p.dir, name, p.types.Name() + "." + name})
				}
			}
		}
	}
	byKey := func(a, b declRef) int { return strings.Compare(a.key, b.key) }
	slices.SortFunc(funcs, byKey)
	slices.SortFunc(methods, byKey)
	return funcs, methods
}

// interfaceMethod is a method called through an interface: its name and
// the interface.
type interfaceMethod struct {
	name  string
	iface *types.Interface
}

// receiver is the type a method is declared on, without the pointer; nil
// for a function.
func receiver(fn *types.Func) types.Type {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	if ptr, ok := recv.Type().(*types.Pointer); ok {
		return ptr.Elem()
	}
	return recv.Type()
}

// checkedPackage is one type-checked package: its directory relative to
// the module root, its files and what go/types found in them.
type checkedPackage struct {
	dir   string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// typeCheck parses the non-test Go files of every package of the module at
// root, outside testdata and dot-directories, and type-checks each package
// once, importing the standard library through its export data. It also
// returns the interfaces libraryInterfaces declares.
func typeCheck(t *testing.T, root string) (pkgs []*checkedPackage, library []*types.Interface) {
	t.Helper()
	module := modulePath(t, root)
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → files
	dirs := map[string]string{}       // import path → directory
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		importPath := path.Join(module, dir)
		files[importPath] = append(files[importPath], f)
		dirs[importPath] = dir
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	im := &moduleImporter{
		fset: fset, files: files, dirs: dirs,
		std:     importer.Default(),
		checked: map[string]*checkedPackage{},
	}
	var paths []string
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		cp, err := im.check(p)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, cp)
	}
	f, err := parser.ParseFile(fset, "lib.go", libraryInterfaces, 0)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := (&types.Config{Importer: im.std}).Check("lib", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range lib.Scope().Names() {
		library = append(library, lib.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	return pkgs, library
}

// moduleImporter type-checks the module's own packages from source, each
// once, as they are first imported, and hands every other import to std.
type moduleImporter struct {
	fset    *token.FileSet
	files   map[string][]*ast.File
	dirs    map[string]string
	std     types.Importer
	checked map[string]*checkedPackage
}

func (im *moduleImporter) Import(importPath string) (*types.Package, error) {
	if _, ok := im.files[importPath]; !ok {
		return im.std.Import(importPath)
	}
	cp, err := im.check(importPath)
	if err != nil {
		return nil, err
	}
	return cp.types, nil
}

func (im *moduleImporter) check(importPath string) (*checkedPackage, error) {
	if cp, ok := im.checked[importPath]; ok {
		return cp, nil
	}
	cp := &checkedPackage{
		dir:   im.dirs[importPath],
		files: im.files[importPath],
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(importPath, im.fset, cp.files, cp.info)
	if err != nil {
		return nil, err
	}
	cp.types = pkg
	im.checked[importPath] = cp
	return cp, nil
}

// modulePath reads the module path from root's go.mod.
func modulePath(t *testing.T, root string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatal("go.mod names no module")
	return ""
}
