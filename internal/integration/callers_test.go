package integration

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportedWithoutCaller lists the exported functions under internal/ that
// no program calls, each with the reason it stays.
var exportedWithoutCaller = map[string]string{
	"paths.Disjoint":               "reference oracle: tests check edge-disjoint path sets against it",
	"lp.PointCertificate":          "reference oracle: tests check RET certificates against it",
	"job.WriteJSON":                "writer half of the job format the command reads",
	"sim.WriteLinkTrace":           "writer half of the failure-trace format -fail-trace reads",
	"schedule.WeightUniform":       "one of the paper's stage-2 weight alternatives, chosen through Config.Weight",
	"schedule.WeightByInverseSize": "one of the paper's stage-2 weight alternatives, chosen through Config.Weight",
	"schedule.WeightByImportance":  "one of the paper's stage-2 weight alternatives, chosen through Config.Weight",
	"timeslice.FromBoundaries":     "the paper's non-uniform LEN(j) grids",
	"lp.ReadLP":                    "reader half of the LP text format, kept until that format goes",
}

// methodsWithoutCaller lists the exported methods under internal/ that no
// program calls, each with the reason it stays.
var methodsWithoutCaller = map[string]string{
	"lp.Model.WriteLP":                  "writer half of the LP text format, kept until that format goes",
	"schedule.Assignment.VerifyWindows": "reference oracle: tests check the paper's window constraint (4) on every schedule with it",
}

// interfaceMethods are the method names standard-library interfaces call
// (fmt.Stringer, error, sort.Interface, heap.Interface, http.Handler,
// json.Marshaler, ...): a type implements them for the library, not for a
// caller in the module.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// TestEveryExportedFunctionHasACaller: an exported top-level function or
// method under internal/ cannot be reached from outside the module, so one
// that only tests call is code no program runs. The command, example and
// benchmark programs count as callers; a method counts as called when any
// of them selects its name. One without a caller must be deleted or
// allowlisted above with its reason.
func TestEveryExportedFunctionHasACaller(t *testing.T) {
	root := filepath.Join("..", "..")
	module := modulePath(t, root)
	fset := token.NewFileSet()
	var decls, methods []funcRef
	pkgNames := map[string]string{} // dir → package name
	called := map[funcRef]bool{}
	selected := map[string]bool{} // every .Name a program selects
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
		pkgNames[dir] = f.Name.Name
		// Imports of this module, by the name the file uses for them.
		imports := map[string]string{}
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			if !strings.HasPrefix(ip, module+"/") {
				continue
			}
			name := path.Base(ip)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = strings.TrimPrefix(ip, module+"/")
		}
		c := refCollector{dir: dir, imports: imports, called: called, selected: selected}
		for _, decl := range f.Decls {
			var node ast.Node = decl
			c.self, c.selfMethod = "", ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				// A recursive call is not a caller: self and selfMethod
				// name the declaration being walked.
				exported := fd.Name.IsExported() && strings.HasPrefix(dir, "internal/")
				if fd.Recv == nil {
					c.self = fd.Name.Name
					if exported {
						decls = append(decls, funcRef{dir, fd.Name.Name})
					}
				} else {
					c.selfMethod = fd.Name.Name
					if exported {
						methods = append(methods, funcRef{dir, recvName(fd.Recv) + "." + fd.Name.Name})
					}
				}
				if fd.Body == nil {
					continue
				}
				node = fd.Body
			}
			ast.Inspect(node, c.visit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	var orphans []string
	for _, d := range decls {
		key := pkgNames[d.dir] + "." + d.name
		seen[key] = true
		if !called[d] && exportedWithoutCaller[key] == "" {
			orphans = append(orphans, d.dir+": "+d.name)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s has no caller outside tests: delete it, or allowlist it with its reason", o)
	}
	for key := range exportedWithoutCaller {
		if !seen[key] {
			t.Errorf("allowlisted %s is not an exported function under internal/ any more", key)
		}
	}

	seen = map[string]bool{}
	orphans = nil
	for _, m := range methods {
		key := pkgNames[m.dir] + "." + m.name
		seen[key] = true
		name := m.name[strings.LastIndex(m.name, ".")+1:]
		if !selected[name] && !interfaceMethods[name] && methodsWithoutCaller[key] == "" {
			orphans = append(orphans, m.dir+": "+m.name)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("method %s has no caller outside tests: delete it, or allowlist it with its reason", o)
	}
	for key := range methodsWithoutCaller {
		if !seen[key] {
			t.Errorf("allowlisted %s is not an exported method under internal/ any more", key)
		}
	}
}

// recvName is the type name of a method's receiver, without pointer or type
// parameters.
func recvName(recv *ast.FieldList) string {
	x := recv.List[0].Type
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// funcRef names a top-level function by its package's directory, relative
// to the module root and slash-separated, and its name.
type funcRef struct{ dir, name string }

// refCollector records, for one file, the module-level functions its code
// can call and the names it selects, which is what can call a method.
type refCollector struct {
	dir        string            // the file's package directory
	self       string            // the function being walked, if top-level
	selfMethod string            // the method being walked, if a method
	imports    map[string]string // import name → package directory
	called     map[funcRef]bool
	selected   map[string]bool
}

// visit records pkg.Name through an import of the module, a bare Name of
// the file's own package other than self, and every other .Name but
// selfMethod.
func (c *refCollector) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		if n.Sel.Name != c.selfMethod {
			c.selected[n.Sel.Name] = true
		}
		if x, ok := n.X.(*ast.Ident); ok {
			if dir, ok := c.imports[x.Name]; ok {
				c.called[funcRef{dir, n.Sel.Name}] = true
				return false
			}
		}
		// A field or method name is no function of the package.
		ast.Inspect(n.X, c.visit)
		return false
	case *ast.KeyValueExpr:
		// A struct literal's field key is no reference; the value may be.
		if _, ok := n.Key.(*ast.Ident); ok {
			ast.Inspect(n.Value, c.visit)
			return false
		}
	case *ast.Ident:
		if n.Name != c.self {
			c.called[funcRef{c.dir, n.Name}] = true
		}
	}
	return true
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
