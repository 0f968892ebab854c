package olympian

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow lists the declarations no non-test code uses that stay
// anyway, each with its reason.
var surfaceAllow = map[string]string{
	"experiments.Report.Metric": "bench/bench_test.go reads report metrics through it; the gate does not scan test files",
	"obs.Registry.Snapshot":     "oracle: the counter tests in cluster, serving, workload and obs read every series through it",
	"profiler.Store.Len":        "oracle: the profile-sharing tests in profiler and workload count cached entries with it",
	"sim.Env.Stop":              "ends a run at an event boundary, the hook request cancellation is to use; sim tests cover it",
	"telemetry.Sampler.Ticks":   "oracle: the sampling-cadence tests in telemetry, trace and cluster count ticks with it",
}

// TestInternalSurface keeps the code to what non-test code calls. Every
// export under internal/ and cmd/internal/, and every unexported
// package-level declaration anywhere in the module, is used by a non-test
// file of the root module or of bench/, or is listed in surfaceAllow.
func TestInternalSurface(t *testing.T) {
	decls, err := scanDecls(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range surfaceProblems(decls, surfaceAllow) {
		t.Error(p)
	}
}

// TestSurfaceGateFixture runs the gate over testdata/surface: a root module
// with one declaration per case, and a second module in bench/'s place.
func TestSurfaceGateFixture(t *testing.T) {
	decls, err := scanDecls(filepath.Join("testdata", "surface", "root"), filepath.Join("..", "other"))
	if err != nil {
		t.Fatal(err)
	}
	if !decls["a.OnlyOther"] {
		t.Error("an export used only from the second module must count as used")
	}
	if _, ok := decls["a.T.Name"]; ok {
		t.Error("a method that satisfies an interface must be exempt")
	}
	got := surfaceProblems(decls, map[string]string{"a.Used": "stale", "a.Gone": "stale"})
	want := []string{
		"a.Gone: allowlisted but not declared",
		"a.T.Dead: no non-test code uses it; delete it, or allowlist it with a reason",
		"a.Unused: no non-test code uses it; delete it, or allowlist it with a reason",
		"a.Used: allowlisted but used; drop its entry",
		"a.unusedHelper: no non-test code uses it; delete it, or allowlist it with a reason",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// surfaceProblems names each unused declaration missing from allow, and each
// allow entry that is now used or no longer declared.
func surfaceProblems(decls map[string]bool, allow map[string]string) []string {
	var out []string
	for name, used := range decls {
		if _, ok := allow[name]; !ok && !used {
			out = append(out, name+": no non-test code uses it; delete it, or allowlist it with a reason")
		}
	}
	for name := range allow {
		used, ok := decls[name]
		switch {
		case !ok:
			out = append(out, name+": allowlisted but not declared")
		case used:
			out = append(out, name+": allowlisted but used; drop its entry")
		}
	}
	sort.Strings(out)
	return out
}

// listedPkg is the part of `go list -json` output the scan reads.
type listedPkg struct {
	ImportPath, Dir string
	Standard        bool
	GoFiles         []string
	Module          *struct{ Path string }
}

// scanDecls type-checks the non-test files of the module at root and of the
// modules at others (relative to root), and maps each declaration the gate
// covers to whether any of those files uses it. Keys are "pkg.Name" or
// "pkg.Type.Method", pkg being the last element of the import path. The
// gate covers every export of root's internal/ and cmd/internal/ packages
// and every unexported package-level declaration of root's packages. A
// method is left out when its type implements an interface, declared in any
// loaded package, that has the method: a call through the interface does
// not name the method itself.
func scanDecls(root string, others ...string) (map[string]bool, error) {
	// The source importer type-checks the standard library; with cgo off it
	// reads only pure-Go files and needs no C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	imp := &cachingImporter{pkgs: map[string]*types.Package{}, std: importer.ForCompiler(fset, "source", nil)}
	used := map[types.Object]bool{}
	type scoped struct {
		pkg      *types.Package
		internal bool
	}
	var scope []scoped
	for i, dir := range append([]string{root}, others...) {
		if i > 0 {
			dir = filepath.Join(root, dir)
		}
		cmd := exec.Command("go", "list", "-deps", "-json", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.Bytes())
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listedPkg
			if err := dec.Decode(&p); err != nil {
				return nil, err
			}
			if p.Standard || imp.pkgs[p.ImportPath] != nil {
				continue
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
				if err != nil {
					return nil, err
				}
				files = append(files, f)
			}
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
			if err != nil {
				return nil, err
			}
			imp.pkgs[p.ImportPath] = pkg
			for _, obj := range info.Uses {
				used[origin(obj)] = true
			}
			if i == 0 && p.Module != nil {
				rel := strings.TrimPrefix(p.ImportPath, p.Module.Path+"/")
				scope = append(scope, scoped{pkg, strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/internal/")})
			}
		}
	}
	ifaces := loadedInterfaces(imp.pkgs)
	decls := map[string]bool{}
	for _, sc := range scope {
		base := path.Base(sc.pkg.Path())
		for _, name := range sc.pkg.Scope().Names() {
			obj := sc.pkg.Scope().Lookup(name)
			if obj.Exported() && sc.internal || !obj.Exported() && name != "main" && name != "init" {
				decls[base+"."+name] = used[obj]
			}
			tn, ok := obj.(*types.TypeName)
			if !sc.internal || !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !satisfies(named, m.Name(), ifaces) {
					decls[base+"."+name+"."+m.Name()] = used[m]
				}
			}
		}
	}
	return decls, nil
}

// loadedInterfaces returns error plus every non-generic named interface
// declared in pkgs or in the packages they import.
func loadedInterfaces(pkgs map[string]*types.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			it, ok := tn.Type().Underlying().(*types.Interface)
			if n, named := tn.Type().(*types.Named); ok && it.NumMethods() > 0 && (!named || n.TypeParams().Len() == 0) {
				out = append(out, it)
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	return out
}

// satisfies reports whether t or *t implements an interface in ifaces that
// declares a method called name.
func satisfies(t types.Type, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// origin maps a use of an instantiated generic function, method or field
// back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// cachingImporter returns the module packages the scan has already checked,
// and loads everything else (the standard library) from source once.
type cachingImporter struct {
	pkgs map[string]*types.Package
	std  types.Importer
}

func (c *cachingImporter) Import(path string) (*types.Package, error) {
	if p := c.pkgs[path]; p != nil {
		return p, nil
	}
	p, err := c.std.Import(path)
	if err == nil {
		c.pkgs[path] = p
	}
	return p, err
}
