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
	"sync"
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

// fieldAllow lists the unexported struct fields no non-test code reads that
// stay anyway, each with its reason.
var fieldAllow = map[string]string{
	"gpu.Stream.count":            "oracle: the gpu tests check per-stream kernel counts with it",
	"overload.RetryBudget.denied": "oracle: the retry-budget tests count denied retries with it",
}

// knobAllow lists the exported fields of internal *Config, *Options and
// *Plan types that no caller outside their package sets and that stay
// anyway, each with its reason.
var knobAllow = map[string]string{
	"cluster.Config.Admission":          "oracle: the sharded/overload pin sets it",
	"cluster.Config.TestStrandDrainNth": "oracle: the planted drain bug FuzzConservation must catch",
	"cluster.LLMConfig.Faults":          "oracle: the LLM fleet's crash path, driven by FuzzConservation and the llm/* pins",
	"cluster.LLMConfig.MaxSeqs":         "oracle: the llm/kv-pressure pin sets it",
	"cluster.LLMConfig.Obs":             "oracle: the LLM fleet's trace path, driven by FuzzConservation and the llm/* pins",
	"cluster.LLMConfig.Telemetry":       "oracle: the LLM fleet's timeline path, driven by FuzzConservation and the llm/* pins",
	"executor.Config.MaxInflight":       "ROADMAP item 7 sweeps the in-flight depth",
	"experiments.Options.Profiles":      "the root bench_test.go shares one profile store across its benchmarks",
	"faults.Plan.Crashes":               "oracle: the replayable crash schedule of FuzzConservation and the cross-engine differential tests",
	"faults.Plan.Partitions":            "oracle: the replayable partition schedule of FuzzConservation and the cross-engine differential tests",
	"overload.AIMDConfig.Add":           "oracle: FuzzLimiterMatchesReference and the sharded/overload pin set it",
	"overload.AIMDConfig.Beta":          "oracle: FuzzLimiterMatchesReference and the sharded/overload pin set it",
	"overload.AIMDConfig.Cooldown":      "oracle: FuzzLimiterMatchesReference and the sharded/overload pin set it",
	"serving.Config.Jitter":             "ROADMAP item 6 needs a way to turn node jitter off",
	"telemetry.Config.Capacity":         "oracle: the ring-eviction and merge tests set it",
	"telemetry.Config.Interval":         "oracle: the ring-eviction and merge tests set it",
	"workload.Config.RetryBudget":       "oracle: one of the two pins of TestObservedRunCounters",
	"workload.Config.SwitchCost":        "ROADMAP item 7 sweeps the per-switch cost",
	"workload.Config.Telemetry":         "oracle: one of the two pins of TestObservedRunCounters",
}

// procAllow lists every non-test function outside internal/sim that starts
// a proc ((*sim.Env).Go) or takes a *sim.Proc parameter, directly or in a
// function literal or function type inside it, each with the stage of
// ROADMAP item 13 that makes it an event callback.
var procAllow = map[string]string{
	"core.Scheduler.Yield":           "stage 4: core's hooks keep only the callback form",
	"executor.Engine.Run":            "stage 4: the session thread",
	"executor.Engine.compute":        "stage 4: the session thread",
	"executor.Engine.computeSliced":  "stage 4: the session thread",
	"executor.Engine.process":        "stage 4: the session thread",
	"executor.Engine.runTask":        "stage 4: the session thread",
	"executor.Engine.submitKernel":   "stage 4: the session thread",
	"executor.NewThreadPool":         "stage 4: the session thread's pool workers",
	"executor.NopHooks.Yield":        "stage 4: core's hooks keep only the callback form",
	"executor.ThreadPool.spawn":      "stage 4: the session thread's pool workers",
	"executor.ThreadPool.workerLoop": "stage 4: the session thread's pool workers",
	"gpu.Device.Exec":                "stage 5: the proc forms of the primitives go",
	"profiler.MeasureOnlineOverhead": "stage 4: the profiler's runs",
	"profiler.ProfileSolo":           "stage 4: the profiler's runs",
	"profiler.pairFinish":            "stage 4: the profiler's runs",
	"serving.Server.flush":           "stage 2: the per-batch proc, once stage 4 lets Engine.Run return",
	"serving.Server.runBatch":        "stage 2: the per-batch proc, once stage 4 lets Engine.Run return",
	"serving.batchRun.run":           "stage 2: the per-batch proc, once stage 4 lets Engine.Run return",
	"workload.Run":                   "stage 4: the closed-loop clients",
}

// repoScan scans the repository once for all four gates.
var repoScan = sync.OnceValues(func() (surfaceScan, error) { return scanDecls(".", "bench") })

// TestInternalSurface keeps the code to what non-test code calls. Every
// export under internal/ and cmd/internal/, and every unexported
// package-level declaration anywhere in the module, is used by a non-test
// file of the root module or of bench/, or is listed in surfaceAllow.
func TestInternalSurface(t *testing.T) {
	scan, err := repoScan()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range surfaceProblems(scan.decls, surfaceAllow, "no non-test code uses it", "used") {
		t.Error(p)
	}
}

// TestWriteOnlyFields keeps state to what non-test code reads: every
// unexported struct field of the module is read by non-test code, or is
// listed in fieldAllow.
func TestWriteOnlyFields(t *testing.T) {
	scan, err := repoScan()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range surfaceProblems(scan.fields, fieldAllow, "no non-test code reads it", "used") {
		t.Error(p)
	}
}

// TestConfigKnobsSet keeps configs to the knobs a caller sets: every
// exported field of an exported internal type named *Config, *Options or
// *Plan is written by a non-test file of another package of the root
// module or of bench/, or is listed in knobAllow. A knob only its own package's defaults write is a
// constant in disguise.
func TestConfigKnobsSet(t *testing.T) {
	scan, err := repoScan()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range surfaceProblems(scan.knobs, knobAllow, "no caller outside its package sets it", "set") {
		t.Error(p)
	}
}

// TestProcSites keeps sim.Proc from spreading while ROADMAP item 13 retires
// it: every non-test function outside internal/sim that starts a proc or
// takes one is listed in procAllow, and every entry still does.
func TestProcSites(t *testing.T) {
	scan, err := repoScan()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range surfaceProblems(scan.procFree, procAllow, procUse, "no longer a proc site") {
		t.Error(p)
	}
}

// procUse says what makes a function a proc site, for the gate's message.
const procUse = "starts a proc or takes a *sim.Proc"

// TestSurfaceGateFixture runs the gates over testdata/surface: a root module
// with one declaration, field or knob per case, and a second module in
// bench/'s place.
func TestSurfaceGateFixture(t *testing.T) {
	scan, err := scanDecls(filepath.Join("testdata", "surface", "root"), filepath.Join("..", "other"))
	if err != nil {
		t.Fatal(err)
	}
	decls := scan.decls
	if !decls["a.OnlyOther"] {
		t.Error("an export used only from the second module must count as used")
	}
	if _, ok := decls["a.T.Name"]; ok {
		t.Error("a method that satisfies an interface must be exempt")
	}
	got := surfaceProblems(decls, map[string]string{"a.Used": "stale", "a.Gone": "stale"}, "no non-test code uses it", "used")
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
	got = surfaceProblems(scan.fields, nil, "no non-test code reads it", "used")
	want = []string{
		"a.S.log: no non-test code reads it; delete it, or allowlist it with a reason",
		"a.S.written: no non-test code reads it; delete it, or allowlist it with a reason",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("field problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	got = surfaceProblems(scan.knobs, map[string]string{"a.Config.Allowed": "stale"}, "no caller outside its package sets it", "set")
	want = []string{
		"a.Config.Allowed: allowlisted but set; drop its entry",
		"a.Config.Defaulted: no caller outside its package sets it; delete it, or allowlist it with a reason",
		"a.Config.TestOnly: no caller outside its package sets it; delete it, or allowlist it with a reason",
		"a.Options.Unset: no caller outside its package sets it; delete it, or allowlist it with a reason",
		"a.Plan.Unset: no caller outside its package sets it; delete it, or allowlist it with a reason",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("knob problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	got = surfaceProblems(scan.procFree, map[string]string{"a.Spawn": "listed", "a.Used": "stale"}, procUse, "no longer a proc site")
	want = []string{
		"a.T.Step: " + procUse + "; delete it, or allowlist it with a reason",
		"a.Used: allowlisted but no longer a proc site; drop its entry",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("proc-site problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// surfaceProblems names each declaration missing from allow that the gate
// finds unused (unused says how, for the message), and each allow entry
// that is now used (past names the use) or no longer declared.
func surfaceProblems(decls map[string]bool, allow map[string]string, unused, past string) []string {
	var out []string
	for name, used := range decls {
		if _, ok := allow[name]; !ok && !used {
			out = append(out, name+": "+unused+"; delete it, or allowlist it with a reason")
		}
	}
	for name := range allow {
		used, ok := decls[name]
		switch {
		case !ok:
			out = append(out, name+": allowlisted but not declared")
		case used:
			out = append(out, name+": allowlisted but "+past+"; drop its entry")
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

// surfaceScan is what scanDecls finds. decls maps each declaration the
// surface gate covers to whether non-test code uses it; keys are "pkg.Name"
// or "pkg.Type.Method", pkg being the last element of the import path.
// fields maps each unexported, non-embedded struct field of root's packages
// to whether non-test code reads it; keys are "pkg.Type.field". knobs maps
// each exported field of an exported internal/ or cmd/internal/ type named
// *Config, *Options or *Plan (isKnobType) to whether a non-test file of another package writes it; keys are
// "pkg.Type.Field". procFree maps each non-test function and method of
// root's packages other than internal/sim to whether it neither calls
// (*sim.Env).Go nor takes a *sim.Proc parameter (see procSite); keys are
// "pkg.Name" or "pkg.Type.Method".
type surfaceScan struct {
	decls, fields, knobs, procFree map[string]bool
}

// scanDecls type-checks the non-test files of the module at root and of the
// modules at others (relative to root). The surface gate covers every
// export of root's internal/ and cmd/internal/ packages and every
// unexported package-level declaration of root's packages. A method is left
// out when its type implements an interface, declared in any loaded
// package, that has the method: a call through the interface does not name
// the method itself. A field reference is a read unless writtenFields says
// it is a write, and comparing or hashing a struct (comparedTypes) reads
// every field of it. A write counts toward knobs only from a package other
// than the field's own.
func scanDecls(root string, others ...string) (surfaceScan, error) {
	// The source importer type-checks the standard library; with cgo off it
	// reads only pure-Go files and needs no C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	imp := &cachingImporter{pkgs: map[string]*types.Package{}, std: importer.ForCompiler(fset, "source", nil)}
	used := map[types.Object]bool{}
	read := map[types.Object]bool{}
	set := map[types.Object]bool{}
	type scoped struct {
		pkg      *types.Package
		internal bool
		files    []*ast.File
		defs     map[*ast.Ident]types.Object
	}
	var scope []scoped
	procFree := map[string]bool{}
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
			return surfaceScan{}, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.Bytes())
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listedPkg
			if err := dec.Decode(&p); err != nil {
				return surfaceScan{}, err
			}
			if p.Standard || imp.pkgs[p.ImportPath] != nil {
				continue
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
				if err != nil {
					return surfaceScan{}, err
				}
				files = append(files, f)
			}
			info := &types.Info{
				Uses:  map[*ast.Ident]types.Object{},
				Defs:  map[*ast.Ident]types.Object{},
				Types: map[ast.Expr]types.TypeAndValue{},
			}
			pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
			if err != nil {
				return surfaceScan{}, err
			}
			imp.pkgs[p.ImportPath] = pkg
			writes := writtenFields(files, info.Uses)
			for id, obj := range info.Uses {
				used[origin(obj)] = true
				if v, ok := obj.(*types.Var); ok && v.IsField() {
					switch {
					case !writes[id]:
						read[origin(v)] = true
					case v.Pkg() != pkg:
						set[origin(v)] = true
					}
				}
			}
			for _, t := range comparedTypes(files, info.Types) {
				readAllFields(t, read)
			}
			if i == 0 && p.Module != nil {
				rel := strings.TrimPrefix(p.ImportPath, p.Module.Path+"/")
				scope = append(scope, scoped{pkg, strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/internal/"), files, info.Defs})
				if rel != "internal/sim" {
					for _, f := range files {
						for _, d := range f.Decls {
							if fd, ok := d.(*ast.FuncDecl); ok {
								procFree[path.Base(p.ImportPath)+"."+funcKey(fd, info)] = !procSite(fd, info)
							}
						}
					}
				}
			}
		}
	}
	ifaces := loadedInterfaces(imp.pkgs)
	scan := surfaceScan{decls: map[string]bool{}, fields: map[string]bool{}, knobs: map[string]bool{}, procFree: procFree}
	decls := scan.decls
	for _, sc := range scope {
		base := path.Base(sc.pkg.Path())
		for key, obj := range unexportedFields(sc.files, sc.defs) {
			scan.fields[base+"."+key] = read[obj]
		}
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
			if st, ok := named.Underlying().(*types.Struct); ok && tn.Exported() && isKnobType(name) {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						scan.knobs[base+"."+name+"."+f.Name()] = set[f]
					}
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !satisfies(named, m.Name(), ifaces) {
					decls[base+"."+name+"."+m.Name()] = used[m]
				}
			}
		}
	}
	return scan, nil
}

// isKnobType reports whether an exported internal struct named name is an
// input struct whose fields the knob gate covers.
func isKnobType(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Plan")
}

// funcKey names a declared function "Name", or a method "Type.Name".
func funcKey(fd *ast.FuncDecl, info *types.Info) string {
	recv := info.Defs[fd.Name].Type().(*types.Signature).Recv()
	if recv == nil {
		return fd.Name.Name
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name() + "." + fd.Name.Name
}

// procSite reports whether fd calls (*sim.Env).Go, or has a *sim.Proc
// parameter in its signature or in any function literal or function type
// inside it.
func procSite(fd *ast.FuncDecl, info *types.Info) bool {
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncType:
			for _, fld := range n.Params.List {
				if p, ok := info.TypeOf(fld.Type).(*types.Pointer); ok && isSim(p.Elem(), "Proc") {
					found = true
				}
			}
		case *ast.SelectorExpr:
			if fn, ok := info.Uses[n.Sel].(*types.Func); ok && fn.Name() == "Go" {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if p, ok := recv.Type().(*types.Pointer); ok && isSim(p.Elem(), "Env") {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// isSim reports whether t is the type called name in a module's internal/sim
// package.
func isSim(t types.Type, name string) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == name && n.Obj().Pkg() != nil && strings.HasSuffix(n.Obj().Pkg().Path(), "/internal/sim")
}

// writtenFields returns the field selectors and composite-literal keys in
// files that only write their field: an assignment or op-assignment
// target (through any index expressions, so storing into a map field is a
// write), a ++/-- operand, a struct literal key, and the first argument of
// an append whose result is assigned back to the same field. Every other
// field reference, taking the field's address included, reads it.
func writtenFields(files []*ast.File, uses map[*ast.Ident]types.Object) map[*ast.Ident]bool {
	writes := map[*ast.Ident]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel := fieldTarget(lhs)
					if sel == nil {
						continue
					}
					writes[sel.Sel] = true
					if len(n.Rhs) != len(n.Lhs) {
						continue
					}
					call, ok := n.Rhs[i].(*ast.CallExpr)
					if !ok || len(call.Args) == 0 {
						continue
					}
					if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
						continue
					} else if _, builtin := uses[fn].(*types.Builtin); !builtin {
						continue
					}
					if arg := fieldTarget(call.Args[0]); arg != nil && uses[arg.Sel] == uses[sel.Sel] {
						writes[arg.Sel] = true
					}
				}
			case *ast.IncDecStmt:
				if sel := fieldTarget(n.X); sel != nil {
					writes[sel.Sel] = true
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							writes[id] = true
						}
					}
				}
			}
			return true
		})
	}
	return writes
}

// unexportedFields maps "Type.field" to the object of every unexported,
// non-embedded field that a struct type declared in files has, nested
// anonymous structs included.
func unexportedFields(files []*ast.File, defs map[*ast.Ident]types.Object) map[string]types.Object {
	out := map[string]types.Object{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			ast.Inspect(ts.Type, func(n ast.Node) bool {
				if st, ok := n.(*ast.StructType); ok {
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							if !id.IsExported() && id.Name != "_" {
								out[ts.Name.Name+"."+id.Name] = defs[id]
							}
						}
					}
				}
				return true
			})
			return false
		})
	}
	return out
}

// comparedTypes returns the types whose values files compare whole: every
// map key type, and the operand type of every == and !=.
func comparedTypes(files []*ast.File, tvs map[ast.Expr]types.TypeAndValue) []types.Type {
	var out []types.Type
	for e, tv := range tvs {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			out = append(out, m.Key())
		}
		if b, ok := e.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
			out = append(out, tvs[b.X].Type)
		}
	}
	return out
}

// readAllFields marks every field of t, a struct, and of the structs and
// arrays nested in it, as read: comparing or hashing a value reads them all.
func readAllFields(t types.Type, read map[types.Object]bool) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			read[origin(u.Field(i))] = true
			readAllFields(u.Field(i).Type(), read)
		}
	case *types.Array:
		readAllFields(u.Elem(), read)
	}
}

// fieldTarget strips parentheses and index expressions off e and returns the
// selector left, or nil when e does not end in one.
func fieldTarget(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x
		default:
			return nil
		}
	}
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
