package repro

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists what under internal/ only tests and benchmarks use
// and stays anyway, each with the reason it is kept. A key is "pkg" for a
// package that no non-test file imports (its names are then not listed),
// "pkg.Name" for a package-level declaration and "pkg.Type.Method" for a
// method; pkg is the path below internal/.
var testOnlyAllowed = map[string]string{
	"core.WaveValueTag":         "lets harness fault tests aim a drop at one wave segment without copying core's tag layout",
	"harness.Setup.RunCell":     "one-cell entry point of the root integration tests and ablation benchmarks",
	"model":                     "the only closed-form oracle model_test checks the simulator against; rms.PaperCostModel prices shrinks far too low to stand in",
	"mpi.Ctx.Alltoall":          "the fixed-size size exchange of the paper's Algorithm 2",
	"netmodel.Fabric.Stats":     "fabric counters the rate-recompute tests assert on",
	"obs.Snapshot.Counter":      "counter read-back for the obs, harness and workload telemetry tests",
	"partition.NewPlan":         "dense block plan: the reference the overlap iterators are tested against",
	"partition.Plan.RecvChunks": "per-target view of the dense reference plan",
	"partition.Plan.SendChunks": "per-source view of the dense reference plan",
	"partition.Plan.TotalMoved": "moved elements the plan tests check",
	"sim.Kernel.KillAt":         "kernel-level kill seam of the lifecycle tests",
	"sim.Kernel.Stats":          "kernel counters the event-order and re-park oracles assert on",
	"sim.Proc.SleepUntil":       "absolute-time sleep the wake-order tests schedule with",
	"sim.Proc.Yield":            "same-instant reschedule the wake-order tests pin",
	"sparse.CG":                 "sequential reference solver the distributed cg tests compare against",
}

// testSetAllowed lists the exported struct fields under internal/ that no
// non-test file writes and that stay anyway, each with the reason, keyed
// "pkg.Type.Field". A field only tests set is an option with one value in
// use: fold it into a constant instead.
var testSetAllowed = map[string]string{
	"fault.Action.Wave": "plan files name the wave a drop aims at (faultsweep -plan); JSON decoding fills it",
	"fault.Plan.Jitter": "plan files set the delay jitter (faultsweep -plan); JSON decoding fills it",
}

// stdlibCalled are the methods kept by name: the standard library calls
// them through its own interfaces (fmt, errors, encoding/json, sort,
// container/heap, io), and its call sites are not type-checked here.
var stdlibCalled = map[string]bool{
	"Error": true, "Unwrap": true, "String": true, "MarshalJSON": true,
	"UnmarshalJSON": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "Write": true,
}

// TestNoExportUsedOnlyByTests fails when something under internal/ is used
// by no non-test file of the module (cmd/, examples/, the root package and
// perfbench/ count as callers) and testOnlyAllowed does not list it, when
// an exported struct field under internal/ is written by no non-test file
// and testSetAllowed does not list it, and when either list names
// something that is gone or used now.
func TestNoExportUsedOnlyByTests(t *testing.T) {
	unused, unset, err := testOnlyNames(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	checkAllowed(t, unused, testOnlyAllowed, "testOnlyAllowed", "is used only by tests")
	checkAllowed(t, unset, testSetAllowed, "testSetAllowed", "is set only by tests")
}

// checkAllowed reports each key of found that allowed does not list, and
// each entry of allowed that found lacks or that gives no reason.
func checkAllowed(t *testing.T, found []string, allowed map[string]string, list, what string) {
	t.Helper()
	seen := map[string]bool{}
	for _, k := range found {
		seen[k] = true
		if _, ok := allowed[k]; !ok {
			t.Errorf("internal/%s %s: delete it, or allow it in %s with a reason", k, what, list)
		}
	}
	for k, reason := range allowed {
		if !seen[k] {
			t.Errorf("%s lists %s, which is gone or no longer %s: drop the entry", list, k, strings.TrimPrefix(what, "is "))
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s entry %s gives no reason", list, k)
		}
	}
}

// TestTestOnlyNamesFixture runs the guard on testdata/deadcode: a method
// whose name a non-test file selects only on another type (strings.Split),
// a method reached only through an interface it implements, a package that
// only its own test imports, and struct fields written by each form the
// guard counts as a write, next to one only a test sets.
func TestTestOnlyNamesFixture(t *testing.T) {
	unused, unset, err := testOnlyNames(filepath.Join("testdata", "deadcode"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []string
	}{
		{"unused", unused, []string{"orphan", "words.Splitter.Split"}},
		{"unset", unset, []string{"words.Tally.Limit"}},
	} {
		if strings.Join(c.got, " ") != strings.Join(c.want, " ") {
			t.Errorf("testOnlyNames %s = %q, want %q", c.name, c.got, c.want)
		}
	}
}

// testOnlyNames type-checks the non-test files of the module at root, whose
// path is module, once. It returns the sorted keys (see testOnlyAllowed) of
// the packages under internal/ that no other package's non-test file
// imports, and of the exported names and exported methods of exported
// types under internal/ that no non-test file uses; and the sorted keys
// (see testSetAllowed) of the exported fields of exported struct types
// under internal/ that no non-test file writes (see recordWrites). A
// method also counts as used when it implements a used interface method of
// the same name, or when stdlibCalled lists its name. Names in an
// unimported package are not listed apart from the package.
func testOnlyNames(root, module string) (unused, unset []string, err error) {
	l := &loader{
		root:     root,
		module:   module,
		fset:     token.NewFileSet(),
		pkgs:     map[string]*types.Package{},
		uses:     map[types.Object]bool{},
		writes:   map[*types.Var]bool{},
		imported: map[string]bool{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		var noGo *build.NoGoError
		if _, err := l.load(path.Join(module, filepath.ToSlash(rel))); err != nil && !errors.As(err, &noGo) {
			return err
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Interface methods some non-test file calls, by name.
	called := map[string][]*types.Interface{}
	for obj := range l.uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
				called[fn.Name()] = append(called[fn.Name()], iface)
			}
		}
	}
	implements := func(named *types.Named, name string) bool {
		for _, iface := range called[name] {
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}

	prefix := module + "/internal/"
	for p, pkg := range l.pkgs {
		rel, ok := strings.CutPrefix(p, prefix)
		if !ok {
			continue
		}
		if !l.imported[p] {
			unused = append(unused, rel)
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !l.uses[obj] {
				unused = append(unused, rel+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !l.writes[f] {
						unset = append(unset, rel+"."+name+"."+f.Name())
					}
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !l.uses[m] && !stdlibCalled[m.Name()] && !implements(named, m.Name()) {
					unused = append(unused, rel+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(unused)
	sort.Strings(unset)
	return unused, unset, nil
}

// loader type-checks the module's packages from source, each once, and
// records what their non-test files use and import. It is the importer of
// the packages it checks; the standard library comes from std.
type loader struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*types.Package // module packages checked so far
	uses         map[types.Object]bool     // objects a non-test file names
	writes       map[*types.Var]bool       // struct fields a non-test file writes
	imported     map[string]bool           // module packages another package imports
}

func (l *loader) Import(p string) (*types.Package, error) {
	if p != l.module && !strings.HasPrefix(p, l.module+"/") {
		return l.std.Import(p)
	}
	return l.load(p)
}

func (l *loader) load(p string) (*types.Package, error) {
	if pkg, ok := l.pkgs[p]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(p, l.module), "/")))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{Importer: l, Error: func(err error) { typeErrs = append(typeErrs, err) }}
	pkg, _ := conf.Check(p, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %w", p, errors.Join(typeErrs...))
	}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		l.uses[obj] = true
	}
	for _, imp := range pkg.Imports() {
		l.imported[imp.Path()] = true
	}
	for _, f := range files {
		l.recordWrites(f, info)
	}
	l.pkgs[p] = pkg
	return pkg, nil
}

// recordWrites records the struct fields f writes: a composite literal's
// keys (every field of an unkeyed one), and the field an assignment, ++,
// --, op= or & reaches, or a pointer method is called on. x.F.G and
// x.F[i] write into F as well.
func (l *loader) recordWrites(f *ast.File, info *types.Info) {
	target := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
					l.writes[v.Origin()] = true
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			st, ok := info.Types[n].Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					l.writes[info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()] = true
				} else {
					l.writes[st.Field(i).Origin()] = true
				}
			}
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				target(e)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
			}
		case *ast.SelectorExpr:
			// A pointer method called on a field value takes its address.
			if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
				_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				_, ptrX := info.Types[n.X].Type.Underlying().(*types.Pointer)
				if ptrRecv && !ptrX {
					target(n.X)
				}
			}
		}
		return true
	})
}
