package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported names under internal/ that only tests
// and benchmarks use and that stay anyway, each with the reason it is kept.
// A name is "pkg.Name" for a package-level declaration (pkg is the path
// below internal/) and "pkg.Type.Method" for a method.
var testOnlyAllowed = map[string]string{
	"core.DenseItem.SetDistribution": "installs the keep-own remap BenchmarkAblationKeepOwnData measures",
	"core.WaveValueTag":              "lets harness fault tests aim a drop at one wave segment without copying core's tag layout",
	"harness.Setup.RunCell":          "one-cell entry point of the root integration tests and per-figure benchmarks",
	"model.FromCluster":              "builds the closed-form model model_test checks the simulator against",
	"model.System.IterationTime":     "closed-form iteration cost model_test checks the simulator against",
	"mpi.BlockingWait":               "the wait mode BenchmarkAblationWaitMode compares with polling",
	"mpi.Ctx.Alltoall":               "the fixed-size size exchange of the paper's Algorithm 2",
	"netmodel.Fabric.Stats":          "fabric counters the rate-recompute tests assert on",
	"obs.Snapshot.Counter":           "counter read-back for the obs, harness and workload telemetry tests",
	"partition.Imbalance":            "the keep-own remap's imbalance BenchmarkAblationKeepOwnData prints",
	"partition.KeepOwnExpandDist":    "expansion keep-own remap; irregular input for the overlap tests",
	"partition.KeepOwnShrinkDist":    "shrink keep-own remap BenchmarkAblationKeepOwnData measures",
	"partition.NewPlan":              "dense block plan: reference for the overlap iterators and the keep-local ablation",
	"partition.Plan.LocalBytes":      "the elements Merge keeps local, printed by BenchmarkAblationKeepOwnData",
	"partition.Plan.RecvChunks":      "per-target view of the dense reference plan",
	"partition.Plan.SendChunks":      "per-source view of the dense reference plan",
	"partition.Plan.TotalMoved":      "moved elements the keep-own tests compare",
	"partition.PlanBetween":          "dense reference the sparse overlap iterators are tested against",
	"sim.Kernel.KillAt":              "kernel-level kill seam of the lifecycle tests",
	"sim.Kernel.Stats":               "kernel counters the event-order and re-park oracles assert on",
	"sim.Proc.SleepUntil":            "absolute-time sleep the wake-order tests schedule with",
	"sim.Proc.Yield":                 "same-instant reschedule the wake-order tests pin",
	"sparse.CG":                      "sequential reference solver the distributed cg tests compare against",
	"synthapp.StencilConfig":         "halo-exchange application of BenchmarkStencilApplication",
}

// interfaceMethods are kept by rule: they implement an interface that
// code outside the package's own call sites invokes (fmt, errors,
// encoding/json, sort, container/heap, io and the sim kernel's handler).
var interfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true, "MarshalJSON": true,
	"UnmarshalJSON": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "Write": true, "Fire": true,
}

// TestNoExportUsedOnlyByTests fails when an exported name under internal/
// is referenced from no non-test file of the module (cmd/, examples/ and
// perfbench/ count as callers). Package-level names must be used
// package-qualified from another package or unqualified inside their own;
// a method counts as used when any non-test file selects its name.
func TestNoExportUsedOnlyByTests(t *testing.T) {
	type decl struct{ pkg, name, recv string }
	var decls []decl
	qualified := map[string]bool{} // "pkg.Name" selected through an import
	local := map[string]bool{}     // "pkg.Name" used unqualified in pkg
	selected := map[string]bool{}  // every selector name

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := ""
		if rel, ok := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/"); ok {
			pkg = rel
		}
		imports := map[string]string{} // local name -> path below internal/
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			rel, ok := strings.CutPrefix(p, "repro/internal/")
			if !ok {
				continue
			}
			name := rel[strings.LastIndex(rel, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = rel
		}
		declared := map[*ast.Ident]bool{}
		if pkg != "" {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					declared[d.Name] = true
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						decls = append(decls, decl{pkg, d.Name.Name, ""})
					} else if recv := recvType(d.Recv.List[0].Type); ast.IsExported(recv) {
						decls = append(decls, decl{pkg, d.Name.Name, recv})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declared[s.Name] = true
							if s.Name.IsExported() {
								decls = append(decls, decl{pkg, s.Name.Name, ""})
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								declared[n] = true
								if n.IsExported() {
									decls = append(decls, decl{pkg, n.Name, ""})
								}
							}
						}
					}
				}
			}
		}
		skip := map[*ast.Ident]bool{} // field names and selected names
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if rel, ok := imports[x.Name]; ok {
						qualified[rel+"."+n.Sel.Name] = true
						return false
					}
				}
			case *ast.Ident:
				if pkg != "" && !declared[n] && !skip[n] {
					local[pkg+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unused []string
	seen := map[string]bool{}
	for _, d := range decls {
		key := d.pkg + "." + d.name
		if d.recv != "" {
			if interfaceMethods[d.name] || selected[d.name] {
				continue
			}
			key = d.pkg + "." + d.recv + "." + d.name
		} else if qualified[key] || local[key] {
			continue
		}
		seen[key] = true
		if _, ok := testOnlyAllowed[key]; !ok {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, k := range unused {
		t.Errorf("internal/%s is used only by tests: delete it, or allow it in testOnlyAllowed with a reason", k)
	}
	for k, reason := range testOnlyAllowed {
		if !seen[k] {
			t.Errorf("testOnlyAllowed lists %s, which is gone or has a non-test caller now: drop the entry", k)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("testOnlyAllowed entry %s gives no reason", k)
		}
	}
}

// recvType returns the name of a method receiver's base type.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
