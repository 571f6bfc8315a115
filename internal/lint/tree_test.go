package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTreeClean is the gate: the full analyzer suite plus the
// stale-manifest check must report nothing on the real tree. A finding
// here is either a genuine contract violation to fix or a cold spot to
// suppress with //lint:ignore and a reason.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped in -short")
	}
	pkgs, err := testLoader().Load("./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	diags = append(diags, StaleManifest(pkgs)...)
	for _, d := range diags {
		t.Errorf("%s", FormatDiagnostic(pkgs[0].Fset, d))
	}
}

// TestServingStackIsSchemaGeneric is the import boundary: the serving stack
// moves raw tuples of whatever schema a plan registry compiles against, so
// only code outside it (the facade, commands, tests) may know the Kinect
// layout. Test files are exempt — they feed simulated Kinect sessions.
func TestServingStackIsSchemaGeneric(t *testing.T) {
	for _, pkg := range []string{"serve", "wire", "cluster", "store"} {
		forbidImport(t, "internal/"+pkg, "kinect", "convert frames to tuples at the caller")
	}
}

// TestStoreDoesNotImportServe is the first step of the store split: the
// archive keeps bytes and tuples and never reaches into the serving
// runtime — a caller hands it a plan resolver, or feeds a replay into a
// session itself.
func TestStoreDoesNotImportServe(t *testing.T) {
	forbidImport(t, "internal/store", "serve", "take what it needs as a function value")
}

// TestFacadeIsTheWorkflow keeps the root package to the paper's Fig. 2
// workflow (learn, deploy, detect). Serving, the wire protocol, the
// cluster and the store are reached through the binaries, so the facade
// does not re-export them.
func TestFacadeIsTheWorkflow(t *testing.T) {
	for _, pkg := range []string{"serve", "wire", "cluster", "store"} {
		forbidImport(t, ".", pkg, "the facade is the learn-deploy-detect workflow; serve through the binaries")
	}
}

// TestRecordingBackendIsTheArchive pins one wiring of a server's recording
// hooks: outside internal/store no non-test file sets wire.Server's
// TapSessions, MigrateSource or BackfillSource — a recording backend is
// (*store.Archive).Serve, so the tap, the migration source and the
// backfill source cannot drift apart between the binaries and the tests.
func TestRecordingBackendIsTheArchive(t *testing.T) {
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	hooks := map[string]bool{"TapSessions": true, "MigrateSource": true, "BackfillSource": true}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			rel, _ := filepath.Rel(root, path)
			if rel == filepath.Join("internal", "store") || d.Name() == "testdata" ||
				(rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && hooks[sel.Sel.Name] {
					t.Errorf("%s sets .%s; make the server's recording backend with (*store.Archive).Serve",
						fset.Position(lhs.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// forbidImport fails for every non-test file of the package in dir (relative
// to the module root, "." for the root package) that imports
// internal/banned.
func forbidImport(t *testing.T, dir, banned, fix string) {
	t.Helper()
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: %d files, %v", dir, len(files), err)
	}
	path := `"gesturecep/internal/` + banned + `"`
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == path {
				t.Errorf("%s imports internal/%s; %s", file, banned, fix)
			}
		}
	}
}

// TestSeededViolation proves the gate gates: a copy of a fixture file
// with a deliberate violation is planted in a temporary package inside
// the module, and the suite must report it. If this fails, a broken
// loader or analyzer could silently let CI pass on a dirty tree.
func TestSeededViolation(t *testing.T) {
	root, err := ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "lint", "testdata", "src", "obslog")
	src, err := os.ReadFile(filepath.Join(dir, "bad.go"))
	if err != nil {
		t.Fatal(err)
	}
	// Strip the want comments so only the violations themselves remain,
	// and plant the file in a fresh temp dir loaded as a module-internal
	// package path.
	var kept []string
	for _, line := range strings.Split(string(src), "\n") {
		if i := strings.Index(line, "// want"); i >= 0 {
			line = strings.TrimRight(line[:i], " \t")
		}
		kept = append(kept, line)
	}
	seeded := t.TempDir()
	if err := os.WriteFile(filepath.Join(seeded, "seeded.go"), []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := testLoader().LoadDir(seeded, "gesturecep/internal/seededviolation")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Package{pkg}, All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) == 0 {
		t.Fatal("seeded violations produced zero diagnostics; the gate is not gating")
	}
	for _, d := range diags {
		if d.Analyzer == "obslog" {
			return
		}
	}
	t.Fatalf("no obslog diagnostic among %d findings", len(diags))
}
