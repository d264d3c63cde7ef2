package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture parses and type-checks testdata/<name> as one package. The
// fixture's import path is synthetic ("fix/<name>"), which is also what lets
// fixtures exercise analyzers whose AppliesTo filter would exclude them —
// tests call Run directly, bypassing the driver's filter.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("fixture %s holds no Go files", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check("fix/"+name, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", name, err)
	}
	return &Package{Path: "fix/" + name, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}
}

// expectation is one `// want "regex"` comment in a fixture: a finding is
// expected on that file:line with a message matching the regex.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantQuoted = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// parseWants collects the `// want "re" ["re" ...]` expectations of a
// loaded fixture.
func parseWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				quoted := wantQuoted.FindAllStringSubmatch(rest, -1)
				if len(quoted) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, q := range quoted {
					re, err := regexp.Compile(q[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regex: %v", pos.Filename, pos.Line, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// checkFindings is the shared expectation checker: every finding must match
// an unmatched want on its line, and every want must end up matched. It
// fails the fixture in both directions — a missing finding means the
// analyzer lost a case, an unexpected one means a false positive.
func checkFindings(t *testing.T, wants []*expectation, findings []Finding) {
	t.Helper()
	for _, f := range findings {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// runFixture runs one analyzer over its golden fixture. The suppression
// grammar check runs alongside, so a fixture with a malformed //det:ok
// annotation fails loudly instead of silently suppressing a case.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	pkg := loadFixture(t, name)
	findings := append(Run(a, pkg), CheckSuppressions(pkg.Fset, pkg.Files, All())...)
	checkFindings(t, parseWants(t, pkg), findings)
}

func TestMapOrderFixture(t *testing.T)    { runFixture(t, MapOrder, "maporder") }
func TestPoolOnlyFixture(t *testing.T)    { runFixture(t, PoolOnly, "poolonly") }
func TestSinkWriteFixture(t *testing.T)   { runFixture(t, SinkWrite, "sinkwrite") }
func TestFloatEqFixture(t *testing.T)     { runFixture(t, FloatEq, "floateq") }
func TestPanicFreeFixture(t *testing.T)   { runFixture(t, PanicFree, "panicfree") }
func TestCtxFlowFixture(t *testing.T)     { runFixture(t, CtxFlow, "ctxflow") }
func TestErrContractFixture(t *testing.T) { runFixture(t, ErrContract, "errcontract") }

// The laundering fixture: the alias-aware check catches writes through
// locals that alias shared state.
func TestSinkWriteV2Fixture(t *testing.T) { runFixture(t, SinkWrite, "sinkwritev2") }

// TestDetOkStale runs the full driver over the stale-suppression fixture:
// the used annotation and the excused one produce nothing, the dead one is
// the package's single finding.
func TestDetOkStale(t *testing.T) {
	pkg := loadFixture(t, "detokstale")
	findings := RunAll(All(), []*Package{pkg})
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly 1:\n%v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != DetOkStale.Name || !strings.Contains(f.Message, `suppression of "poolonly" suppresses nothing`) {
		t.Errorf("finding = %s, want a stale poolonly suppression", f)
	}
	if want := findFixtureLine(t, pkg, "//det:ok poolonly the go statement here was removed"); f.Pos.Line != want {
		t.Errorf("finding on line %d, want line %d (the dead annotation)", f.Pos.Line, want)
	}
}

// TestSuppressionGrammar pins the mandatory-reason rule: an annotation that
// names no analyzer, names an unknown one, or carries no reason is itself a
// finding; a well-formed one is not.
func TestSuppressionGrammar(t *testing.T) {
	pkg := loadFixture(t, "detok")
	findings := CheckSuppressions(pkg.Fset, pkg.Files, All())
	wantMsgs := []string{
		"names no analyzer",
		`unknown analyzer "nosuchcheck"`,
		"carries no reason",
	}
	if len(findings) != len(wantMsgs) {
		t.Fatalf("got %d findings, want %d:\n%v", len(findings), len(wantMsgs), findings)
	}
	for i, want := range wantMsgs {
		if f := findings[i]; f.Analyzer != SuppressionsAnalyzer || !strings.Contains(f.Message, want) {
			t.Errorf("finding %d = %s, want analyzer %q and message containing %q", i, f, SuppressionsAnalyzer, want)
		}
	}
}

// TestReasonlessSuppressionStillSuppresses documents the division of labor:
// covers() silences the target diagnostic even when the reason is missing —
// the grammar check is what keeps the build red until a reason is written,
// so the two findings can never double-report one line.
func TestReasonlessSuppressionStillSuppresses(t *testing.T) {
	pkg := loadFixture(t, "detok")
	for _, f := range Run(MapOrder, pkg) {
		if f.Pos.Line == findFixtureLine(t, pkg, "//det:ok maporder\n") {
			t.Errorf("maporder reported through a (reasonless) suppression: %s", f)
		}
	}
	if n := len(CheckSuppressions(pkg.Fset, pkg.Files, All())); n == 0 {
		t.Error("grammar check found nothing: a reasonless suppression would silence a diagnostic for free")
	}
}

func findFixtureLine(t *testing.T, pkg *Package, needle string) int {
	t.Helper()
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line+"\n", needle) {
				return i + 1
			}
		}
	}
	t.Fatalf("fixture line %q not found", needle)
	return 0
}

// TestAppliesToFilter pins the driver-side scoping: maporder and floateq
// guard the deterministic-output packages, sinkwrite the engine package,
// poolonly everything.
func TestAppliesToFilter(t *testing.T) {
	cases := []struct {
		a    *Analyzer
		path string
		want bool
	}{
		{MapOrder, "repro/internal/clean", true},
		{MapOrder, "repro/internal/cfd", true},
		{MapOrder, "repro/internal/md", true},
		{MapOrder, "repro/internal/rule", true},
		{MapOrder, "repro/internal/gen", false},
		{MapOrder, "repro/cmd/uniclean", false},
		{FloatEq, "repro/internal/clean", true},
		{FloatEq, "repro/internal/suffixtree", false},
		{SinkWrite, "repro/internal/clean", true},
		{SinkWrite, "repro/internal/md", false},
		{PanicFree, "repro/internal/relation", true},
		{PanicFree, "repro/internal/rule", true},
		{PanicFree, "repro/internal/clean", false},
		{PanicFree, "repro/cmd/uniclean", false},
		{CtxFlow, "repro/internal/clean", true},
		{CtxFlow, "repro/internal/rule", false},
		{ErrContract, "repro/internal/clean", true},
		{ErrContract, "repro/internal/relation", false},
	}
	for _, c := range cases {
		if got := c.a.AppliesTo(c.path); got != c.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.a.Name, c.path, got, c.want)
		}
	}
	if PoolOnly.AppliesTo != nil {
		t.Error("poolonly must apply to every package")
	}
	if DetOkStale.AppliesTo != nil {
		t.Error("detokstale must apply to every package: stale suppressions rot anywhere")
	}
}

// TestFindingString pins the file:line:col format the driver prints and CI
// greps.
func TestFindingString(t *testing.T) {
	f := Finding{
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Analyzer: "maporder",
		Message:  "boom",
	}
	if got, want := f.String(), "x.go:3:7: maporder: boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestRunAllSortsFindings checks the driver-level ordering contract:
// findings arrive sorted by file, line, column, analyzer regardless of
// package or analyzer iteration order. A test analyzer reports every
// function declaration in reverse source order to force the sort to work.
func TestRunAllSortsFindings(t *testing.T) {
	backwards := &Analyzer{
		Name: "backwards",
		Doc:  "reports every func decl, last first",
		Run: func(p *Pass) {
			for i := len(p.Files) - 1; i >= 0; i-- {
				var decls []*ast.FuncDecl
				for _, d := range p.Files[i].Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						decls = append(decls, fd)
					}
				}
				for j := len(decls) - 1; j >= 0; j-- {
					p.Reportf(decls[j].Pos(), "func %s", decls[j].Name.Name)
				}
			}
		},
	}
	pkg := loadFixture(t, "maporder")
	findings := RunAll([]*Analyzer{backwards}, []*Package{pkg})
	if len(findings) < 2 {
		t.Fatalf("want at least 2 findings, got %d", len(findings))
	}
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Errorf("findings out of order: %s before %s", a, b)
		}
	}
}

// TestRunAllRespectsAppliesTo: a package outside an analyzer's scope yields
// none of its findings even when violations are present.
func TestRunAllRespectsAppliesTo(t *testing.T) {
	pkg := loadFixture(t, "maporder") // path "fix/maporder": outside maporder's scope
	for _, f := range RunAll(All(), []*Package{pkg}) {
		if f.Analyzer == MapOrder.Name {
			t.Errorf("maporder ran outside its package scope: %s", f)
		}
	}
}
