package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata expected.txt files")

// caseDiags lints one testdata module with the default ./... pattern.
func caseDiags(t *testing.T, dir string) []Diagnostic {
	t.Helper()
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	match, err := matcher(nil)
	if err != nil {
		t.Fatal(err)
	}
	return Lint(mod, match)
}

// render formats the active findings the way the CLI's text mode does;
// suppressed findings are invisible here, exactly as they are to a user
// running tknnlint without -json.
func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range active(diags) {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGolden compares each corpus module's diagnostics against its
// expected.txt. Run `go test ./cmd/tknnlint -run Golden -update` after a
// deliberate rule or message change.
func TestGolden(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("testdata", "src", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no testdata cases found")
	}
	for _, dir := range dirs {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			got := render(caseDiags(t, dir))
			expFile := filepath.Join(dir, "expected.txt")
			if *update {
				if err := os.WriteFile(expFile, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(expFile)
			if err != nil {
				t.Fatalf("reading golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestCaseShape pins the corpus semantics independent of exact messages:
// which rule fires in each module, that positive modules yield findings
// (the non-zero exit path), and that clean stays clean.
func TestCaseShape(t *testing.T) {
	cases := []struct {
		dir      string
		rule     string // every finding must carry this rule
		minHits  int
		wantNone bool
	}{
		{dir: "lockdiscipline", rule: ruleLock, minHits: 2},
		{dir: "guardedby", rule: ruleGuarded, minHits: 11},
		{dir: "lockorder", rule: ruleLockOrder, minHits: 2},
		{dir: "uncheckederr", rule: ruleErr, minHits: 4},
		{dir: "invariantgate", rule: ruleInvariant, minHits: 2},
		{dir: "hotpathalloc", rule: ruleHotAlloc, minHits: 10},
		{dir: "clean", wantNone: true},
		// A hot root in a kernel package calling a body-less (assembly-
		// backed) declaration: nothing to walk, nothing to report.
		{dir: "asmkernel", wantNone: true},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			diags := active(caseDiags(t, filepath.Join("testdata", "src", tc.dir)))
			if tc.wantNone {
				if len(diags) != 0 {
					t.Fatalf("expected no findings, got:\n%s", render(diags))
				}
				return
			}
			if len(diags) < tc.minHits {
				t.Errorf("expected at least %d findings, got %d:\n%s", tc.minHits, len(diags), render(diags))
			}
			for _, d := range diags {
				if d.Rule != tc.rule {
					t.Errorf("unexpected rule %s in %s case: %s", d.Rule, tc.rule, d)
				}
			}
		})
	}
}

// TestSuppression verifies that //lint:ignore removes exactly the
// annotated site: the suppressed functions appear in no diagnostic.
func TestSuppression(t *testing.T) {
	checks := []struct {
		dir     string
		file    string
		banned  string // substring that must not appear in any message position
		present string // substring that must appear (proves the rule fires elsewhere in the same file)
	}{
		{dir: "lockdiscipline", file: "internal/reg/reg.go", banned: "Reset", present: "Drain"},
		{dir: "guardedby", file: "internal/reg/reg.go", banned: "reg.go:149", present: "reg.go:49"},
		{dir: "lockorder", file: "internal/ord/ord.go", banned: "ord.U", present: "ord.S"},
		{dir: "uncheckederr", file: "cmd/tool/main.go", banned: "also-ignored", present: "Remove"},
		{dir: "invariantgate", file: "internal/tree/tree.go", banned: "Checkf", present: "Check"},
		{dir: "hotpathalloc", file: "internal/index/index.go", banned: "index.go:91", present: "index.go:84"},
	}
	for _, c := range checks {
		t.Run(c.dir, func(t *testing.T) {
			out := render(caseDiags(t, filepath.Join("testdata", "src", c.dir)))
			if c.banned != "" && strings.Contains(out, c.banned) {
				t.Errorf("suppressed site leaked (%q):\n%s", c.banned, out)
			}
			if c.present != "" && !strings.Contains(out, c.present) {
				t.Errorf("expected %q in output (rule should still fire at unsuppressed sites):\n%s", c.present, out)
			}
		})
	}
}

// TestRepoIsClean is the gate the CI lint step enforces: the repository
// itself must have no active findings. Suppressed findings are allowed —
// each is a reviewed //lint:ignore with a reason — and -json reports them,
// so the test asserts every reported finding is marked suppressed.
// Loading the whole module costs a few seconds of std-lib type checking,
// so it is skipped in -short mode.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("tknnlint on the repository exited %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	var diags []Diagnostic
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, stdout.String())
	}
	for _, d := range diags {
		if !d.Suppressed {
			t.Errorf("active finding in the repository: %s", d)
		}
	}
}

// TestRunExitCodes drives the CLI entry point against a positive corpus
// module to pin the exit-code contract: 1 on findings, 2 on a bad flag.
func TestRunExitCodes(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	if err := os.Chdir(filepath.Join("testdata", "src", "uncheckederr")); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 1 {
		t.Errorf("positive corpus: want exit 1, got %d (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "["+ruleErr+"]") {
		t.Errorf("text output missing [%s] tag:\n%s", ruleErr, stdout.String())
	}
	if code := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: want exit 2, got %d", code)
	}
	if code := run([]string{"./no/such/dir/..."}, &stdout, &stderr); code != 2 {
		t.Errorf("pattern matching no packages: want exit 2, got %d", code)
	}
}

// TestJSONSuppressionStatus pins the -json contract on a corpus module
// that has both kinds of finding: every diagnostic appears, suppressed
// ones flagged as such, and the exit code reflects only the active set.
func TestJSONSuppressionStatus(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	if err := os.Chdir(filepath.Join("testdata", "src", "guardedby")); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("module with active findings: want exit 1, got %d (stderr: %s)", code, stderr.String())
	}
	var diags []Diagnostic
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, stdout.String())
	}
	activeN, suppressedN := 0, 0
	for _, d := range diags {
		if d.Rule != ruleGuarded {
			t.Errorf("unexpected rule %s: %s", d.Rule, d)
		}
		if d.Suppressed {
			suppressedN++
		} else {
			activeN++
		}
	}
	if activeN == 0 || suppressedN == 0 {
		t.Errorf("want both active and suppressed findings in JSON, got %d active / %d suppressed:\n%s",
			activeN, suppressedN, stdout.String())
	}
}

// TestGuardDirectiveArgs pins the directive grammar: the accepted forms
// and each malformed shape's rejection. Resolution errors (unknown mutex,
// non-mutex target, directive on a method or var) are covered by the
// guardedby golden corpus.
func TestGuardDirectiveArgs(t *testing.T) {
	cases := []struct {
		text    string
		names   []string
		wantErr bool
	}{
		{text: "//tknn:guardedBy(mu)", names: []string{"mu"}},
		{text: "//tknn:guardedBy(mu, statsMu)", names: []string{"mu", "statsMu"}},
		{text: "//tknn:guardedBy(mu,statsMu,cpMu)", names: []string{"mu", "statsMu", "cpMu"}},
		{text: "//tknn:guardedBy", wantErr: true},
		{text: "//tknn:guardedBy()", wantErr: true},
		{text: "//tknn:guardedBy(mu", wantErr: true},
		{text: "//tknn:guardedBy(,)", wantErr: true},
		{text: "//tknn:guardedBy mu", wantErr: true},
	}
	for _, c := range cases {
		names, errMsg := parseGuardArgs(c.text)
		if c.wantErr {
			if errMsg == "" {
				t.Errorf("parseGuardArgs(%q): want error, got names %v", c.text, names)
			}
			continue
		}
		if errMsg != "" {
			t.Errorf("parseGuardArgs(%q): unexpected error %q", c.text, errMsg)
			continue
		}
		if len(names) != len(c.names) {
			t.Errorf("parseGuardArgs(%q) = %v, want %v", c.text, names, c.names)
			continue
		}
		for i := range names {
			if names[i] != c.names[i] {
				t.Errorf("parseGuardArgs(%q)[%d] = %q, want %q", c.text, i, names[i], c.names[i])
			}
		}
	}
}

// TestLockGraphDOT drives -lockgraph against the lockorder corpus and
// pins the DOT shape: deterministic digraph with the expected edges.
func TestLockGraphDOT(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	if err := os.Chdir(filepath.Join("testdata", "src", "lockorder")); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-lockgraph", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("-lockgraph: want exit 0, got %d (stderr: %s)", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"digraph lockorder {",
		`"ord.S.a" -> "ord.S.b"`,
		`"ord.S.b" -> "ord.S.a"`,
		`"ord.T.c" -> "ord.T.d"`, // interprocedural: held across the lockD call
		`"ord.V.g" -> "ord.V.h"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `"ord.V.h" -> "ord.V.g"`) {
		t.Errorf("DOT output has a reverse V edge that no code creates:\n%s", out)
	}
	// Determinism: a second run renders byte-identical output.
	var again bytes.Buffer
	if code := run([]string{"-lockgraph", "./..."}, &again, &stderr); code != 0 {
		t.Fatalf("second -lockgraph run: exit %d", code)
	}
	if again.String() != out {
		t.Error("-lockgraph output is not deterministic across runs")
	}
}

// TestMatcher pins the package-pattern subset the Makefile and CI rely on.
func TestMatcher(t *testing.T) {
	pkg := func(rel string) *Package { return &Package{Rel: rel} }
	cases := []struct {
		patterns []string
		rel      string
		want     bool
	}{
		{nil, "internal/vec", true},
		{[]string{"./..."}, "", true},
		{[]string{"./internal/..."}, "internal/core", true},
		{[]string{"./internal/..."}, "cmd/tknnd", false},
		{[]string{"./internal/vec"}, "internal/vec", true},
		{[]string{"internal/vec"}, "internal/vecstore", false},
	}
	for _, c := range cases {
		m, err := matcher(c.patterns)
		if err != nil {
			t.Fatal(err)
		}
		if got := m(pkg(c.rel)); got != c.want {
			t.Errorf("matcher(%v)(%q) = %v, want %v", c.patterns, c.rel, got, c.want)
		}
	}
}
