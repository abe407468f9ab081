// Command tknnlint is this repository's static analyzer: it enforces the
// invariants the compiler cannot see and `go vet` does not know about.
//
//	tknnlint [-json] [-lockgraph] [-rules] [packages]
//
// Packages follow the usual ./... patterns; the default is the whole
// module. Exit status is 0 when clean, 1 when findings were reported, and
// 2 on usage or load errors, so it slots directly into CI next to vet.
//
// Rules (see `tknnlint -rules` and DESIGN.md "Static analysis & CI
// gates"):
//
//	lock-discipline   a non-deferred Lock and its Unlock sit in one
//	                  block; branchy pairs use defer
//	unchecked-errors  cmd/, internal/server, internal/wal, internal/exec,
//	                  internal/persist, and internal/client check
//	                  io/os/net/encoding errors
//	invariant-gate    internal/invariant calls sit inside an
//	                  `if invariant.Enabled` guard
//	hotpath-alloc     //tknn:hotpath functions and their transitive
//	                  callees perform no per-query heap allocations
//	guarded-by        fields annotated //tknn:guardedBy(mu) are accessed
//	                  only with the named mutex statically held, verified
//	                  interprocedurally; RLock-held writes are flagged
//	lock-order        acquire-while-holding edges form a module-wide
//	                  lock-ordering graph; cycles are potential deadlocks
//
// Any finding can be suppressed, one site at a time, with a trailing or
// preceding comment:
//
//	//lint:ignore <rule>[,<rule>...] reason for the exception
//
// Text output and the exit status consider only active findings. -json
// emits every finding, suppressed ones included, each object carrying
// file/line/col, the rule name, the message, and "suppressed" — so a CI
// artifact of the JSON output records the accepted exceptions too. The
// exit status is 1 exactly when active findings exist, in both output
// modes.
//
// -lockgraph skips linting and prints the module's lock-ordering graph
// as DOT (see `make lockgraph` and DESIGN.md).
//
// The analyzer is built on go/parser and go/types alone — the module has
// no dependencies, and the linter keeps it that way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tknnlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	lockGraph := fs.Bool("lockgraph", false, "print the lock-ordering graph as DOT and exit")
	listRules := fs.Bool("rules", false, "print the rule catalog and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tknnlint [-json] [-lockgraph] [-rules] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listRules {
		for _, r := range ruleCatalog {
			fmt.Fprintf(stdout, "%-16s %s\n", r.Name, r.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "tknnlint:", err)
		return 2
	}
	mod, err := LoadModule(cwd)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *lockGraph {
		fmt.Fprint(stdout, LockGraphDOT(mod))
		return 0
	}
	match, err := matcher(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "tknnlint:", err)
		return 2
	}
	// A typo'd pattern silently passing would defeat the CI gate: treat
	// "matched nothing" like go vet does, as an error.
	matched := 0
	for _, pkg := range mod.Pkgs {
		if match(pkg) {
			matched++
		}
	}
	if matched == 0 {
		fmt.Fprintf(stderr, "tknnlint: %v matched no packages\n", fs.Args())
		return 2
	}
	diags := Lint(mod, match)
	act := active(diags)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "tknnlint:", err)
			return 2
		}
	} else {
		for _, d := range act {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(act) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "tknnlint: %d finding(s)\n", len(act))
		}
		return 1
	}
	return 0
}
