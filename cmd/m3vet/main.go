// Command m3vet runs the repository's determinism and isolation
// analyzers (internal/analysis) over every package of the module and
// prints one "file:line:col: rule: message" diagnostic per finding.
// It exits non-zero if anything is flagged, so CI can gate on it:
//
//	go run ./cmd/m3vet ./...
//
// Flags:
//
//	-fast  skip the interprocedural passes (timetaint, capflow):
//	       syntactic rules only, no call-graph fixpoint — quick local
//	       iteration
//
// Arguments are accepted for `go vet`-style muscle memory but the tool
// always analyzes the whole module containing the working directory;
// the invariants it checks are module-global (import-graph rules have
// no meaning for a single package). Interprocedural findings print
// their witness chain, one indented step per line. The only way to
// suppress a finding, syntactic or interprocedural, is a
// `//m3vet:allow <rule> <reason>` comment on or above the flagged
// line. See docs/ANALYSIS.md for the rule catalogue.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

func main() {
	fast := flag.Bool("fast", false, "skip interprocedural passes (no call-graph fixpoint)")
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}

	mods := analysis.AllModule()
	if *fast {
		mods = nil
	}
	diags, err := analysis.Check(root, analysis.All(), mods)
	if err != nil {
		fatal(err)
	}

	for _, d := range diags {
		name := d.Pos.Filename
		if rel, err := filepath.Rel(root, name); err == nil {
			name = rel
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", name, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
		for _, step := range d.Chain {
			sname := step.Pos.Filename
			if rel, err := filepath.Rel(root, sname); err == nil {
				sname = rel
			}
			fmt.Printf("\t%s:%d: %s\n", sname, step.Pos.Line, step.Note)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "m3vet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "m3vet:", err)
	os.Exit(2)
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
