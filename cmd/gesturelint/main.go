// Command gesturelint runs the internal/lint analyzer suite: frame-pool
// ownership (framepool), documented lock orders (lockorder), atomics-only
// counter fields (atomicfield), structured logging (obslog) and
// allocation-free hot paths (hotpathalloc), plus the stale-manifest drift
// check for hotpaths.txt.
//
// Usage (the CI gate):
//
//	go run ./cmd/gesturelint ./...
//	go run ./cmd/gesturelint -only framepool,lockorder ./internal/...
//
// Exit status: 0 clean, 1 findings or usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gesturecep/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	all := lint.All()
	if only == "" {
		return all, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var picked []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		a := byName[strings.TrimSpace(name)]
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		picked = append(picked, a)
	}
	return picked, nil
}

func run(args []string) int {
	fs := flag.NewFlagSet("gesturelint", flag.ExitOnError)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	fs.Parse(args)

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gesturelint:", err)
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := lint.NewLoader()
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gesturelint:", err)
		return 1
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gesturelint:", err)
		return 1
	}
	// The manifest drift check rides with hotpathalloc.
	for _, a := range analyzers {
		if a.Name == "hotpathalloc" {
			diags = append(diags, lint.StaleManifest(pkgs)...)
			break
		}
	}
	if len(pkgs) > 0 {
		for _, d := range diags {
			fmt.Println(lint.FormatDiagnostic(pkgs[0].Fset, d))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "gesturelint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
