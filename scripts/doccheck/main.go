// Command doccheck is the documentation gate behind `make doccheck`. It
// performs three checks; the first two are comment/AST-level, and the
// third runs each gated command with -h:
//
//  1. Every Go package under the given root directories carries a package
//     doc comment — a package documents itself if any of its non-test
//     files has a doc comment attached to the package clause.
//  2. With -api and -routes, the HTTP API reference stays in sync with the
//     router: every Go 1.22 "METHOD /path" pattern registered as a string
//     literal in the routes file must appear in a backtick code span in
//     the API document, and every "METHOD /path" code span in the document
//     must be registered in the router. Routes can only drift from their
//     documentation by failing CI.
//  3. With -flagdoc and one or more -flagcli directories, each CLI's flag
//     table stays in sync with its flags: every flag the command's -h
//     usage lists must appear as a backtick `-flag` span in the first
//     column of a markdown table inside the document section whose heading
//     names the command, and every `-flag` documented there must be
//     listed. A table shared by several commands gives each a ✓ column.
//     Flag tables, like routes, can only drift by failing CI.
//
// Usage:
//
//	doccheck [-api API.md -routes internal/serve/router.go]
//	         [-flagdoc README.md -flagcli cmd/orsweep ...] [root ...]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

func main() {
	apiDoc := flag.String("api", "", "API reference document to cross-check against -routes")
	routesFile := flag.String("routes", "", "Go source file whose string-literal route patterns must match -api")
	flagDoc := flag.String("flagdoc", "", "document whose per-CLI flag tables must match each -flagcli command")
	var flagCLIs multiFlag
	flag.Var(&flagCLIs, "flagcli", "command directory whose flag definitions must match its -flagdoc table (repeatable)")
	flag.Parse()
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"./internal", "./cmd"}
	}

	failed := false
	var undocumented []string
	for _, root := range roots {
		dirs, err := packageDirs(root)
		if err != nil {
			fatal(err)
		}
		for _, dir := range dirs {
			ok, err := documented(dir)
			if err != nil {
				fatal(err)
			}
			if !ok {
				undocumented = append(undocumented, dir)
			}
		}
	}
	if len(undocumented) > 0 {
		sort.Strings(undocumented)
		for _, dir := range undocumented {
			fmt.Fprintf(os.Stderr, "doccheck: %s: no package doc comment\n", dir)
		}
		failed = true
	}

	if (*apiDoc == "") != (*routesFile == "") {
		fatal(fmt.Errorf("-api and -routes must be given together"))
	}
	if *apiDoc != "" {
		if err := checkRoutes(*apiDoc, *routesFile); err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			failed = true
		}
	}

	if (*flagDoc == "") != (len(flagCLIs) == 0) {
		fatal(fmt.Errorf("-flagdoc and -flagcli must be given together"))
	}
	for _, dir := range flagCLIs {
		if err := checkFlagTable(*flagDoc, dir); err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "doccheck:", err)
	os.Exit(2)
}

// routePattern recognizes Go 1.22 ServeMux method+path patterns.
var routePattern = regexp.MustCompile(`^(GET|POST|PUT|PATCH|DELETE|HEAD|OPTIONS) /\S*$`)

// checkRoutes cross-checks the router's registered patterns against the
// API document's backtick code spans, in both directions.
func checkRoutes(apiDoc, routesFile string) error {
	registered, err := sourceRoutes(routesFile)
	if err != nil {
		return err
	}
	if len(registered) == 0 {
		return fmt.Errorf("%s registers no method+path route literals; is it the right file?", routesFile)
	}
	documentedRoutes, err := docRoutes(apiDoc)
	if err != nil {
		return err
	}
	var problems []string
	for _, r := range sortedKeys(registered) {
		if !documentedRoutes[r] {
			problems = append(problems, fmt.Sprintf("route %q is registered in %s but not documented in %s", r, routesFile, apiDoc))
		}
	}
	for _, r := range sortedKeys(documentedRoutes) {
		if !registered[r] {
			problems = append(problems, fmt.Sprintf("route %q is documented in %s but not registered in %s", r, apiDoc, routesFile))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("API reference out of sync:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// sourceRoutes parses the router source and collects every string literal
// that looks like a mux method+path pattern.
func sourceRoutes(path string) (map[string]bool, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	routes := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		s, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		if routePattern.MatchString(s) {
			routes[s] = true
		}
		return true
	})
	return routes, nil
}

// docRoutes collects every backtick code span in the document that looks
// like a method+path pattern (`GET /v1/jobs/{id}` and friends). Fenced
// code blocks are stripped first — their triple backticks would otherwise
// flip the pairing of every inline span after them, and example payloads
// inside fences are not route declarations.
func docRoutes(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	text := regexp.MustCompile("(?s)```.*?```").ReplaceAllString(string(data), "")
	routes := map[string]bool{}
	for _, span := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(text, -1) {
		if routePattern.MatchString(span[1]) {
			routes[span[1]] = true
		}
	}
	return routes, nil
}

// checkFlagTable cross-checks one command's registered flags against the
// flag table documented for it, in both directions. The command is the
// base name of its directory; its table rows are the markdown table rows
// in the document section whose heading mentions that name.
func checkFlagTable(doc, cliDir string) error {
	name := filepath.Base(filepath.Clean(cliDir))
	defined, err := cliFlags(cliDir)
	if err != nil {
		return err
	}
	if len(defined) == 0 {
		return fmt.Errorf("%s registers no flags; is it the right directory?", cliDir)
	}
	documentedFlags, found, err := docFlags(doc, name)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%s has no section heading naming %q", doc, name)
	}
	var problems []string
	for _, f := range sortedKeys(defined) {
		if !documentedFlags[f] {
			problems = append(problems, fmt.Sprintf("flag %q is defined by %s but missing from its table in %s", "-"+f, cliDir, doc))
		}
	}
	for _, f := range sortedKeys(documentedFlags) {
		if !defined[f] {
			problems = append(problems, fmt.Sprintf("flag %q is documented for %s in %s but not defined", "-"+f, name, doc))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("flag table for %s out of sync:\n  %s", name, strings.Join(problems, "\n  "))
	}
	return nil
}

// cliFlags runs the command with -h and collects the flag names its usage
// lists (the "  -name" lines flag.PrintDefaults writes), so flags that
// shared binders register count exactly like the command's own.
func cliFlags(dir string) (map[string]bool, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "run", abs, "-h").CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go run %s -h: %v\n%s", dir, err, out)
	}
	flags := map[string]bool{}
	for _, m := range usageFlag.FindAllSubmatch(out, -1) {
		flags[string(m[1])] = true
	}
	return flags, nil
}

// usageFlag matches one flag line of a -h usage listing.
var usageFlag = regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)`)

// flagSpan matches a documented flag inside a backtick code span.
var flagSpan = regexp.MustCompile("`-([a-z][a-z0-9-]*)`")

// docFlags collects the flags documented for the named command: every
// backtick `-flag` span in the first column of a markdown table between
// the heading that mentions the command name and the next heading. A table
// several commands share names each in a header column; there a row counts
// only when the command's column holds ✓. Fenced code blocks are stripped
// so example transcripts cannot leak table-looking lines into the scan.
func docFlags(path, name string) (map[string]bool, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	text := regexp.MustCompile("(?s)```.*?```").ReplaceAllString(string(data), "")
	word := regexp.MustCompile(`(?:^|[^a-z0-9])` + regexp.QuoteMeta(name) + `(?:[^a-z0-9]|$)`)
	flags := map[string]bool{}
	found := false
	inSection := false
	col := -1 // the command's ✓ column in the current table: 0 = none, -1 = no table yet
	for _, line := range strings.Split(text, "\n") {
		row := strings.HasPrefix(strings.TrimSpace(line), "|")
		if !row {
			col = -1
		}
		if strings.HasPrefix(line, "#") {
			inSection = word.MatchString(line)
			found = found || inSection
			continue
		}
		if !inSection || !row {
			continue
		}
		cells := strings.Split(strings.TrimSpace(line), "|")
		if len(cells) < 2 {
			continue
		}
		if col < 0 { // the header row
			col = max(slices.IndexFunc(cells, func(c string) bool { return strings.TrimSpace(c) == name }), 0)
			continue
		}
		if col > 0 && (col >= len(cells) || !strings.Contains(cells[col], "✓")) {
			continue
		}
		for _, m := range flagSpan.FindAllStringSubmatch(cells[1], -1) {
			flags[m[1]] = true
		}
	}
	return flags, found, nil
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// packageDirs returns every directory under root containing at least one
// non-test .go file.
func packageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	return dirs, err
}

// documented reports whether any non-test file in dir attaches a doc
// comment to its package clause.
func documented(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return false, err
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return true, nil
		}
	}
	return false, nil
}
