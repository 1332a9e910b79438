package confide_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteExistingArtifacts holds the docs to one convention: a name in
// code — a backticked span or a fenced block — must exist. A deleted test,
// make target, experiment or file may still be named, but in plain text. The
// rules, in order: a Test/Fuzz/Benchmark name (a trailing * makes it a
// prefix) has a func in some _test.go; a `make X` is a Makefile target; a
// `-exp X` is in benchrunner's experiment table; a BENCH_*.json file exists;
// a span that is one file name ending .go, .md, .json, .sh or .yml exists —
// at the repo root or under internal/ when it holds a /, anywhere in the
// tree (hidden directories aside) when it is bare. A span with * or < is a
// pattern and is skipped, as is one with a space (a command line).
// It reads DESIGN.md, README.md, EXPERIMENTS.md and docs/*.md. ROADMAP.md
// stays out because it names tests that do not exist yet, and
// benchmark/README.md because it changes only together with the benchmark.
// Those docs, plain text included, and the Go comments outside benchmark/
// may also cite a ROADMAP item ("item N", "item N(x)", "item Nx"): the
// number must be in ROADMAP.md's open-items list, and a letter must be one
// of that item's sub-items.
func TestDocsCiteExistingArtifacts(t *testing.T) {
	docs := []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}
	more, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, more...)

	funcs, files := map[string]bool{}, map[string]bool{}
	var goFiles []string
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		files[d.Name()] = true
		if strings.HasSuffix(path, ".go") && !strings.HasPrefix(path, "benchmark/") {
			goFiles = append(goFiles, path)
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, m := range funcRE.FindAllStringSubmatch(readFile(t, path), -1) {
			funcs[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	targets := matchSet(readFile(t, "Makefile"), `(?m)^([a-z][\w-]*):`)
	exps := matchSet(readFile(t, "cmd/benchrunner/main.go"), `\{"(\w+)", (?:true|false), `)
	exps["all"] = true

	rules := []struct {
		re     *regexp.Regexp
		exists func(string) bool
		what   string
	}{
		{regexp.MustCompile(`\b((?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*\*?)`), func(s string) bool {
			prefix, wild := strings.CutSuffix(s, "*") // TestCrash* names a family
			for name := range funcs {
				if name == s || wild && strings.HasPrefix(name, prefix) {
					return true
				}
			}
			return false
		}, "no such test func"},
		{regexp.MustCompile(`\bmake ([a-z][\w-]*)`), func(s string) bool { return targets[s] }, "no such Makefile target"},
		{regexp.MustCompile(`-exp ([a-z]\w*)`), func(s string) bool { return exps[s] }, "not in benchrunner's experiment table"},
		{regexp.MustCompile(`\b(BENCH_\w+\.json)`), func(s string) bool { _, err := os.Stat(s); return err == nil }, "no such file"},
		{regexp.MustCompile(`^([^\s*<]+\.(?:go|md|json|sh|yml))$`), func(s string) bool {
			if !strings.Contains(s, "/") {
				return files[s]
			}
			for _, dir := range []string{".", "internal"} {
				if _, err := os.Stat(filepath.Join(dir, s)); err == nil {
					return true
				}
			}
			return false
		}, "no such file"},
	}
	span := regexp.MustCompile("`([^`]+)`")
	for _, doc := range docs {
		fenced := false
		for i, line := range strings.Split(readFile(t, doc), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			code := []string{line}
			if !fenced {
				code = code[:0]
				for _, m := range span.FindAllStringSubmatch(line, -1) {
					code = append(code, m[1])
				}
			}
			for _, r := range rules {
				for _, c := range code {
					for _, m := range r.re.FindAllStringSubmatch(c, -1) {
						if !r.exists(m[1]) {
							t.Errorf("%s:%d: %s: %s", doc, i+1, m[1], r.what)
						}
					}
				}
			}
		}
	}

	items := openItems(t)
	if bad := badItemCitations("fixed by ROADMAP item 12", items); len(bad) == 0 {
		t.Error("a citation of closed item 12 passed the item check")
	}
	for _, path := range append(docs, goFiles...) {
		for i, line := range strings.Split(readFile(t, path), "\n") {
			if strings.HasSuffix(path, ".go") {
				_, comment, ok := strings.Cut(line, "//")
				if !ok {
					continue
				}
				line = comment
			}
			for _, c := range badItemCitations(line, items) {
				t.Errorf("%s:%d: %s: not an open ROADMAP item", path, i+1, c)
			}
		}
	}
}

// itemRE matches a ROADMAP item citation: "item N", "item N(x)", "item Nx".
var itemRE = regexp.MustCompile(`\bitem (\d+)(?:\(([a-z])\)|([a-z])\b)?`)

// badItemCitations returns the item citations in text that name no item of
// open, or a sub-item letter the item does not have.
func badItemCitations(text string, open map[string]string) []string {
	var bad []string
	for _, m := range itemRE.FindAllStringSubmatch(text, -1) {
		body, ok := open[m[1]]
		if letter := m[2] + m[3]; !ok || letter != "" && !strings.Contains(body, "("+letter+")") {
			bad = append(bad, m[0])
		}
	}
	return bad
}

// openItems maps each number of ROADMAP.md's "## Open items" list to the
// item's text: its numbered line and the indented lines under it.
func openItems(t *testing.T) map[string]string {
	t.Helper()
	_, section, _ := strings.Cut(readFile(t, "ROADMAP.md"), "\n## Open items\n")
	section, _, _ = strings.Cut(section, "\n## ")
	start := regexp.MustCompile(`^(\d+)\. `)
	items, cur := map[string]string{}, ""
	for _, line := range strings.Split(section, "\n") {
		if m := start.FindStringSubmatch(line); m != nil {
			cur = m[1]
		} else if line != "" && !strings.HasPrefix(line, " ") {
			cur = ""
		}
		if cur != "" {
			items[cur] += line + "\n"
		}
	}
	if len(items) == 0 {
		t.Fatal("ROADMAP.md has no open items list")
	}
	return items
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// matchSet collects the first submatch of every match of expr in s.
func matchSet(s, expr string) map[string]bool {
	out := map[string]bool{}
	for _, m := range regexp.MustCompile(expr).FindAllStringSubmatch(s, -1) {
		out[m[1]] = true
	}
	return out
}
