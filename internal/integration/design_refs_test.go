package integration

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designRef matches a reference to a DESIGN.md section, "DESIGN §n" or
// "DESIGN.md §n", also when a comment wraps it onto the next line.
var designRef = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//|#)+§(\d+)`)

// designHeading matches a numbered section heading of DESIGN.md.
var designHeading = regexp.MustCompile(`(?m)^## (\d+)\.`)

// historyDocs keep the section numbers of the DESIGN.md they were written
// against: the change log and the paper's sources.
var historyDocs = map[string]bool{"CHANGES.md": true, "PAPER.md": true, "PAPERS.md": true, "SNIPPETS.md": true}

// TestDesignReferencesResolve: every "DESIGN §n" in the Go sources, the
// Makefile, the CI workflow and every Markdown file outside bench/ but the
// history documents (the builders' notes under .claude/ included; other
// hidden directories are skipped) names a section DESIGN.md has, as a
// "## n." heading —
// so a rewrite that renumbers or folds sections cannot leave a reference
// dangling.
func TestDesignReferencesResolve(t *testing.T) {
	root := filepath.Join("..", "..")
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered section heading")
	}
	files := []string{"Makefile", filepath.Join(".github", "workflows", "ci.yml")}
	markdown := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && d.Name() != ".claude" && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(rel, ".go"):
			files = append(files, rel)
		case strings.HasSuffix(rel, ".md") && !historyDocs[rel] &&
			!strings.HasPrefix(rel, "bench"+string(filepath.Separator)):
			files = append(files, rel)
			markdown++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if markdown < 4 {
		t.Fatalf("the scan found %d Markdown files: DESIGN.md, README.md, ROADMAP.md and EXPERIMENTS.md at least", markdown)
	}
	refs := 0
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			t.Fatal(err)
		}
		for _, loc := range designRef.FindAllSubmatchIndex(b, -1) {
			refs++
			if n := string(b[loc[2]:loc[3]]); !sections[n] {
				line := 1 + strings.Count(string(b[:loc[0]]), "\n")
				t.Errorf("%s:%d: %q names DESIGN.md §%s, which has no \"## %s.\" heading", f, line, b[loc[0]:loc[1]], n, n)
			}
		}
	}
	if refs == 0 {
		t.Fatal("no DESIGN §n reference found: the scan reads nothing")
	}
}

// TestDesignFitsInAHead: DESIGN.md and README.md, the two documents every
// reader opens first, stay within their byte budgets, so a change that adds
// to either removes at least as much. DESIGN.md says what the code does now
// (its history is in CHANGES.md and git), README.md how to run it.
func TestDesignFitsInAHead(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, doc := range []struct {
		name string
		max  int64
	}{{"DESIGN.md", 51200}, {"README.md", 25600}} {
		fi, err := os.Stat(filepath.Join(root, doc.name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > doc.max {
			t.Errorf("%s is %d bytes, over its budget of %d: remove as much as was added", doc.name, fi.Size(), doc.max)
		}
	}
}
