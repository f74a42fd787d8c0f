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

// TestDesignReferencesResolve: every "DESIGN §n" in the Go sources, the
// Makefile, the CI workflow, README.md, ROADMAP.md and DESIGN.md itself
// names a section DESIGN.md has, as a "## n." heading — so a rewrite that
// renumbers or folds sections cannot leave a reference dangling.
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
	files := []string{"Makefile", filepath.Join(".github", "workflows", "ci.yml"), "README.md", "ROADMAP.md", "DESIGN.md"}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			rel, _ := filepath.Rel(root, path)
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
