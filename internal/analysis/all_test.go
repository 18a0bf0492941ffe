package analysis_test

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"fmossim/internal/analysis"
)

// TestAllMatchesDocumentedSuite: the analyzers analysis.All runs are
// exactly the ones each of the three suite listings names — the command's
// usage text, the package doc and ARCHITECTURE.md's table of mechanically
// enforced invariants — so adding or deleting an analyzer cannot leave a
// listing stale.
func TestAllMatchesDocumentedSuite(t *testing.T) {
	var want []string
	for _, a := range analysis.All() {
		want = append(want, a.Name)
	}
	slices.Sort(want)

	for _, src := range []struct {
		path, section string
		row           *regexp.Regexp
	}{
		// "//	mapiter     no raw map iteration …"
		{"../../cmd/fmossimvet/doc.go", "", regexp.MustCompile(`(?m)^//\t([a-z]+) {2,}\S`)},
		// "//   - mapiter — no raw map iteration …"
		{"doc.go", "", regexp.MustCompile(`(?m)^//\s+- ([a-z]+) — `)},
		// "| `mapiter`    | …", under the section's heading and before the next one
		{"../../ARCHITECTURE.md", "### Mechanically enforced invariants", regexp.MustCompile("(?m)^\\| `([a-z]+)` +\\|")},
	} {
		data, err := os.ReadFile(src.path)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		if src.section != "" {
			_, after, ok := strings.Cut(text, src.section)
			if !ok {
				t.Fatalf("%s: no %q section", src.path, src.section)
			}
			text, _, _ = strings.Cut(after, "\n#")
		}
		var got []string
		for _, m := range src.row.FindAllStringSubmatch(text, -1) {
			got = append(got, m[1])
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s lists analyzers %v, analysis.All() runs %v", src.path, got, want)
		}
	}
}
