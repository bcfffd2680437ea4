package analysis_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ec2wfsim/internal/analysis"
	"ec2wfsim/internal/analysis/analysistest"
)

// TestRuleCatalogComplete enforces the contract for registering an
// analyzer: every rule in the catalog must carry documentation, ship a
// hit fixture (with // want annotations and a demonstrated suppression
// path), a clean fixture, and a _test.go exercising both.
func TestRuleCatalogComplete(t *testing.T) {
	rules := analysis.Rules()
	if len(rules) == 0 {
		t.Fatal("empty rule catalog")
	}
	seen := map[string]bool{}
	for _, a := range rules {
		if a.Name == "" {
			t.Fatal("analyzer with empty name registered")
		}
		if seen[a.Name] {
			t.Errorf("%s: registered twice", a.Name)
		}
		seen[a.Name] = true

		if a.Doc == "" {
			t.Errorf("%s: missing Doc", a.Name)
		}
		if a.Why == "" {
			t.Errorf("%s: missing Why (the determinism rationale shown by wfvet -catalog)", a.Name)
		}
		if a.Run == nil {
			t.Errorf("%s: nil Run", a.Name)
		}

		if !analysistest.FixtureExists(a.Name) {
			t.Errorf("%s: no hit fixture at testdata/src/%s", a.Name, a.Name)
		} else {
			if wants, err := analysistest.FixtureHasWants(a.Name); err != nil {
				t.Errorf("%s: reading hit fixture: %v", a.Name, err)
			} else if !wants {
				t.Errorf("%s: hit fixture has no // want annotations", a.Name)
			}
			if !fixtureHasSuppression(t, a.Name) {
				t.Errorf("%s: hit fixture does not demonstrate a //wfvet:ignore suppression path", a.Name)
			}
		}
		clean := a.Name + "_clean"
		if !analysistest.FixtureExists(clean) {
			t.Errorf("%s: no clean fixture at testdata/src/%s", a.Name, clean)
		} else if wants, err := analysistest.FixtureHasWants(clean); err != nil {
			t.Errorf("%s: reading clean fixture: %v", a.Name, err)
		} else if wants {
			t.Errorf("%s: clean fixture unexpectedly has // want annotations", a.Name)
		}

		if _, err := os.Stat(a.Name + "_test.go"); err != nil {
			t.Errorf("%s: no %s_test.go in internal/analysis", a.Name, a.Name)
		}
	}
}

// fixtureHasSuppression reports whether the fixture contains a
// wfvet:ignore directive naming its own analyzer — i.e. the fixture
// proves the rule can be locally silenced with a reason.
func fixtureHasSuppression(t *testing.T, name string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "src", name, "*.go"))
	if err != nil || len(files) == 0 {
		return false
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			rest, ok := strings.CutPrefix(strings.TrimSpace(line), "//wfvet:ignore ")
			if !ok {
				if i := strings.Index(line, "//wfvet:ignore "); i >= 0 {
					rest = line[i+len("//wfvet:ignore "):]
				} else {
					continue
				}
			}
			fields := strings.Fields(rest)
			// wfdirective's own fixture tests broken directives; any
			// directive with the right name and a reason counts.
			if len(fields) >= 2 && fields[0] == name {
				return true
			}
		}
	}
	return false
}

// TestRuleNamesStable pins the catalog so adding or renaming a rule is
// a conscious, reviewed act (README and CI docs list these names).
func TestRuleNamesStable(t *testing.T) {
	want := []string{"norawrand", "maporder", "floataccum", "seedflow", "simgoroutine", "wfdirective"}
	var got []string
	for _, a := range analysis.Rules() {
		got = append(got, a.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("rule names = %v, want %v", got, want)
	}
}
