package main

import "testing"

// These cover the usage-error surface: every path that must exit 1
// before any analysis starts. (Exit 0/2 over real packages is covered
// by CI running wfvet against the tree itself.)
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-frobnicate"},
		{"-rules", "norawrand"}, // retired flag
	} {
		if code := run(args); code != 1 {
			t.Errorf("run(%v) = %d, want 1", args, code)
		}
	}
}

func TestRunCatalog(t *testing.T) {
	if code := run([]string{"-catalog"}); code != 0 {
		t.Errorf("run(-catalog) = %d, want 0", code)
	}
}
