package analysis

// WfDirective validates //wfvet:ignore suppression comments themselves:
// a directive must name a registered analyzer and carry a non-empty
// justification. Malformed directives are the worst of both worlds —
// they look like an audit trail but suppress nothing (the framework
// ignores reason-less directives), so they are reported as findings.
var WfDirective = &Analyzer{
	Name: "wfdirective",
	Doc:  "validate //wfvet:ignore directives: known analyzer name and mandatory reason",
	Why: "suppressions are the escape hatch in the determinism gate; each one must say " +
		"which rule it waives and why, so the audit trail stays greppable and honest.",
	Run: runWfDirective,
}

// known is filled by init rather than in runWfDirective so that the
// analyzer's Run function does not reference Rules (which references
// WfDirective — a package-initialization cycle).
var known = make(map[string]bool)

func init() {
	for _, a := range Rules() {
		known[a.Name] = true
	}
}

func runWfDirective(pass *Pass) {
	for _, f := range pass.Files {
		for _, d := range ParseIgnores(pass.Fset, f) {
			switch {
			case d.Analyzer == "":
				pass.Reportf(d.Pos, "malformed wfvet:ignore: want `//wfvet:ignore <analyzer> <reason>`")
			case !known[d.Analyzer]:
				pass.Reportf(d.Pos, "wfvet:ignore names unknown analyzer %q (see `wfvet -catalog`)", d.Analyzer)
			case d.Reason == "":
				pass.Reportf(d.Pos, "wfvet:ignore %s without a reason: the justification is mandatory (and reason-less directives suppress nothing)", d.Analyzer)
			}
		}
	}
}
