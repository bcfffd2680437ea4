package analysis

// Rules returns the full determinism-lint suite in catalog order. The
// table is the single registration point: cmd/wfvet runs exactly these
// analyzers, `wfvet -catalog` prints them, and TestRuleCatalogComplete
// asserts each one ships docs, fixtures and a suppression path.
func Rules() []*Analyzer {
	return []*Analyzer{
		NoRawRand,
		MapOrder,
		FloatAccum,
		SeedFlow,
		SimGoroutine,
		WfDirective,
	}
}
