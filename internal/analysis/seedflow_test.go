package analysis_test

import (
	"testing"

	"ec2wfsim/internal/analysis"
	"ec2wfsim/internal/analysis/analysistest"
)

func TestSeedFlow(t *testing.T) {
	analysistest.Run(t, analysis.SeedFlow, "seedflow", "ec2wfsim/internal/apps/fx")
}

func TestSeedFlowSeedFields(t *testing.T) {
	analysistest.Run(t, analysis.SeedFlow, "seedflow_fields", "ec2wfsim/internal/wms/fx")
}

func TestSeedFlowSeedFieldsClean(t *testing.T) {
	analysistest.Run(t, analysis.SeedFlow, "seedflow_fields_clean", "ec2wfsim/internal/storage/fx")
}

func TestSeedFlowCleanInSeedOwner(t *testing.T) {
	// internal/scenario owns seed derivation, so literal seeds are allowed.
	analysistest.Run(t, analysis.SeedFlow, "seedflow_clean", "ec2wfsim/internal/scenario/fx")
}
