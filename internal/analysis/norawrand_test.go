package analysis_test

import (
	"testing"

	"ec2wfsim/internal/analysis"
	"ec2wfsim/internal/analysis/analysistest"
)

func TestNoRawRand(t *testing.T) {
	// The scope is all module code: a simulation package and a
	// host-side one report the same findings.
	for _, path := range []string{"ec2wfsim/internal/wms/fx", "ec2wfsim/internal/harness/fx"} {
		analysistest.Run(t, analysis.NoRawRand, "norawrand", path)
	}
}

func TestNoRawRandClean(t *testing.T) {
	analysistest.Run(t, analysis.NoRawRand, "norawrand_clean", "ec2wfsim/internal/sweep/fx")
}

func TestNoRawRandHelperChain(t *testing.T) {
	analysistest.Run(t, analysis.NoRawRand, "norawrand_chain", "ec2wfsim/internal/disk/fx")
}

func TestNoRawRandHelperChainClean(t *testing.T) {
	analysistest.Run(t, analysis.NoRawRand, "norawrand_chain_clean", "ec2wfsim/internal/disk/fx")
}

func TestNoRawRandHandlers(t *testing.T) {
	// Handlers scheduled from outside the simulation packages.
	analysistest.Run(t, analysis.NoRawRand, "norawrand_handler", "ec2wfsim/internal/report/fx")
}
