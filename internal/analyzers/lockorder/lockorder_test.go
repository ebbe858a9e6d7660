package lockorder_test

import (
	"testing"

	"spanners/internal/analysis/analysistest"
	"spanners/internal/analyzers/lockorder"
)

func TestLockorder(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "lockorder")
}

func TestNoLock(t *testing.T) {
	analysistest.Run(t, lockorder.Analyzer, "nolock")
}
