package a_test

import "repro/internal/analysis/erraudit/testdata/src/a"

// An external test package is audited wherever its package is.
func discardInExternalTest() {
	_ = a.MayFail() // want `error value assigned to _`
}
