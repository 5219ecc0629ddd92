package p_test

import "repro/internal/analysis/load/testdata/src/p"

// The external test package sees what the internal test file exports.
var _ = p.Double(2)
