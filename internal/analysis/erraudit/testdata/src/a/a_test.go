package a

// Test files are audited with the package they test.
func discardInTest() {
	mayFail() // want `call discards its error result in mayFail`
}
