// Package a is the erraudit analyzer's test fixture. The test points the
// packages flag at this package.
package a

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
)

func mayFail() error        { return errors.New("boom") }
func twoVals() (int, error) { return 0, nil }
func value() int            { return 1 }
func cleanup()              {}

func bad() {
	mayFail()         // want `call discards its error result in mayFail`
	defer mayFail()   // want `deferred call discards its error result in mayFail`
	go mayFail()      // want `goroutine call discards its error result in mayFail`
	_ = mayFail()     // want `error value assigned to _`
	n, _ := twoVals() // want `error result of twoVals assigned to _`
	_ = n
}

// good handles or legitimately ignores everything: no diagnostics.
func good() error {
	if err := mayFail(); err != nil {
		return err
	}
	value()         // no error result
	defer cleanup() // no error result
	n, err := twoVals()
	if err != nil {
		return err
	}
	_ = n // not an error value
	return nil
}

// memSinks writes to in-memory sinks whose error results are documented
// to always be nil: exempt, no annotation needed. A same-signature write
// to anything else still trips.
func memSinks(w interface{ WriteString(string) (int, error) }) {
	var buf bytes.Buffer
	var sb strings.Builder
	buf.WriteString("x")
	buf.WriteByte('y')
	sb.WriteString("z")
	fmt.Fprintf(&buf, "%d", 1)
	fmt.Fprintln(&sb, "a")
	w.WriteString("x")          // want `call discards its error result in WriteString`
	fmt.Fprintf(mayFailW(), "") // want `call discards its error result in Fprintf`
}

type failW struct{}

func (failW) Write([]byte) (int, error) { return 0, errors.New("no") }
func mayFailW() failW                   { return failW{} }

func justified() {
	//lsm:allow-discard test fixture: error cannot occur after the guard above
	_ = mayFail()
}

// emptyReason shows an annotation without a justification: it does not
// suppress, and the directive itself is flagged.
func emptyReason() {
	_ = mayFail() /*lsm:allow-discard*/ // want `directive needs a justification` `error value assigned to _`
}

// MayFail exports mayFail to the external test package.
func MayFail() error { return mayFail() }
