// Package faultflow is the golden-file fixture for the faultflow
// analyzer: recover() outside the harness.
package faultflow

// badRecover swallows panics before the harness can classify them.
func badRecover() {
	defer func() {
		if r := recover(); r != nil { // want "recover.. outside internal/harness"
			_ = r
		}
	}()
}

// shadowed calls a function named recover that is not the builtin.
func shadowed() {
	recover := func() any { return nil }
	_ = recover()
}
