// Package configfreeze is the golden fixture for the config-
// immutability analyzer: writes into config-package structs are legal
// only through function-local value copies (pre-construction build-up)
// or inside the config package itself; everything live is frozen.
package configfreeze

import "fixture/configfreeze/config"

// device models gpu.GPU: it captures the config by value at
// construction.
type device struct {
	cfg config.GPU
}

// newDevice is a constructor: exempt by role.
func newDevice(cfg config.GPU) *device {
	return &device{cfg: cfg}
}

// build mutates a function-local value before construction — the
// sanctioned idiom, clean.
func build() *device {
	cfg := config.Default().WithAudit(true)
	cfg.NumSMs = 4
	return newDevice(cfg)
}

// tweak writes into the live, embedded config.
func (d *device) tweak() {
	d.cfg.NumSMs = 8 // want "config field GPU.NumSMs written outside a constructor/option func"
}

// mutate writes through a pointer into a live config.
func mutate(p *config.GPU) {
	p.Audit = true // want "config field GPU.Audit written outside a constructor/option func"
}

// alias obtains a pointer into the live config first; the write
// through the local alias is flagged all the same.
func alias(d *device) {
	p := &d.cfg
	p.NumSMs = 1 // want "config field GPU.NumSMs written outside a constructor/option func"
}

// reseat replaces the whole embedded config.
func reseat(d *device) {
	d.cfg = config.Default() // want "whole config value device.cfg replaced outside a constructor/option func"
}

// reseatPtr replaces the pointee wholesale.
func reseatPtr(p *config.GPU) {
	*p = config.Default() // want "config value replaced through a pointer outside a constructor/option func"
}

// bump increments through the pointer.
func bump(p *config.GPU) {
	p.NumSMs++ // want "config field GPU.NumSMs incremented outside a constructor/option func"
}

// waived demonstrates the suppression hatch.
func waived(p *config.GPU) {
	p.NumSMs = 2 //simlint:allow configfreeze -- fixture: demonstrates suppression
}
