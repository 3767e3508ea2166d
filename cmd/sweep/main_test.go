package main

import (
	"slices"
	"strings"
	"testing"
)

// TestEntriesRefusesEmpty: an empty list entry is refused with the flag
// and its position, not read as the baseline design or an app named "".
func TestEntriesRefusesEmpty(t *testing.T) {
	for _, list := range []string{"gto,", ",gto", "gto,,rba", " ", ""} {
		if _, err := entries("configs", list); err == nil || !strings.Contains(err.Error(), "-configs entry") {
			t.Errorf("entries(%q) = %v, want an empty-entry error", list, err)
		}
	}
	got, err := entries("apps", "pb-mriq, rod-srad")
	if err != nil || !slices.Equal(got, []string{"pb-mriq", "rod-srad"}) {
		t.Errorf("entries = %q, %v", got, err)
	}
}
