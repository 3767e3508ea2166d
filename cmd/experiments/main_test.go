package main

import (
	"reflect"
	"strings"
	"testing"

	"repro"
)

// Every id is checked before anything simulates, as the format is:
// `experiments fig9 nosuch` used to simulate fig9 first, and `experiments all
// extra` reported "all" itself as a failed experiment after running "extra".
func TestResolveIDs(t *testing.T) {
	all := repro.ExperimentIDs()
	if ids, err := resolveIDs([]string{"all"}); err != nil || !reflect.DeepEqual(ids, all) {
		t.Errorf("all: %v, %v; want every experiment", ids, err)
	}
	if ids, err := resolveIDs([]string{"fig9", "fig17"}); err != nil || !reflect.DeepEqual(ids, []string{"fig9", "fig17"}) {
		t.Errorf("fig9 fig17: %v, %v", ids, err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "usage"},
		{[]string{"fig9", "nosuch"}, `unknown experiment "nosuch"`},
		{[]string{"all", "fig9"}, `unknown experiment "all"`},
		{[]string{"fig9", "all"}, `"all" stands alone`},
	} {
		if ids, err := resolveIDs(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: %v, %v; want an error with %q", tc.args, ids, err, tc.want)
		}
	}
}
