package repro

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/gpu"
	"repro/internal/workloads"
)

// machineExempt are the fields of config.GPU that Machine clears: a label
// and the two run modes, each with the test that proves it changes no
// result.
var machineExempt = map[string]string{
	"Name":          "a label",
	"AuditEvery":    "TestAuditedRunIsCleanAndUnperturbed",
	"NoFastForward": "TestFastForwardByteIdentity",
}

// knobAliases are the values Validate accepts that are known to simulate
// one machine. Each must still do so: whoever makes one of them live again
// removes it here.
var knobAliases = []struct {
	field  string
	values []int64
	why    string
}{
	// The tap of delay d reads the ring slot recorded d-1 cycles back, and
	// the collector's stage 3 records that slot before stage 4 reads it, so
	// delay 1 reads the live queue lengths, as delay 0 does.
	{"RBAScoreLatency", []int64{0, 1}, "the RBA tap is one cycle short (ROADMAP item 1(d), H6)"},
}

// knobProbe is one launch the oracle watches: kernels run in sequence.
type knobProbe struct {
	name string
	ks   []*gpu.Kernel
}

// cut returns a copy of k with at most blocks blocks: the same programs on a
// smaller grid.
func cut(k *gpu.Kernel, blocks int) *gpu.Kernel {
	c := *k
	c.Blocks = min(c.Blocks, blocks)
	return &c
}

// knobPick overrides a suite's first application as its probe where another
// reaches a knob nothing else does: rod-nw is the suites' one strided
// scratchpad access (SharedMemBanks binds there alone), and pb-spmv's random
// gathers over 768 KB miss L1 and contend for L2 (L1Assoc, L2KB, L2Assoc).
var knobPick = map[string]string{"rodinia": "rod-nw", "parboil": "pb-spmv"}

// knobProbes returns the first kernel of one application per suite, cut to
// four blocks, and the targeted microbenchmarks of the four partitioning
// effects.
func knobProbes(t *testing.T) []knobProbe {
	t.Helper()
	suites, err := workloads.Suites()
	if err != nil {
		t.Fatal(err)
	}
	var probes []knobProbe
	for _, s := range suites {
		apps, err := workloads.BySuite(s)
		if err != nil {
			t.Fatal(err)
		}
		a := apps[0]
		if name, ok := knobPick[s]; ok {
			if a, err = workloads.ByName(name); err != nil {
				t.Fatal(err)
			}
		}
		probes = append(probes, knobProbe{a.Name, []*gpu.Kernel{cut(a.Kernels[0], 4)}})
	}
	fat, thin := workloads.RegCapacityPair()
	return append(probes,
		knobProbe{"bank-conflict", []*gpu.Kernel{cut(workloads.BankConflictMicro(), 4)}},
		knobProbe{"eu-diverse", []*gpu.Kernel{cut(workloads.EUDiverseMicro(), 4)}},
		knobProbe{"reg-capacity", []*gpu.Kernel{cut(fat, 4), cut(thin, 4)}},
	)
}

// run returns the probe's statistics on cfg as JSON, or nil if the launch
// does not fit the device.
func (p knobProbe) run(t *testing.T, cfg config.GPU) []byte {
	t.Helper()
	g, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RunKernels(p.ks, 0); err != nil {
		return nil
	}
	b, err := json.Marshal(g.Run())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// perturbations returns the values the oracle tries for a field holding v,
// before Validate filters them: for an int, 1, half, double, four times (the
// one HashTableEntries 4 can take) and one more; for a bool, its negation;
// for an enum, every other value.
func perturbations(v reflect.Value) []reflect.Value {
	var out []reflect.Value
	switch v.Kind() {
	case reflect.Bool:
		out = append(out, reflect.ValueOf(!v.Bool()))
	case reflect.Int, reflect.Int64:
		x := v.Int()
		for _, y := range []int64{1, x / 2, 2 * x, 4 * x, x + 1} {
			if y != x && !slices.ContainsFunc(out, func(o reflect.Value) bool { return o.Int() == y }) {
				out = append(out, reflect.ValueOf(y).Convert(v.Type()))
			}
		}
	case reflect.Uint8:
		for y := range 256 {
			if uint64(y) != v.Uint() {
				out = append(out, reflect.ValueOf(uint8(y)).Convert(v.Type()))
			}
		}
	}
	return out
}

// TestKnobLiveness: every field of config.GPU changes the simulated machine.
// It walks the struct, so a field added later is held to this without an
// edit here: each field but the three Machine clears must, at some value
// Validate accepts, move the statistics of one probe. A field that moves none
// is a constant in disguise (the warp size, the LSU's width) or a value the
// simulator quietly rewrites to another — two MachineIDs for one machine.
//
// The base device is the experiments' at one SM, so a four-block probe holds
// more than half its warp slots (MaxWarpsPerSM binds at 32), with every conditional knob armed: RBA (its score latency), Shuffle (its
// hash table and seed) and bank stealing. The int candidates start at 1
// because some knobs bind only near their floor: SharedMemBanks moves
// nothing above rod-nw's two-word stride.
func TestKnobLiveness(t *testing.T) {
	base := exp.Base()
	base.NumSMs = 1
	base.WarpScheduler, base.SubCoreAssign = config.SchedRBA, config.AssignShuffle
	base.BankStealing, base.RBAScoreLatency = true, 2

	probes := knobProbes(t)
	want := make([][]byte, len(probes))
	for i, p := range probes {
		if want[i] = p.run(t, base); want[i] == nil {
			t.Fatalf("probe %s does not run on the base device", p.name)
		}
	}
	// moved reports the first probe whose statistics differ on cfg.
	moved := func(cfg config.GPU) (string, bool) {
		for i, p := range probes {
			if got := p.run(t, cfg); string(got) != string(want[i]) {
				return p.name, true
			}
		}
		return "", false
	}

	bv := reflect.ValueOf(base)
	for i := range bv.NumField() {
		f := bv.Type().Field(i)
		if proof, ok := machineExempt[f.Name]; ok {
			for _, v := range perturbations(bv.Field(i)) {
				cfg := base
				reflect.ValueOf(&cfg).Elem().Field(i).Set(v)
				if cfg.Machine() != base.Machine() {
					t.Errorf("%s is exempt as inert (%s) but Machine keeps it", f.Name, proof)
				}
			}
			continue
		}
		var tried []any
		live := false
		for _, v := range perturbations(bv.Field(i)) {
			cfg := base
			reflect.ValueOf(&cfg).Elem().Field(i).Set(v)
			if cfg.Validate() != nil {
				continue
			}
			tried = append(tried, v.Interface())
			if by, ok := moved(cfg); ok {
				t.Logf("%s = %v moves %s", f.Name, v.Interface(), by)
				live = true
				break
			}
		}
		if !live {
			t.Errorf("%s (base %v) moves no probe at any of %v: it is not a knob of the simulated machine", f.Name, bv.Field(i).Interface(), tried)
		}
	}

	for _, a := range knobAliases {
		var first []string
		for j, x := range a.values {
			cfg := base
			reflect.ValueOf(&cfg).Elem().FieldByName(a.field).SetInt(x)
			var got []string
			for _, p := range probes {
				got = append(got, string(p.run(t, cfg)))
			}
			if j == 0 {
				first = got
			} else if !reflect.DeepEqual(got, first) {
				t.Errorf("%s = %d and %d no longer simulate one machine (%s): drop the alias", a.field, a.values[0], x, a.why)
			}
		}
	}
}
