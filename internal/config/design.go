package config

import (
	"fmt"
	"strings"
)

// grammar is the one-line form of the design grammar (see the package
// comment), quoted by every parse error.
const grammar = "[v100|fc] then +-joined modifiers, at most one of each: gto|lrr|rba, rr|srr|shuffle, steal, <N>cu, <N>bank, lat<N>"

var presets = map[string]func() GPU{"v100": VoltaV100, "base": VoltaV100, "fc": FullyConnected}

// modifier is one parsed token: what it sets (a design holds at most one
// per class, so order cannot matter) and the With* helper that sets it.
type modifier struct {
	class string
	apply func(GPU) GPU
}

var namedModifiers = map[string]modifier{
	"gto":     {"scheduler", func(g GPU) GPU { return g.WithScheduler(SchedGTO) }},
	"lrr":     {"scheduler", func(g GPU) GPU { return g.WithScheduler(SchedLRR) }},
	"rba":     {"scheduler", func(g GPU) GPU { return g.WithScheduler(SchedRBA) }},
	"rr":      {"assignment", func(g GPU) GPU { return g.WithAssign(AssignRR) }},
	"srr":     {"assignment", func(g GPU) GPU { return g.WithAssign(AssignSRR) }},
	"shuffle": {"assignment", func(g GPU) GPU { return g.WithAssign(AssignShuffle) }},
	"steal":   {"steal", GPU.WithBankStealing},
}

// countedModifiers are the tokens that carry a number: 4cu, 4bank, lat5.
var countedModifiers = []struct {
	format string
	min    int
	apply  func(GPU, int) GPU
}{
	{"%dcu", 1, GPU.WithCUs},
	{"%dbank", 1, GPU.WithBanks},
	{"lat%d", 0, GPU.WithRBALatency},
}

func parseModifier(tok string) (modifier, bool) {
	if m, ok := namedModifiers[tok]; ok {
		return m, true
	}
	for _, c := range countedModifiers {
		var n int
		// Printing the number back refuses what Sscanf lets through: a
		// sign, leading zeros, a trailing rest.
		if _, err := fmt.Sscanf(tok, c.format, &n); err == nil && n >= c.min && fmt.Sprintf(c.format, n) == tok {
			return modifier{c.format, func(g GPU) GPU { return c.apply(g, n) }}, true
		}
	}
	return modifier{}, false
}

// Design returns the device a design string names at sms SMs: the preset
// (v100 when the string starts with none), then its modifiers. The empty
// string is the baseline. The result is validated.
func Design(design string, sms int) (GPU, error) {
	preset, toks := VoltaV100, tokens(design)
	if len(toks) > 0 && presets[toks[0]] != nil {
		preset, toks = presets[toks[0]], toks[1:]
	}
	return preset().WithSMs(sms).withModifiers(design, toks)
}

// tokens splits a design at its "+" signs; the empty design has none.
func tokens(design string) []string {
	if design == "" {
		return nil
	}
	return strings.Split(design, "+")
}

// WithModifiers returns a copy with a design's modifiers applied — the
// grammar without its preset, for layering on a configuration that did not
// come from one (a -config-file). An absent modifier changes nothing. The
// result is validated.
func (g GPU) WithModifiers(mods string) (GPU, error) {
	return g.withModifiers(mods, tokens(mods))
}

func (g GPU) withModifiers(design string, toks []string) (GPU, error) {
	seen := map[string]string{} // class -> the token that set it
	for _, tok := range toks {
		m, ok := parseModifier(tok)
		switch {
		case presets[tok] != nil:
			return GPU{}, fmt.Errorf("config: design %q: preset %q replaces the whole device, so it comes first and not on top of a configuration file (%s)", design, tok, grammar)
		case !ok:
			return GPU{}, fmt.Errorf("config: design %q: unknown modifier %q (%s)", design, tok, grammar)
		case seen[m.class] != "":
			return GPU{}, fmt.Errorf("config: design %q: %q and %q set the same thing (%s)", design, seen[m.class], tok, grammar)
		}
		seen[m.class] = tok
		g = m.apply(g)
	}
	return g, g.Validate()
}
