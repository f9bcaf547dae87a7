package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Textual grid specs. A grid spec (`paperbench grid -spec`) is a
// semicolon-separated list of axes:
//
//	systems=Baseline,SILO,SILO-CO;workloads=WebSearch,DataServing;overrides=scale=64|llc_mb=64
//
// systems and workloads are comma-separated names; overrides is a
// '|'-separated list of override sets, each a comma-separated list of
// key=value assignments (or "-" for the identity). The grid is the full
// cross product, streamed as JSON-lines in enumeration order.
//
// The compiler lives here (not in cmd/paperbench) because the textual
// form is also the distributed runner's wire format: a coordinator
// ships the string to its workers and every process compiles it with
// this exact code, so equal strings mean equal grids — the property the
// content-hash journal keys and the cross-process byte-identity
// contract both rest on (DESIGN.md §13).

// SystemByName maps a (case-insensitive) system name to its config
// constructor at 16 cores (a cores= override re-targets the core count).
// cmd/silosim resolves -system with it too, so both CLIs accept the
// same names.
func SystemByName(name string) (core.Config, error) {
	switch strings.ToLower(name) {
	case "baseline":
		return core.BaselineConfig(16), nil
	case "baseline+dram$", "baseline+dram", "dram":
		return core.BaselineDRAMConfig(16), nil
	case "silo":
		return core.SILOConfig(16), nil
	case "silo-co", "siloco":
		return core.SILOCOConfig(16), nil
	case "vaults-sh", "vaultssh", "vaultsshared":
		return core.VaultsSharedConfig(16), nil
	default:
		return core.Config{}, fmt.Errorf("unknown system %q (want Baseline, Baseline+DRAM$, SILO, SILO-CO or Vaults-Sh)", name)
	}
}

// WorkloadByName resolves a workload from the scale-out and enterprise
// suites or the SPEC CPU2006 set.
func WorkloadByName(name string) (workload.Spec, error) {
	for _, s := range workload.ScaleOutSuite() {
		if strings.EqualFold(s.Name, name) {
			return s, nil
		}
	}
	for _, s := range workload.EnterpriseSuite() {
		if strings.EqualFold(s.Name, name) {
			return s, nil
		}
	}
	for _, n := range workload.Spec2006Names() {
		if strings.EqualFold(n, name) {
			return workload.Spec2006(n), nil
		}
	}
	return workload.Spec{}, fmt.Errorf("unknown workload %q (scale-out, enterprise and SPEC CPU2006 names are accepted)", name)
}

// ParseOverride compiles one override set ("scale=64,llc_mb=64" or "-")
// into a named config mutation. Assignments apply left to right; every
// value is validated here, at parse time, with the key name in the
// error — a bad override must fail before any cell simulates, not as a
// config panic mid-sweep — and a key given twice is rejected rather
// than silently last-writer-wins.
func ParseOverride(set string) (Override, error) {
	set = strings.TrimSpace(set)
	if set == "" || set == "-" {
		return NoOverride(), nil
	}
	var setters []func(*core.Config)
	seen := map[string]bool{}
	for _, kv := range strings.Split(set, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Override{}, fmt.Errorf("override %q: assignment %q is not key=value", set, kv)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		if seen[key] {
			return Override{}, fmt.Errorf("override %q: key %s given twice", set, key)
		}
		seen[key] = true
		// num validates the value into [1, max] at parse time, naming the
		// key. The caps are generous physical bounds (a petabyte-class
		// cache, a 64k-core die), there to catch typos and unit mistakes —
		// llc_mb=68719476736 for 64 GiB — before they overflow a shift or
		// allocate the host to death mid-sweep.
		num := func(max int64) (int64, error) {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n <= 0 || n > max {
				return 0, fmt.Errorf("override %q: %s wants an integer in [1, %d], got %q", set, key, max, val)
			}
			return n, nil
		}
		switch key {
		case "scale":
			n, err := num(1 << 30)
			if err != nil {
				return Override{}, err
			}
			setters = append(setters, func(c *core.Config) { c.Scale = n })
		case "cores":
			n, err := num(1 << 16)
			if err != nil {
				return Override{}, err
			}
			setters = append(setters, func(c *core.Config) { c.Cores = int(n) })
		case "seed":
			n, err := num(1<<63 - 1)
			if err != nil {
				return Override{}, err
			}
			setters = append(setters, func(c *core.Config) { c.Seed = uint64(n) })
		case "llc_mb":
			n, err := num(1 << 30)
			if err != nil {
				return Override{}, err
			}
			setters = append(setters, func(c *core.Config) { c.LLCSize = n << 20 })
		case "llc_ways":
			n, err := num(1 << 12)
			if err != nil {
				return Override{}, err
			}
			setters = append(setters, func(c *core.Config) { c.LLCWays = int(n) })
		case "llc_extra":
			n, err := num(1 << 20)
			if err != nil {
				return Override{}, err
			}
			setters = append(setters, func(c *core.Config) { c.LLCExtraLatency = sim.Cycle(n) })
		case "rwmult":
			n, err := num(1 << 12)
			if err != nil {
				return Override{}, err
			}
			setters = append(setters, func(c *core.Config) { c.RWSharedMult = int(n) })
		case "vault_mb":
			n, err := num(1 << 30)
			if err != nil {
				return Override{}, err
			}
			setters = append(setters, func(c *core.Config) { c.VaultCapacity = n << 20 })
		case "vault_ways":
			n, err := num(1 << 12)
			if err != nil {
				return Override{}, err
			}
			setters = append(setters, func(c *core.Config) { c.VaultWays = int(n) })
		case "l2":
			if val != "true" && val != "false" {
				return Override{}, fmt.Errorf("override %q: l2 wants true or false, got %q", set, val)
			}
			on := val == "true"
			setters = append(setters, func(c *core.Config) {
				if on {
					*c = c.WithL2()
				} else {
					c.L2Size, c.L2Ways, c.L2Latency = 0, 0, 0
				}
			})
		case "protocol":
			var p coherence.Protocol
			switch strings.ToLower(val) {
			case "mesi":
				p = coherence.MESI
			case "moesi":
				p = coherence.MOESI
			default:
				return Override{}, fmt.Errorf("override %q: protocol wants mesi or moesi, got %q", set, val)
			}
			setters = append(setters, func(c *core.Config) { c.Protocol = p })
		default:
			return Override{}, fmt.Errorf("override %q: unknown key %q (want scale, cores, seed, llc_mb, llc_ways, llc_extra, rwmult, vault_mb, vault_ways, l2, protocol)", set, key)
		}
	}
	return Override{
		Name: set,
		Apply: func(c *core.Config) {
			for _, s := range setters {
				s(c)
			}
		},
	}, nil
}

// ParseGridSpec compiles a textual grid argument into a GridSpec. A
// scenarios= axis names spec files (see internal/scenario), loaded from
// the local filesystem — under the distributed runner every process
// compiles the same string, so workers must see the same files; the
// coordinator cross-checks scenario digests at registration to catch
// divergent copies. Each axis may appear at most once: a repeated axis
// in a hand-built string is a typo that would silently widen the sweep.
func ParseGridSpec(arg string, windows int, confidence float64) (GridSpec, error) {
	g := GridSpec{Windows: windows, Confidence: confidence}
	seen := map[string]bool{}
	for _, section := range strings.Split(arg, ";") {
		section = strings.TrimSpace(section)
		if section == "" {
			continue
		}
		key, val, ok := strings.Cut(section, "=")
		if !ok {
			return g, fmt.Errorf("grid section %q is not axis=values", section)
		}
		axis := strings.ToLower(strings.TrimSpace(key))
		if seen[axis] {
			return g, fmt.Errorf("grid axis %q given twice", axis)
		}
		seen[axis] = true
		switch axis {
		case "systems":
			for _, name := range strings.Split(val, ",") {
				cfg, err := SystemByName(strings.TrimSpace(name))
				if err != nil {
					return g, err
				}
				g.Systems = append(g.Systems, cfg)
			}
		case "workloads":
			for _, name := range strings.Split(val, ",") {
				spec, err := WorkloadByName(strings.TrimSpace(name))
				if err != nil {
					return g, err
				}
				g.Workloads = append(g.Workloads, spec)
			}
		case "scenarios":
			for _, path := range strings.Split(val, ",") {
				scen, err := scenario.Load(strings.TrimSpace(path), WorkloadByName)
				if err != nil {
					return g, err
				}
				g.Scenarios = append(g.Scenarios, scen)
			}
		case "overrides":
			for _, set := range strings.Split(val, "|") {
				ov, err := ParseOverride(set)
				if err != nil {
					return g, err
				}
				g.Overrides = append(g.Overrides, ov)
			}
		default:
			return g, fmt.Errorf("unknown grid axis %q (want systems, workloads, scenarios or overrides)", key)
		}
	}
	if len(g.Systems) == 0 || len(g.Workloads)+len(g.Scenarios) == 0 {
		return g, fmt.Errorf("grid %q needs at least systems=... and workloads=... or scenarios=...", arg)
	}
	return g, nil
}
