package lint

import "strings"

// Scope restricts a check to parts of the module tree. Prefixes are
// module-relative directories; "internal/core" covers that package and
// everything below it, "cmd" covers every command. An empty Include list
// means the check runs everywhere not excluded.
type Scope struct {
	Include []string
	Exclude []string
}

// Config maps check names to their package scope. Checks without an entry
// run on every package.
type Config struct {
	Scopes map[string]Scope
}

// DefaultConfig is the repository policy:
//
//   - determinism runs over the pipeline packages whose outputs must be a
//     pure function of the seed (core, graph, protocol, simnet, deploy)
//     and the backend seam above them (skeleton, localsep), plus
//     internal/obs (whose contract confines wall-clock to Time/Dur), the
//     CLIs (so a stray report timestamp needs a sanction comment), and the
//     module root ("" — the facade plus the scorecard harness, whose
//     timing loops are the only sanctioned wall-clock).
//   - obsnil runs everywhere except inside internal/obs itself, which owns
//     the handle internals.
//   - poolpair and atomicmix run everywhere (the empty scope), which
//     includes internal/obshttp, internal/skeleton and every cmd: the pool
//     hygiene rules cover the staged extraction engine (internal/core) and
//     the simnet parallel round engine's pooled arena state, and atomicmix
//     guards the chunk-parallel stepping paths (internal/graph,
//     internal/simnet) where a stray plain counter beside an atomic one
//     would be a data race.
//   - spanpair runs everywhere except internal/obs (which implements the
//     Span lifecycle it checks): an unclosed span breaks the flight
//     recorder and skeltrace round accounting wherever it happens.
//   - chunkshare, lockhold and registration run everywhere (the empty
//     scope): the chunk-ownership rule binds every ParallelNodes/
//     ParallelChunks call site, the lock-hygiene rules target internal/obs
//     stream/recorder and internal/obshttp but cost nothing where no lock
//     is held, and registration guards skeleton.Register plus every HTTP
//     mux, wherever they are touched.
func DefaultConfig() *Config {
	return &Config{Scopes: map[string]Scope{
		"determinism": {Include: []string{
			"", "internal/core", "internal/graph", "internal/protocol",
			"internal/simnet", "internal/deploy", "internal/obs",
			"internal/obshttp", "internal/skeleton", "internal/localsep", "cmd",
		}},
		"obsnil":       {Exclude: []string{"internal/obs"}},
		"poolpair":     {},
		"atomicmix":    {},
		"spanpair":     {Exclude: []string{"internal/obs"}},
		"chunkshare":   {},
		"lockhold":     {},
		"registration": {},
	}}
}

// Enabled reports whether the named check applies to the package at the
// given module-relative directory.
func (c *Config) Enabled(check, rel string) bool {
	if c == nil {
		return true
	}
	sc, ok := c.Scopes[check]
	if !ok {
		return true
	}
	if len(sc.Include) > 0 && !matchAny(rel, sc.Include) {
		return false
	}
	return !matchAny(rel, sc.Exclude)
}

func matchAny(rel string, prefixes []string) bool {
	for _, p := range prefixes {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}
