package splitvm

import (
	"testing"

	"repro/internal/core"
)

// TestExplicitOptionsBeatEnvOverrides pins the precedence the package doc
// states: the SPLITVM_* overrides are defaults, so an option passed to New
// or to a call wins over them — also when it sets the zero value — while a
// call that says nothing inherits them.
func TestExplicitOptionsBeatEnvOverrides(t *testing.T) {
	env := core.Overrides{Tier: true, MemLimit: 1 << 20, Lazy: true}
	eng := newEngine(defaultConfigWith(env))
	m, err := eng.Compile(sumsqSource)
	if err != nil {
		t.Fatal(err)
	}

	inherited, err := eng.Deploy(m)
	if err != nil {
		t.Fatal(err)
	}
	if !inherited.TieringEnabled() || inherited.MemLimit() != 1<<20 || !inherited.Lazy() {
		t.Fatalf("plain deploy: tiering %v, mem limit %d, lazy %v; want the overrides (true, %d, true)",
			inherited.TieringEnabled(), inherited.MemLimit(), inherited.Lazy(), 1<<20)
	}

	explicit, err := eng.Deploy(m, WithMemLimit(0), WithTiering(false), WithLazyCompile(false))
	if err != nil {
		t.Fatal(err)
	}
	if explicit.TieringEnabled() || explicit.MemLimit() != 0 || explicit.Lazy() {
		t.Fatalf("explicit deploy: tiering %v, mem limit %d, lazy %v; want the options (false, 0, false)",
			explicit.TieringEnabled(), explicit.MemLimit(), explicit.Lazy())
	}

	// Engine-wide defaults sit between the two.
	engDefaults := newEngine(defaultConfigWith(env), WithMemLimit(4096), WithTiering(false))
	dep, err := engDefaults.Deploy(m)
	if err != nil {
		t.Fatal(err)
	}
	if dep.TieringEnabled() || dep.MemLimit() != 4096 {
		t.Fatalf("engine defaults: tiering %v, mem limit %d; want (false, 4096)", dep.TieringEnabled(), dep.MemLimit())
	}
}
