package splitvm

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/jit"
	"repro/internal/target"
)

// System describes a heterogeneous multicore: a host core plus
// accelerators, each with its own target description and dispatch cost.
type System = hetero.System

// SystemCore is one processing element of a heterogeneous system.
type SystemCore = hetero.Core

// Policy selects how calls are mapped onto the cores of a system.
type Policy = hetero.Policy

// Placement policies.
const (
	// HostOnly runs everything on the host core (accelerators closed to
	// third-party code — the state of the art the paper criticizes).
	HostOnly Policy = hetero.HostOnly
	// Annotated uses the offline hardware-requirement annotations to place
	// heavy vector/float methods on an accelerator.
	Annotated Policy = hetero.Annotated
)

// HeteroRuntime is the deployment of one module on a heterogeneous system:
// one native image per kind of core, one placement policy.
type HeteroRuntime = hetero.Runtime

// CallResult describes where a heterogeneous call ran and what it cost.
type CallResult = hetero.CallResult

// Arg is one argument of a heterogeneous call.
type Arg = hetero.Arg

// ScalarArg wraps a scalar value for a heterogeneous call.
func ScalarArg(k Kind, v Value) Arg { return hetero.ScalarArg(k, v) }

// ArrayArg wraps an array argument for a heterogeneous call (marshalled
// into the chosen core's memory).
func ArrayArg(a *Array) Arg { return hetero.ArrayArg(a) }

// CellLike returns a Cell-BE-like system: a PowerPC-like host core plus two
// SPU-like vector accelerators.
func CellLike() *System { return hetero.CellLike() }

// EmbeddedSoC returns a set-top-box-like system: an MCU host and one
// SPU-like DSP.
func EmbeddedSoC() *System { return hetero.EmbeddedSoC() }

// DeployHetero deploys a module on every distinct core type of a
// heterogeneous system under the given placement policy. Every per-core
// deployment takes the same path as Deploy — the engine's Deploy defaults
// plus any options given here, per-machine ones (tiering, governor)
// included; the target always comes from the system's core descriptions —
// and goes through the engine's code cache, so a system with several
// accelerators of the same kind compiles once — and repeated DeployHetero
// calls for the same module reuse all native code.
func (e *Engine) DeployHetero(sys *System, m *Module, policy Policy, opts ...DeployOption) (*HeteroRuntime, error) {
	if m == nil {
		return nil, fmt.Errorf("splitvm: DeployHetero needs a module (did Compile fail?)")
	}
	if err := requireNoImports(m); err != nil {
		return nil, err
	}
	cfg := e.deployConfig(opts)
	deploy := func(_ []byte, tgt *target.Desc, _ jit.Options) (*core.Deployment, error) {
		dp, err := e.deploy(context.Background(), &cfg, tgt, []*Module{m})
		if err != nil {
			return nil, err
		}
		return dp.d, nil
	}
	return hetero.NewRuntimeWith(sys, m.encoded, policy, deploy)
}
