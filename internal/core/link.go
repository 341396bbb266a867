package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"

	"repro/internal/cil"
	"repro/internal/jit"
	"repro/internal/minic"
	"repro/internal/nisa"
	"repro/internal/sim"
)

// LinkUnit is one module of a link set: its image plus the content hash of
// its encoded bytes — the identity its dependents' import tables name it by.
type LinkUnit struct {
	Hash  [cil.HashSize]byte
	Image *Image
}

// Linked is a validated set of images whose cross-module calls all resolve
// at link time — the one deploy model: a single module is a link set of one.
// NewLinked proves that every import names a unit of the set and an
// existing method with a matching signature, so instantiated deployments can
// never hit an unresolvable callee at run time — a missing dependency is a
// link error, not a first-call panic.
//
// Method names are globally unique across the set (enforced by NewLinked):
// entry points are called by their plain name, and hash-qualified import
// symbols dispatch to the owning unit.
type Linked struct {
	Units []LinkUnit

	byQual map[string]int // hex-qualifier of cil.ImportSym → unit index
	byName map[string]int // plain method name → owning unit index
}

// CheckLinkSet validates a set of modules, identified by the content hashes
// of their encodings: no module appears twice, method names are unique
// across the set, and every import names a member of the set whose module
// defines the imported methods with matching signatures.
func CheckLinkSet(mods []*cil.Module, hashes [][cil.HashSize]byte) error {
	_, _, err := linkTables(mods, hashes)
	return err
}

// linkTables validates a link set (see CheckLinkSet) and returns its symbol
// tables: hash qualifier → module index and plain method name → module
// index.
func linkTables(mods []*cil.Module, hashes [][cil.HashSize]byte) (byQual, byName map[string]int, err error) {
	if len(mods) == 0 {
		return nil, nil, fmt.Errorf("core: link set is empty")
	}
	byQual = make(map[string]int, len(mods))
	byName = make(map[string]int)
	byHash := make(map[[cil.HashSize]byte]int, len(mods))
	for i, mod := range mods {
		if _, dup := byHash[hashes[i]]; dup {
			return nil, nil, fmt.Errorf("core: link set contains module %q twice (hash %x)", mod.Name, hashes[i][:8])
		}
		byHash[hashes[i]] = i
		qual := cil.HashQualifier(hashes[i])
		if prev, dup := byQual[qual]; dup {
			return nil, nil, fmt.Errorf("core: modules %q and %q collide on hash qualifier %s", mods[prev].Name, mod.Name, qual)
		}
		byQual[qual] = i
		for _, m := range mod.Methods {
			if prev, dup := byName[m.Name]; dup {
				return nil, nil, fmt.Errorf("core: method %q defined by both %q and %q; method names must be unique across a link set",
					m.Name, mods[prev].Name, mod.Name)
			}
			byName[m.Name] = i
		}
	}
	// Every import of every module must resolve inside the set, method by
	// method, signature by signature.
	for _, mod := range mods {
		for i := range mod.Imports {
			im := &mod.Imports[i]
			j, ok := byHash[im.Hash]
			if !ok {
				return nil, nil, fmt.Errorf("core: module %q imports %q (hash %x) which is not in the link set",
					mod.Name, im.Module, im.Hash[:8])
			}
			dep := mods[j]
			for _, want := range im.Methods {
				got := dep.Method(want.Name)
				if got == nil {
					return nil, nil, fmt.Errorf("core: module %q imports method %q from %q, which does not define it",
						mod.Name, want.Name, dep.Name)
				}
				if !sameSignature(got, want) {
					return nil, nil, fmt.Errorf("core: module %q imports %q.%s with a signature that does not match the linked module",
						mod.Name, dep.Name, want.Name)
				}
			}
		}
	}
	return byQual, byName, nil
}

func sameSignature(got *cil.Method, want cil.ImportedMethod) bool {
	if len(got.Params) != len(want.Params) || got.Ret != want.Ret {
		return false
	}
	for i := range got.Params {
		if got.Params[i] != want.Params[i] {
			return false
		}
	}
	return true
}

// NewLinked validates a link set of images (see CheckLinkSet). All units
// must target the same processor with the same code-shaping JIT options:
// they share one machine.
func NewLinked(units []LinkUnit) (*Linked, error) {
	mods := make([]*cil.Module, len(units))
	hashes := make([][cil.HashSize]byte, len(units))
	for i, u := range units {
		img, first := u.Image, units[0].Image
		// Compare descriptors by value: cached images each hold a private
		// copy of the descriptor they were keyed under, so pointer identity
		// would spuriously reject identical targets. The worker count never
		// changes code, so it may differ between cached units.
		if *img.Target != *first.Target {
			return nil, fmt.Errorf("core: link set mixes targets %q and %q", first.Target.Name, img.Target.Name)
		}
		a, b := img.JITOpts, first.JITOpts
		a.CompileWorkers, b.CompileWorkers = 0, 0
		if a != b {
			return nil, fmt.Errorf("core: link set mixes JIT options across modules %q and %q", first.Module.Name, img.Module.Name)
		}
		mods[i], hashes[i] = img.Module, u.Hash
	}
	byQual, byName, err := linkTables(mods, hashes)
	if err != nil {
		return nil, err
	}
	return &Linked{Units: units, byQual: byQual, byName: byName}, nil
}

// Lazy reports whether any unit of the set compiles methods on first call.
func (l *Linked) Lazy() bool {
	for _, u := range l.Units {
		if u.Image.Lazy() {
			return true
		}
	}
	return false
}

// Method returns the named method of whichever unit defines it, or nil.
func (l *Linked) Method(name string) *cil.Method {
	if i, ok := l.byName[name]; ok {
		return l.Units[i].Image.Module.Method(name)
	}
	return nil
}

// ResolveMethod resolves a call symbol — a plain method name or a
// hash-qualified import symbol — through the owning unit's image, which
// compiles the method on first use. Resolution is singleflight per (image,
// method) however many deployments need it.
func (l *Linked) ResolveMethod(ctx context.Context, sym string) (*nisa.Func, error) {
	name := sym
	i, ok := l.byName[sym]
	if cil.IsImportSym(sym) {
		var qual string
		name, qual = cil.SplitImportSym(sym)
		if i, ok = l.byQual[qual]; !ok {
			return nil, fmt.Errorf("core: link set has no module with qualifier %q (symbol %q)", qual, sym)
		}
	}
	if !ok {
		return nil, fmt.Errorf("core: unknown method %q in link set", sym)
	}
	return l.Units[i].Image.ResolveMethod(ctx, name)
}

// CompileState reports the per-method state of every unit, keyed by the
// plain (globally unique) method name.
func (l *Linked) CompileState() map[string]MethodCompileState {
	out := make(map[string]MethodCompileState)
	for _, u := range l.Units {
		for name, st := range u.Image.CompileState() {
			out[name] = st
		}
	}
	return out
}

// Summary totals the per-method tables of every unit.
func (l *Linked) Summary() ImageSummary {
	var s ImageSummary
	for _, u := range l.Units {
		us := u.Image.Summary()
		s.Compiled += us.Compiled
		s.FromStore += us.FromStore
		s.Total += us.Total
		s.JITSteps += us.JITSteps
		s.CompileNanos += us.CompileNanos
	}
	return s
}

// Report concatenates the units' annotation-negotiation reports in link
// order.
func (l *Linked) Report() *jit.Report {
	rep := &jit.Report{}
	for _, u := range l.Units {
		ur := u.Image.Report()
		rep.Outcomes = append(rep.Outcomes, ur.Outcomes...)
		rep.Fallbacks += ur.Fallbacks
	}
	return rep
}

// fill copies every resolved method of the set into prog under its plain
// name, plus alias entries for the hash-qualified symbols cross-module call
// sites use; the rest resolve through the machine's resolver.
func (l *Linked) fill(prog *nisa.Program) {
	for _, u := range l.Units {
		u.Image.snapshot(prog)
	}
	for _, u := range l.Units {
		mod := u.Image.Module
		for i := range mod.Imports {
			im := &mod.Imports[i]
			for _, want := range im.Methods {
				if f := prog.Funcs[want.Name]; f != nil {
					prog.Funcs[cil.ImportSym(im.Hash, want.Name)] = f
				}
			}
		}
	}
}

// Instantiate creates a fresh machine spanning the whole link set. Every
// machine gets its own program — the resolver patches it as methods resolve
// — pre-seeded with whatever methods the set's images already hold, all
// resolving through the images' shared singleflight tables. The machine
// owns its memory and statistics, so concurrent instantiations are safe.
func (l *Linked) Instantiate() *Deployment {
	root := l.Units[0].Image
	prog := nisa.NewProgram(root.Target.Name)
	l.fill(prog)
	machine := sim.New(root.Target, prog)
	machine.SetResolver(l.ResolveMethod)
	return &Deployment{
		Target:  root.Target,
		Module:  root.Module,
		Program: prog,
		JITOpts: root.JITOpts,
		Machine: machine,
		Link:    l,
	}
}

// HashModule returns the content hash link sets identify a module by: the
// sha256 of its encoded bytes.
func HashModule(encoded []byte) [cil.HashSize]byte {
	return sha256.Sum256(encoded)
}

// CompileOfflineModules compiles several MiniC sources as one program split
// into one module per source. The sources are parsed separately — each owns
// the functions it declares — then checked, optimized and lowered together,
// so cross-source calls type-check exactly like same-source ones. Call sites
// that cross a source boundary are rewritten to hash-qualified import
// symbols and recorded in the caller's import table; the returned results
// are ordered dependencies-first (a module's hash must exist before an
// importer can name it), and dependency cycles between sources are an error.
// The per-module byte streams deploy as a link set.
func CompileOfflineModules(sources []string, names []string, opts OfflineOptions) ([]*OfflineResult, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: no sources")
	}
	if len(names) != len(sources) {
		return nil, fmt.Errorf("core: %d sources but %d module names", len(sources), len(names))
	}
	// Ownership: which source declares which function.
	owner := make(map[string]int)
	for i, src := range sources {
		prog, err := minic.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("core: module %q: %w", names[i], err)
		}
		for _, fn := range prog.Funcs {
			if prev, dup := owner[fn.Name]; dup {
				return nil, fmt.Errorf("core: function %q declared by both %q and %q; names must be unique across a link set",
					fn.Name, names[prev], names[i])
			}
			owner[fn.Name] = i
		}
	}
	// Compile the concatenation as one unit: shared front end, optimizer,
	// codegen and offline analyses, so splitting never changes the code.
	merged := ""
	for _, src := range sources {
		merged += src + "\n"
	}
	res, err := CompileOffline(merged, opts)
	if err != nil {
		return nil, err
	}
	// Partition the merged module's methods back to their owning sources.
	parts := make([]*cil.Module, len(sources))
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("core: module %d has no name", i)
		}
		parts[i] = cil.NewModule(name)
		for k, v := range res.Module.Annotations {
			parts[i].SetAnnotation(k, v)
		}
	}
	for _, m := range res.Module.Methods {
		i, ok := owner[m.Name]
		if !ok {
			return nil, fmt.Errorf("core: method %q has no owning source", m.Name)
		}
		parts[i].Methods = append(parts[i].Methods, m)
	}
	// Cross-part call graph for the dependencies-first hash ordering.
	deps := make([]map[int]bool, len(parts))
	for i := range deps {
		deps[i] = make(map[int]bool)
	}
	for i, part := range parts {
		for _, m := range part.Methods {
			for _, in := range m.Code {
				if in.Op != cil.Call {
					continue
				}
				j, ok := owner[in.Str]
				if !ok {
					continue // intrinsic or local helper resolved later by Verify
				}
				if j != i {
					deps[i][j] = true
				}
			}
		}
	}
	order, err := topoOrder(deps, names)
	if err != nil {
		return nil, err
	}
	// Encode dependencies-first, rewriting cross-part calls to import
	// symbols as each dependency's hash becomes known.
	hashes := make([][cil.HashSize]byte, len(parts))
	encoded := make(map[int][]byte, len(parts))
	for _, i := range order {
		part := parts[i]
		for _, m := range part.Methods {
			for pc := range m.Code {
				in := &m.Code[pc]
				if in.Op != cil.Call {
					continue
				}
				j, ok := owner[in.Str]
				if !ok || j == i {
					continue
				}
				dep := parts[j]
				callee := dep.Method(in.Str)
				part.AddImport(cil.Import{
					Hash:   hashes[j],
					Module: dep.Name,
					Methods: []cil.ImportedMethod{{
						Name:   callee.Name,
						Params: append([]cil.Type(nil), callee.Params...),
						Ret:    callee.Ret,
					}},
				})
				in.Str = cil.ImportSym(hashes[j], in.Str)
			}
		}
		if err := cil.Verify(part); err != nil {
			return nil, fmt.Errorf("core: module %q after split: %w", part.Name, err)
		}
		enc := cil.Encode(part)
		encoded[i] = enc
		hashes[i] = HashModule(enc)
	}
	out := make([]*OfflineResult, len(parts))
	for i, part := range parts {
		out[i] = &OfflineResult{Module: part, Encoded: encoded[i]}
	}
	return out, nil
}

// topoOrder orders part indices dependencies-first; a dependency cycle
// between parts is an error (a module's content hash cannot include itself).
func topoOrder(deps []map[int]bool, names []string) ([]int, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make([]int, len(deps))
	order := make([]int, 0, len(deps))
	var visit func(i int) error
	visit = func(i int) error {
		switch state[i] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("core: dependency cycle through module %q; cyclic imports cannot be content-hashed", names[i])
		}
		state[i] = visiting
		targets := make([]int, 0, len(deps[i]))
		for j := range deps[i] {
			targets = append(targets, j)
		}
		sort.Ints(targets)
		for _, j := range targets {
			if err := visit(j); err != nil {
				return err
			}
		}
		state[i] = done
		order = append(order, i)
		return nil
	}
	for i := range deps {
		if err := visit(i); err != nil {
			return nil, err
		}
	}
	return order, nil
}
