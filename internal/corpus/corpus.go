// Package corpus builds and checks the golden annotation corpus: encoded
// module byte streams, checked in under internal/anno/testdata/annocorpus/,
// that pin down every annotation encoding the toolchain has ever shipped.
//
// The corpus is the compatibility contract of split compilation. Once a
// stream is in the corpus it never changes and never leaves: it stands for
// the installed base of modules compiled by older offline compilers, and
// every newer reader must keep loading it and deploying it with results
// identical to online-only compilation. When the encoder's output changes —
// a new schema version, a layout tweak — the change does not replace
// entries; it adds new ones (cmd/annocorpus -update), so the corpus grows
// monotonically with the format's history.
//
// cmd/annocorpus -check regenerates every (kernel, version) stream with the
// current encoder and fails when its bytes are not already in the corpus:
// the CI `compat` job uses this to force a PR that changes the encoder to
// also check in the stream it now produces. TestCorpus (internal/anno)
// decodes and deploys every checked-in stream.
package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/anno"
	"repro/internal/anno/envelope"
	"repro/internal/cil"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/kernels"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/target"
)

// Kernels are the corpus subjects: a float map kernel, a byte reduction and
// a 16-bit reduction — enough to cover the vector, regalloc and hwreq
// annotations across element kinds. Compilation is deterministic, so each
// (kernel, writer version) pair pins one exact byte stream.
var Kernels = []string{"saxpy_fp", "sum_u8", "sum_u16"}

// Versions are the writer versions the corpus covers.
var Versions = []uint32{anno.V0, anno.V1}

// SyntheticKernel names the hand-crafted corpus entry whose regalloc
// annotation declares schema version 99: a stream from the future, used to
// pin the fallback-to-online-compilation behavior.
const SyntheticKernel = "synthetic"

// SyntheticVersion is the unreadable schema version the synthetic entry
// declares.
const SyntheticVersion uint32 = 99

// syntheticSource is the MiniC source of the synthetic entry. Scalar-only,
// so the corpus test can invoke it without array marshalling.
const syntheticSource = `
i32 work(i32 n) {
    i32 acc = 0;
    for (i32 i = 0; i < n; i++) {
        acc = acc + i * i;
    }
    return acc;
}
`

// SyntheticEntryPoint is the entry point of the synthetic module, invoked
// with one small integer argument.
const SyntheticEntryPoint = "work"

// ProfiledKernel names the corpus entry whose module carries a runtime
// execution profile annotation (module-level anno.KeyProfile, schema v1):
// the stream a deployment re-exports after profiling, pinned so future
// readers keep negotiating and consuming it.
const ProfiledKernel = "profiled"

// ProfiledFutureKernel names the entry whose profile section declares
// schema version 99 — a profile from a future toolchain. Pre-profile and
// current readers must degrade to running unprofiled, never error.
const ProfiledFutureKernel = "profiled-future"

// ManifestName is the corpus index file.
const ManifestName = "MANIFEST.json"

// Entry is one checked-in stream.
type Entry struct {
	// File is the stream's file name within the corpus directory.
	File string `json:"file"`
	// Kernel is the kernel registry name, or SyntheticKernel.
	Kernel string `json:"kernel"`
	// Version is the annotation writer version the stream was produced
	// with (SyntheticVersion for the synthetic future stream).
	Version uint32 `json:"version"`
	// SHA256 is the hex digest of the file contents.
	SHA256 string `json:"sha256"`
}

// Manifest indexes the corpus.
type Manifest struct {
	Entries []Entry `json:"entries"`
}

// LoadManifest reads the corpus index; a missing file yields an empty
// manifest (the -update path starts from nothing).
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		return &Manifest{}, nil
	}
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("corpus: parsing %s: %w", ManifestName, err)
	}
	return &m, nil
}

func (m *Manifest) save(dir string) error {
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].File < m.Entries[j].File })
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ManifestName), append(data, '\n'), 0o644)
}

// find returns the entry matching kernel, version and digest, if any.
func (m *Manifest) find(kernel string, version uint32, sum string) *Entry {
	for i := range m.Entries {
		e := &m.Entries[i]
		if e.Kernel == kernel && e.Version == version && e.SHA256 == sum {
			return e
		}
	}
	return nil
}

// Generate produces the current encoder's byte stream for one corpus
// subject. Pass SyntheticKernel/SyntheticVersion for the future stream.
func Generate(kernel string, version uint32) ([]byte, error) {
	switch kernel {
	case SyntheticKernel:
		return generateSynthetic()
	case ProfiledKernel:
		return generateProfiled(false)
	case ProfiledFutureKernel:
		return generateProfiled(true)
	}
	res, _, err := core.CompileKernel(kernel, core.OfflineOptions{AnnotationVersion: version})
	if err != nil {
		return nil, err
	}
	return res.Encoded, nil
}

// generateSynthetic compiles the synthetic module and replaces its regalloc
// annotation with an envelope declaring schema version 99 (the current v1
// payload inside — a reader that understood 99 would still find bytes, but
// no reader does yet, which is the point).
func generateSynthetic() ([]byte, error) {
	res, err := core.CompileOffline(syntheticSource, core.OfflineOptions{
		ModuleName:        "synthetic",
		AnnotationVersion: anno.V1,
	})
	if err != nil {
		return nil, err
	}
	m := res.Module.Method(SyntheticEntryPoint)
	if m == nil {
		return nil, fmt.Errorf("corpus: synthetic module lost its entry point")
	}
	info := anno.RegAllocInfoOf(m)
	if info == nil {
		return nil, fmt.Errorf("corpus: synthetic module carries no regalloc annotation")
	}
	m.SetAnnotation(anno.KeyRegAlloc, envelope.Encode(&envelope.Envelope{Sections: []envelope.Section{
		{Name: "regalloc", Version: SyntheticVersion, Payload: anno.EncodeRegAllocInfo(info)},
	}}))
	return cil.Encode(res.Module), nil
}

// generateProfiled compiles the synthetic module, records an execution
// profile by running it in a profiling deployment, and attaches the profile
// as a module-level annotation. Execution is deterministic, so the profile
// — and with it the whole stream — is byte-stable. With future set the
// profile section declares schema version 99 instead of v1.
func generateProfiled(future bool) ([]byte, error) {
	res, err := core.CompileOffline(syntheticSource, core.OfflineOptions{
		ModuleName:        "profiled",
		AnnotationVersion: anno.V1,
	})
	if err != nil {
		return nil, err
	}
	tgt, err := target.Lookup(target.MCU)
	if err != nil {
		return nil, err
	}
	dep, err := core.Deploy(res.Encoded, tgt, jit.Options{RegAlloc: jit.RegAllocSplit})
	if err != nil {
		return nil, err
	}
	dep.EnableTiering(core.TierOptions{Policy: profile.Policy{PromoteCalls: -1}}) // profile only
	for i := 0; i < 3; i++ {
		if _, err := dep.Run(SyntheticEntryPoint, sim.IntArg(16)); err != nil {
			return nil, err
		}
	}
	p := dep.ExportProfile()
	if future {
		res.Module.SetAnnotation(anno.KeyProfile, envelope.Encode(&envelope.Envelope{Sections: []envelope.Section{
			{Name: "profile", Version: SyntheticVersion, Payload: p.Encode()},
		}}))
	} else if err := anno.AttachProfileV(res.Module, p, anno.V1); err != nil {
		return nil, err
	}
	return cil.Encode(res.Module), nil
}

// subject is one (kernel, writer version) pair the corpus must cover.
type subject struct {
	kernel  string
	version uint32
}

// subjects enumerates every pair the corpus must cover.
func subjects() []subject {
	var out []subject
	for _, k := range Kernels {
		for _, v := range Versions {
			out = append(out, subject{kernel: k, version: v})
		}
	}
	out = append(out, subject{kernel: SyntheticKernel, version: SyntheticVersion})
	out = append(out, subject{kernel: ProfiledKernel, version: anno.V1})
	return append(out, subject{kernel: ProfiledFutureKernel, version: SyntheticVersion})
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Check verifies the corpus is complete and intact. It returns a list of
// problems (empty means the gate passes): a current encoder output whose
// bytes are not checked in, a manifest entry whose file is missing or
// altered, or a stream file the manifest does not know.
func Check(dir string) ([]string, error) {
	man, err := LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, s := range subjects() {
		data, err := Generate(s.kernel, s.version)
		if err != nil {
			return nil, fmt.Errorf("corpus: generating %s v%d: %w", s.kernel, s.version, err)
		}
		if man.find(s.kernel, s.version, digest(data)) == nil {
			problems = append(problems, fmt.Sprintf(
				"encoder output for %s (writer v%d) is not in the corpus — the encoding changed; run `go run ./cmd/annocorpus -update` and commit the new stream",
				s.kernel, s.version))
		}
	}
	known := map[string]bool{ManifestName: true}
	for _, e := range man.Entries {
		known[e.File] = true
		data, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			problems = append(problems, fmt.Sprintf("corpus entry %s: %v", e.File, err))
			continue
		}
		if digest(data) != e.SHA256 {
			problems = append(problems, fmt.Sprintf(
				"corpus entry %s was modified (checked-in streams are immutable; add new entries instead)", e.File))
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		if !f.IsDir() && !known[f.Name()] {
			problems = append(problems, fmt.Sprintf("stray file %s not in %s", f.Name(), ManifestName))
		}
	}
	return problems, nil
}

// Update adds the current encoder outputs that are missing from the corpus
// and returns the files it created. Existing entries are never touched.
func Update(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man, err := LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	var added []string
	for _, s := range subjects() {
		data, err := Generate(s.kernel, s.version)
		if err != nil {
			return nil, fmt.Errorf("corpus: generating %s v%d: %w", s.kernel, s.version, err)
		}
		sum := digest(data)
		if man.find(s.kernel, s.version, sum) != nil {
			continue
		}
		name := fmt.Sprintf("%s_v%d_%s.svbc", s.kernel, s.version, sum[:8])
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return nil, err
		}
		man.Entries = append(man.Entries, Entry{File: name, Kernel: s.kernel, Version: s.version, SHA256: sum})
		added = append(added, name)
	}
	if len(added) > 0 {
		if err := man.save(dir); err != nil {
			return nil, err
		}
	}
	return added, nil
}

// verifyTargets are the deployment targets every corpus stream is checked
// on: one SIMD-capable desktop-class core and the register-starved
// microcontroller without a vector unit, so both the mapped and the
// scalarized lowering paths are pinned.
var verifyTargets = []target.Arch{target.X86SSE, target.MCU}

// VerifyEntry decodes one checked-in stream and deploys it twice per target
// — once consuming its annotations (split register allocation), once
// online-only from a fully stripped clone — and fails unless both produce
// identical results. For the synthetic future stream it additionally
// asserts that negotiation fell back (and that the fallback surfaced
// without any error).
func VerifyEntry(dir string, e Entry) error {
	data, err := os.ReadFile(filepath.Join(dir, e.File))
	if err != nil {
		return err
	}
	if digest(data) != e.SHA256 {
		return fmt.Errorf("%s: digest mismatch with manifest", e.File)
	}
	mod, err := cil.Decode(data)
	if err != nil {
		return fmt.Errorf("%s: stream no longer decodes: %w", e.File, err)
	}
	strippedBytes := cil.Encode(mod.StripAnnotations())

	// The profile entries additionally pin the negotiation outcome of the
	// module-level profile annotation itself: the v1 stream must still be
	// consumable, the future stream must degrade to nil (run unprofiled),
	// and neither may error.
	switch e.Kernel {
	case ProfiledKernel:
		if anno.ProfileOf(mod) == nil {
			return fmt.Errorf("%s: v1 profile annotation no longer negotiates", e.File)
		}
	case ProfiledFutureKernel:
		if anno.ProfileOf(mod) != nil {
			return fmt.Errorf("%s: future profile annotation unexpectedly negotiated", e.File)
		}
	}

	for _, arch := range verifyTargets {
		tgt, err := target.Lookup(arch)
		if err != nil {
			return err
		}
		annotated, err := core.Deploy(data, tgt, jit.Options{RegAlloc: jit.RegAllocSplit})
		if err != nil {
			return fmt.Errorf("%s on %s: deploying with annotations: %w", e.File, arch, err)
		}
		online, err := core.Deploy(strippedBytes, tgt, jit.Options{RegAlloc: jit.RegAllocOnline})
		if err != nil {
			return fmt.Errorf("%s on %s: deploying online-only: %w", e.File, arch, err)
		}

		wantFallbacks := e.Kernel == SyntheticKernel || e.Kernel == ProfiledFutureKernel
		rep := annotated.Link.Report()
		if wantFallbacks && rep.Fallbacks == 0 {
			return fmt.Errorf("%s on %s: future annotation did not register a fallback", e.File, arch)
		}
		if !wantFallbacks && rep.Fallbacks != 0 {
			return fmt.Errorf("%s on %s: unexpected annotation fallbacks: %+v", e.File, arch, rep.Outcomes)
		}

		if e.Kernel == SyntheticKernel || e.Kernel == ProfiledKernel || e.Kernel == ProfiledFutureKernel {
			if err := compareScalarRun(annotated, online); err != nil {
				return fmt.Errorf("%s on %s: %w", e.File, arch, err)
			}
			continue
		}
		if err := compareKernelRun(e.Kernel, annotated, online); err != nil {
			return fmt.Errorf("%s on %s: %w", e.File, arch, err)
		}
	}
	return nil
}

func compareScalarRun(annotated, online *core.Deployment) error {
	const n = 37
	a, err := annotated.Run(SyntheticEntryPoint, sim.IntArg(n))
	if err != nil {
		return fmt.Errorf("running with annotations: %w", err)
	}
	b, err := online.Run(SyntheticEntryPoint, sim.IntArg(n))
	if err != nil {
		return fmt.Errorf("running online-only: %w", err)
	}
	if a.I != b.I || a.F != b.F {
		return fmt.Errorf("deploy results diverge: annotated %+v, online-only %+v", a, b)
	}
	return nil
}

func compareKernelRun(name string, annotated, online *core.Deployment) error {
	k, err := kernels.Get(name)
	if err != nil {
		return err
	}
	in, err := kernels.NewInputs(name, 512, 7)
	if err != nil {
		return err
	}
	a, err := annotated.RunKernel(k, in)
	if err != nil {
		return fmt.Errorf("running with annotations: %w", err)
	}
	b, err := online.RunKernel(k, in)
	if err != nil {
		return fmt.Errorf("running online-only: %w", err)
	}
	// Map kernels return void — their observable result is the output
	// arrays; only reductions have a meaningful scalar result.
	if k.Reduction && (a.Result.I != b.Result.I || a.Result.F != b.Result.F) {
		return fmt.Errorf("deploy results diverge: annotated %+v, online-only %+v", a.Result, b.Result)
	}
	if len(a.Outputs) != len(b.Outputs) {
		return fmt.Errorf("output array counts diverge: %d vs %d", len(a.Outputs), len(b.Outputs))
	}
	for i := range a.Outputs {
		if !bytes.Equal(a.Outputs[i].Data, b.Outputs[i].Data) {
			return fmt.Errorf("output array %d diverges between annotated and online-only deploys", i)
		}
	}
	return nil
}
