package bench

import (
	"context"

	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/kernels"
	"repro/internal/target"
)

// Figure1Row quantifies the split-compilation flow of Figure 1 for one
// kernel: how much analysis work the offline step absorbs, how many bytes of
// annotations carry its results across the distribution boundary, and how
// much cheaper the online (JIT) step becomes when it can rely on them.
type Figure1Row struct {
	Kernel string

	// Offline side.
	OfflineSteps    int64 // vectorization legality + register allocation analysis + lowering
	AnnotationBytes int
	EncodedBytes    int

	// Online side (JIT compile effort, in elementary steps, on the x86
	// target).
	JITStepsWithAnnotations    int64 // split mode: trusts the annotations
	JITStepsWithoutAnnotations int64 // must recompute allocation quality online
	OnlineSavings              float64
}

// Figure1Report is the quantified version of the paper's Figure 1.
type Figure1Report struct {
	Rows []Figure1Row
}

// RunFigure1 measures, for every Table 1 kernel, the distribution of
// optimization effort between the offline and online compilation steps,
// with and without the coordinating annotations.
func RunFigure1() (*Figure1Report, error) {
	tgt := target.MustLookup(target.X86SSE)
	report := &Figure1Report{}
	for _, name := range kernels.Table1Names {
		annotated, _, err := core.CompileKernel(name, core.OfflineOptions{})
		if err != nil {
			return nil, err
		}
		stripped, _, err := core.CompileKernel(name, core.OfflineOptions{DisableAnnotations: true, DisableRegAllocAnnotations: true})
		if err != nil {
			return nil, err
		}

		// Online step with annotations: the split allocator follows the
		// offline priority order (linear time).
		withAnn, err := core.Deploy(annotated.Encoded, tgt, jit.Options{RegAlloc: jit.RegAllocSplit})
		if err != nil {
			return nil, err
		}
		// Online step without annotations: to reach comparable code quality
		// the JIT has to recompute weights and interference itself.
		withoutAnn, err := core.Deploy(stripped.Encoded, tgt, jit.Options{RegAlloc: jit.RegAllocOptimal})
		if err != nil {
			return nil, err
		}
		// The JIT-step comparison measures the produced code, so a lazy
		// deployment (SPLITVM_LAZY) must materialize it all first.
		if err := withAnn.EnsureCompiled(context.Background()); err != nil {
			return nil, err
		}
		if err := withoutAnn.EnsureCompiled(context.Background()); err != nil {
			return nil, err
		}

		row := Figure1Row{
			Kernel:                     name,
			OfflineSteps:               annotated.OfflineSteps,
			AnnotationBytes:            annotated.AnnotationBytes,
			EncodedBytes:               len(annotated.Encoded),
			JITStepsWithAnnotations:    withAnn.Link.Summary().JITSteps,
			JITStepsWithoutAnnotations: withoutAnn.Link.Summary().JITSteps,
		}
		if row.JITStepsWithoutAnnotations > 0 {
			row.OnlineSavings = 1 - float64(row.JITStepsWithAnnotations)/float64(row.JITStepsWithoutAnnotations)
		}
		report.Rows = append(report.Rows, row)
	}
	return report, nil
}

// String renders the report.
func (r *Figure1Report) String() string {
	var b strings.Builder
	b.WriteString("Figure 1: split compilation flow — offline analyses feed annotation-driven online steps\n")
	b.WriteString("(JIT effort measured on the x86+SSE target, in elementary compilation steps)\n\n")
	fmt.Fprintf(&b, "%-12s %14s %12s %12s %18s %20s %10s\n",
		"kernel", "offline steps", "annot bytes", "module bytes", "JIT w/ annot", "JIT w/o annot", "saved")
	b.WriteString(strings.Repeat("-", 104) + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %14d %12d %12d %18d %20d %9.0f%%\n",
			row.Kernel, row.OfflineSteps, row.AnnotationBytes, row.EncodedBytes,
			row.JITStepsWithAnnotations, row.JITStepsWithoutAnnotations, row.OnlineSavings*100)
	}
	return b.String()
}
