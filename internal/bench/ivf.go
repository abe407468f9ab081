package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/ivf"
	"repro/internal/theap"
)

// IVFMethod adapts the inverted-file index to the Method interface. Its
// accuracy knob is nprobe (how many inverted lists a query scans), not ε;
// the harness's sweep variable maps onto it linearly so the same
// qpsAtRecall machinery tunes both families:
//
//	eps = EpsMin        -> nprobe = 1
//	eps = EpsHardMax    -> nprobe = Lists (exact)
type IVFMethod struct {
	profile dataset.Profile
	seed    int64
	sweepLo float64
	sweepHi float64
	ix      *ivf.Index
	scr     *exec.Scratch // Query's per-method scratch, set by Build
}

// NewIVF returns the IVF comparator. sweepLo/sweepHi must match the
// config's EpsMin and EpsHardMax so the probe mapping spans 1..Lists.
func NewIVF(p dataset.Profile, seed int64, sweepLo, sweepHi float64) *IVFMethod {
	return &IVFMethod{profile: p, seed: seed, sweepLo: sweepLo, sweepHi: sweepHi}
}

// Name implements Method.
func (m *IVFMethod) Name() string { return "IVF" }

// Exact implements Method.
func (m *IVFMethod) Exact() bool { return false }

// Build implements Method; the duration covers k-means clustering and
// list assignment.
func (m *IVFMethod) Build(d *dataset.Data) time.Duration {
	ix := ivf.New(m.profile.Dim, m.profile.Metric, ivf.Config{})
	for i := 0; i < d.Train.Len(); i++ {
		if err := ix.Append(d.Train.At(i), d.Times[i]); err != nil {
			panic(fmt.Sprintf("bench: ivf append: %v", err))
		}
	}
	start := time.Now()
	if err := ix.Build(m.seed); err != nil {
		panic(fmt.Sprintf("bench: ivf build: %v", err))
	}
	elapsed := time.Since(start)
	m.ix, m.scr = ix, exec.NewScratch()
	return elapsed
}

// Query implements Method, translating the sweep variable to nprobe.
func (m *IVFMethod) Query(q dataset.Query, eps float64, _ *rand.Rand) ([]theap.Neighbor, int) {
	return answer(m.ix.Query(context.Background(), m.scr, q.W, q.K, q.Ts, q.Te, m.nprobe(eps)))
}

func (m *IVFMethod) nprobe(eps float64) int {
	lists := m.ix.Lists()
	if lists == 0 {
		return 1
	}
	span := m.sweepHi - m.sweepLo
	if span <= 0 {
		return lists
	}
	frac := (eps - m.sweepLo) / span
	np := 1 + int(frac*float64(lists-1)+0.5)
	if np < 1 {
		np = 1
	}
	if np > lists {
		np = lists
	}
	return np
}

// IVFRow is one window-fraction measurement of the IVF experiment.
type IVFRow struct {
	Profile  string
	Fraction float64
	IVFBuild time.Duration
	SFBuild  time.Duration
	IVF      Operating
	SF       Operating
	MBI      Operating
}

// IVFExperiment compares the quantization family (IVF-Flat with native
// time-window lists) against the graph family (SF) and MBI, extending the
// paper's graph-only evaluation. IVF's per-list time windows make short
// windows cheap, like BSBF — but probing too few lists caps recall, which
// is where MBI's per-era graphs win.
func IVFExperiment(c Config, profiles []dataset.Profile, w io.Writer) []IVFRow {
	header(w, "IVF experiment — quantization-family comparator",
		fmt.Sprintf("QPS at recall@10 >= %.3f; IVF nprobe vs SF/MBI eps tuned by the same sweep", c.RecallTarget))
	hard := c.EpsHardMax
	if hard < c.EpsMax {
		hard = c.EpsMax
	}
	const k = 10
	var rows []IVFRow
	for _, p := range profiles {
		d := genData(c, p)
		scaled := d.Profile
		ivfm := NewIVF(scaled, c.Seed, c.EpsMin, hard)
		ivfBuild := ivfm.Build(d)
		sfm := NewSF(scaled, c.Seed)
		sfBuild := sfm.Build(d)
		mbi := NewMBI(scaled, c.Seed, c.Workers)
		mbi.Build(d)

		fmt.Fprintf(w, "%s (n=%d, %d lists; IVF build %s, SF build %s)\n",
			p.Name, d.Train.Len(), ivfm.ix.Lists(), ivfBuild.Round(time.Millisecond), sfBuild.Round(time.Millisecond))
		fmt.Fprintf(w, "%8s | %12s %12s %12s\n", "window", "IVF qps", "SF qps", "MBI qps")
		for _, frac := range c.Fractions {
			qs, gt := queriesAndTruth(c, d, k, frac)
			row := IVFRow{Profile: p.Name, Fraction: frac, IVFBuild: ivfBuild, SFBuild: sfBuild}
			row.IVF = qpsAtRecall(c, ivfm, qs, gt)
			row.SF = qpsAtRecall(c, sfm, qs, gt)
			row.MBI = qpsAtRecall(c, mbi, qs, gt)
			rows = append(rows, row)
			fmt.Fprintf(w, "%7.0f%% | %12.0f%s %12.0f%s %12.0f%s\n",
				frac*100, row.IVF.QPS, flag(row.IVF), row.SF.QPS, flag(row.SF), row.MBI.QPS, flag(row.MBI))
		}
		fmt.Fprintln(w)
	}
	return rows
}
