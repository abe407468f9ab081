// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§5) against the synthetic dataset
// stand-ins, printing rows comparable to the paper's plots. Each FigN /
// TableN function is wired to both a cmd/mbibench subcommand and a
// testing.B benchmark in the repository root.
//
// Methodology follows §5.1.3 and §5.2: queries are held-out vectors with
// windows sampled to cover a target fraction of the data; SF and MBI sweep
// the range-extension factor ε from 1.00 to 1.40 in steps of 0.02 and
// report the fastest configuration whose recall@k reaches the target
// (0.995 in the paper); BSBF is exact so it reports plain QPS.
package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"time"

	"repro/internal/bsbf"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/nndescent"
	"repro/internal/sf"
	"repro/internal/theap"
)

// Config controls experiment scale. The zero value is unusable; start
// from DefaultConfig.
type Config struct {
	// Scale multiplies every profile's train/test sizes (and leaf size).
	// 1.0 is the laptop-scale default documented in DESIGN.md.
	Scale float64
	// Seed drives data generation, index builds, and query sampling.
	Seed int64
	// RecallTarget is the recall@k a configuration must reach before its
	// QPS is reported (the paper uses 0.995).
	RecallTarget float64
	// EpsMin, EpsMax, EpsStep define the ε sweep (paper: 1.00–1.40 by 0.02).
	EpsMin, EpsMax, EpsStep float64
	// EpsHardMax extends the sweep past EpsMax when the recall target is
	// not reached within the paper's range — the synthetic stand-ins are
	// occasionally harder than the real datasets at matched ε. Points
	// that needed the extension are marked in the output.
	EpsHardMax float64
	// Fractions are the query-window sizes as fractions of the data
	// (paper sweeps 1%–95%).
	Fractions []float64
	// Ks are the TkNN result counts (paper: 10, 50, 100).
	Ks []int
	// QueriesPerPoint bounds how many held-out queries measure each
	// (fraction, k) point.
	QueriesPerPoint int
	// Workers parallelizes ground-truth computation and MBI block builds.
	Workers int
}

// DefaultConfig returns the configuration used by `mbibench` without
// flags: full fraction sweep at scale 1.
func DefaultConfig() Config {
	return Config{
		Scale:           1.0,
		Seed:            1,
		RecallTarget:    0.995,
		EpsMin:          1.0,
		EpsMax:          1.4,
		EpsStep:         0.02,
		EpsHardMax:      2.4,
		Fractions:       []float64{0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95},
		Ks:              []int{10, 50, 100},
		QueriesPerPoint: 100,
		Workers:         1,
	}
}

// QuickConfig returns a configuration small enough for smoke tests and
// `go test -bench`.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Scale = 0.12
	c.Fractions = []float64{0.02, 0.3, 0.9}
	c.Ks = []int{10}
	c.QueriesPerPoint = 40
	return c
}

// Method is one competitor in the experiments: MBI, BSBF, or SF.
type Method interface {
	// Name identifies the method in output rows.
	Name() string
	// Build indexes the full training set, returning the wall-clock
	// build time.
	Build(d *dataset.Data) time.Duration
	// Query answers one TkNN query with range-extension factor eps and
	// reports the distance evaluations its executed subtasks computed
	// (exec.Outcome.DistEvals; IVF's plan-time centroid ranking is not
	// among them). BSBF ignores eps (it is exact).
	Query(q dataset.Query, eps float64, rng *rand.Rand) ([]theap.Neighbor, int)
	// Exact reports whether results are exact (skips the ε sweep).
	Exact() bool
}

// --- BSBF -------------------------------------------------------------

type bsbfMethod struct {
	ix  *bsbf.Index
	scr *exec.Scratch // Query's per-method scratch, set by Build
}

// NewBSBF returns the Binary-Search-and-Brute-Force baseline method.
func NewBSBF() Method { return &bsbfMethod{} }

func (m *bsbfMethod) Name() string { return "BSBF" }
func (m *bsbfMethod) Exact() bool  { return true }

func (m *bsbfMethod) Build(d *dataset.Data) time.Duration {
	start := time.Now()
	ix, err := bsbf.FromData(d.Train, d.Times, d.Profile.Metric)
	if err != nil {
		panic(fmt.Sprintf("bench: bsbf build: %v", err))
	}
	m.ix, m.scr = ix, exec.NewScratch()
	return time.Since(start)
}

func (m *bsbfMethod) Query(q dataset.Query, _ float64, _ *rand.Rand) ([]theap.Neighbor, int) {
	return answer(m.ix.Query(context.Background(), m.scr, q.W, q.K, q.Ts, q.Te))
}

// --- SF ----------------------------------------------------------------

// SFMethod is the Search-and-Filtering competitor.
type SFMethod struct {
	profile dataset.Profile
	seed    int64
	ix      *sf.Index
	scr     *exec.Scratch // Query's per-method scratch, set by Build
}

// NewSF returns the Search-and-Filtering baseline method with the
// profile's graph parameters.
func NewSF(p dataset.Profile, seed int64) *SFMethod {
	return &SFMethod{profile: p, seed: seed}
}

// Name implements Method.
func (m *SFMethod) Name() string { return "SF" }

// Exact implements Method.
func (m *SFMethod) Exact() bool { return false }

// Build implements Method; the reported duration covers graph
// construction only (appends are raw data loading for SF).
func (m *SFMethod) Build(d *dataset.Data) time.Duration {
	builder := nndescent.MustNew(nndescent.DefaultConfig(m.profile.GraphK))
	ix := sf.New(m.profile.Dim, m.profile.Metric, builder)
	for i := 0; i < d.Train.Len(); i++ {
		if err := ix.Append(d.Train.At(i), d.Times[i]); err != nil {
			panic(fmt.Sprintf("bench: sf append: %v", err))
		}
	}
	start := time.Now()
	ix.BuildGraph(m.seed)
	elapsed := time.Since(start)
	m.ix, m.scr = ix, exec.NewScratch()
	return elapsed
}

// Query implements Method; rng draws the walk's random entry vertex
// (Algorithm 2 line 1), as sf.Index.Search does.
func (m *SFMethod) Query(q dataset.Query, eps float64, rng *rand.Rand) ([]theap.Neighbor, int) {
	p := graph.SearchParams{MC: effMC(m.profile.MC, q.K), Eps: float32(eps)}
	var entry int32
	if built := m.ix.Built(); built > 0 {
		entry = graph.RandomEntry(rng, built)
	}
	return answer(m.ix.Query(context.Background(), m.scr, q.W, q.K, q.Ts, q.Te, p, entry))
}

// effMC widens the candidate cap for large k: a frontier smaller than the
// result set cannot assemble k good answers. The paper handles this by
// grid-searching M_C per dataset with M_C >= k (Table 3); scaling with k
// is the equivalent rule at this repository's sizes.
func effMC(mc, k int) int {
	if floor := 3 * k; mc < floor {
		return floor
	}
	return mc
}

// Index exposes the built SF index (for size measurement).
func (m *SFMethod) Index() *sf.Index { return m.ix }

// --- MBI ---------------------------------------------------------------

type mbiMethod struct {
	profile dataset.Profile
	seed    int64
	tau     float64
	workers int
	ix      *core.Index
	scr     *core.Scratch // Query's per-method scratch, set by Build
}

// NewMBI returns the paper's method with the profile's Table 3 parameters.
func NewMBI(p dataset.Profile, seed int64, workers int) *MBIMethod {
	return &MBIMethod{mbiMethod{
		profile: p,
		seed:    seed,
		tau:     p.Tau,
		workers: workers,
	}}
}

// MBIMethod is the exported MBI competitor; it carries extra knobs the
// parameter-sweep experiments (Figures 8 and 9) need.
type MBIMethod struct {
	mbiMethod
}

func (m *MBIMethod) Name() string { return "MBI" }
func (m *MBIMethod) Exact() bool  { return false }

// SetTau overrides the block-selection threshold (Figure 9).
func (m *MBIMethod) SetTau(tau float64) { m.tau = tau }

// SetLeafSize overrides S_L (Figure 8). Must be called before Build.
func (m *MBIMethod) SetLeafSize(sl int) { m.profile.LeafSize = sl }

// Build implements Method.
func (m *MBIMethod) Build(d *dataset.Data) time.Duration {
	ix, err := core.New(core.Options{
		Dim:      m.profile.Dim,
		Metric:   m.profile.Metric,
		LeafSize: m.profile.LeafSize,
		Tau:      m.tau,
		Builder:  nndescent.MustNew(nndescent.DefaultConfig(m.profile.GraphK)),
		Search:   graph.SearchParams{MC: m.profile.MC, Eps: 1.1},
		Workers:  m.workers,
		Seed:     m.seed,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: mbi: %v", err))
	}
	start := time.Now()
	for i := 0; i < d.Train.Len(); i++ {
		if err := ix.Append(d.Train.At(i), d.Times[i]); err != nil {
			panic(fmt.Sprintf("bench: mbi append: %v", err))
		}
	}
	elapsed := time.Since(start)
	m.ix, m.scr = ix, core.NewScratch()
	return elapsed
}

// Query implements Method; tau is whatever SetTau last set (a pure
// query-time parameter, so Figure 9 sweeps it on one built index).
func (m *MBIMethod) Query(q dataset.Query, eps float64, rng *rand.Rand) ([]theap.Neighbor, int) {
	p := graph.SearchParams{MC: effMC(m.profile.MC, q.K), Eps: float32(eps)}
	return mbiQuery(m.ix, m.scr, core.Request{Q: q.W, K: q.K, Ts: q.Ts, Te: q.Te, Tau: m.tau, Params: p, Rng: rng})
}

// mbiQuery answers req on scr; see answer.
func mbiQuery(ix *core.Index, scr *core.Scratch, req core.Request) ([]theap.Neighbor, int) {
	return answer(ix.Query(context.Background(), scr, req))
}

// answer returns a copy of a query's neighbors and its distance
// evaluations: the experiments keep every answer to score recall, and the
// scratch's next query would overwrite an aliased one.
func answer(res []theap.Neighbor, out exec.Outcome) ([]theap.Neighbor, int) {
	return slices.Clone(res), out.DistEvals
}

// Index exposes the built MBI index (for size measurement and τ sweeps).
func (m *MBIMethod) Index() *core.Index { return m.ix }

// --- measurement primitives ---------------------------------------------

// Point is one measured (recall, QPS) operating point. DistEvals, the
// mean distance evaluations per query, is its clock-free cost: it does not
// move with the machine's load.
type Point struct {
	Eps       float64
	Recall    float64
	QPS       float64
	DistEvals float64
}

// measure runs all queries at one ε and returns recall, QPS and evals.
func measure(m Method, qs []dataset.Query, gt [][]theap.Neighbor, eps float64, seed int64) Point {
	rng := rand.New(rand.NewSource(seed))
	answers := make([][]theap.Neighbor, len(qs))
	evals := 0
	start := time.Now()
	for i, q := range qs {
		var n int
		answers[i], n = m.Query(q, eps, rng)
		evals += n
	}
	elapsed := time.Since(start)
	var recall float64
	for i := range qs {
		recall += dataset.Recall(answers[i], gt[i], qs[i].K)
	}
	recall /= float64(len(qs))
	return Point{Eps: eps, Recall: recall, QPS: float64(len(qs)) / elapsed.Seconds(), DistEvals: float64(evals) / float64(len(qs))}
}

// Operating is the result of tuning one method at one workload point.
type Operating struct {
	Point
	// Reached reports whether the recall target was attained within the
	// ε sweep; when false, Point is the highest-recall configuration.
	Reached bool
	// Extended reports that the target needed an ε beyond the paper's
	// sweep range (see Config.EpsHardMax).
	Extended bool
}

// qpsAtRecall sweeps ε upward (the paper's grid) and returns the first
// configuration reaching the recall target — the fastest one, since QPS
// decreases with ε. Exact methods return their single operating point.
func qpsAtRecall(c Config, m Method, qs []dataset.Query, gt [][]theap.Neighbor) Operating {
	if m.Exact() {
		p := measure(m, qs, gt, 1.0, c.Seed)
		return Operating{Point: p, Reached: p.Recall >= c.RecallTarget}
	}
	hard := c.EpsHardMax
	if hard < c.EpsMax {
		hard = c.EpsMax
	}
	best := Point{Recall: -1}
	for eps := c.EpsMin; eps <= hard+1e-9; eps += c.EpsStep {
		p := measure(m, qs, gt, eps, c.Seed)
		if p.Recall >= c.RecallTarget {
			return Operating{Point: p, Reached: true, Extended: eps > c.EpsMax+1e-9}
		}
		if p.Recall > best.Recall {
			best = p
		}
	}
	return Operating{Point: best, Reached: false}
}

// pareto measures the full ε sweep and returns the Pareto frontier of
// (recall, QPS) points — for each recall level the fastest configuration
// (Figure 6's curves).
func pareto(c Config, m Method, qs []dataset.Query, gt [][]theap.Neighbor) []Point {
	var pts []Point
	if m.Exact() {
		return []Point{measure(m, qs, gt, 1.0, c.Seed)}
	}
	for eps := c.EpsMin; eps <= c.EpsMax+1e-9; eps += c.EpsStep {
		pts = append(pts, measure(m, qs, gt, eps, c.Seed))
	}
	// Keep points not dominated by any other (higher recall and higher QPS).
	var frontier []Point
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i != j && q.Recall >= p.Recall && q.QPS > p.QPS {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, p)
		}
	}
	return frontier
}

// genData generates the scaled workload for a profile.
func genData(c Config, p dataset.Profile) *dataset.Data {
	scaled := p.Scale(c.Scale)
	return dataset.Generate(scaled, c.Seed)
}

// queriesAndTruth samples queries at a window fraction, limited to
// c.QueriesPerPoint, with exact ground truth.
func queriesAndTruth(c Config, d *dataset.Data, k int, frac float64) ([]dataset.Query, [][]theap.Neighbor) {
	rng := rand.New(rand.NewSource(c.Seed + int64(frac*1e6) + int64(k)))
	qs := dataset.MakeQueries(rng, d, k, frac)
	if len(qs) > c.QueriesPerPoint {
		qs = qs[:c.QueriesPerPoint]
	}
	gt := dataset.GroundTruth(d.Train, d.Times, d.Profile.Metric, qs, c.Workers)
	return qs, gt
}

// header prints an experiment banner.
func header(w io.Writer, title, detail string) {
	fmt.Fprintf(w, "\n=== %s ===\n%s\n\n", title, detail)
}

// flag marks operating points that missed the recall target or needed an
// ε beyond the paper's sweep.
func flag(o Operating) string {
	switch {
	case o.Reached && !o.Extended:
		return ""
	case o.Reached:
		return fmt.Sprintf(" [eps %.2f > paper range]", o.Eps)
	default:
		return fmt.Sprintf(" (best recall %.3f < target)", o.Recall)
	}
}
