package harness

import (
	"fmt"
	"sort"
	"sync"

	"cawa/internal/core"
	"cawa/internal/stats"
)

// Experiment regenerates one of the paper's tables or figures.
type Experiment struct {
	// ID is the experiment key (e.g. "fig9", "tab1").
	ID string
	// Title summarizes what the paper's figure/table shows.
	Title string
	// Requests declares the experiment's run matrix: every cacheable
	// (app, design point) cell Run will consult. RunExperiment prewarms
	// the matrix across the session's worker pool before table
	// construction; nil means the experiment has no cacheable matrix
	// (or manages its own fan-out of hooked runs).
	Requests func(s *Session) []RunKey
	// Run produces the table. Table construction is sequential and
	// deterministic; all simulation fan-out happens in Requests or
	// through Session.Fanout.
	Run func(s *Session) (*Table, error)
}

var experiments = map[string]*Experiment{}

func registerExp(id, title string, run func(s *Session) (*Table, error)) {
	registerExpReq(id, title, nil, run)
}

// registerExpReq registers an experiment together with its declared run
// matrix.
func registerExpReq(id, title string, requests func(s *Session) []RunKey, run func(s *Session) (*Table, error)) {
	if _, dup := experiments[id]; dup {
		panic(fmt.Sprintf("harness: duplicate experiment %q", id))
	}
	experiments[id] = &Experiment{ID: id, Title: title, Requests: requests, Run: run}
}

// LookupExperiment returns the experiment registered under id.
func LookupExperiment(id string) (*Experiment, bool) {
	e, ok := experiments[id]
	return e, ok
}

// ExperimentIDs lists all experiment ids, sorted.
func ExperimentIDs() []string {
	out := make([]string, 0, len(experiments))
	for id := range experiments {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// RunExperiment runs the experiment by id against the session: its run
// matrix simulates in parallel across the session's workers, then the
// table builds sequentially from the cached results.
func RunExperiment(id string, s *Session) (*Table, error) {
	if err := PrewarmExperiments(s, []string{id}); err != nil {
		return nil, err
	}
	return experiments[id].Run(s)
}

// PrewarmExperiments collects the run matrices of the named experiments
// (gathering concurrently — a Requests func may itself simulate
// prerequisite runs) and simulates the union across the session's
// worker pool. Drivers covering several experiments (cawabench
// -exp all) call it once so independent simulations from different
// figures share the pool instead of parallelizing only within each
// figure.
func PrewarmExperiments(s *Session, ids []string) error {
	exps := make([]*Experiment, len(ids))
	for i, id := range ids {
		e, ok := LookupExperiment(id)
		if !ok {
			return fmt.Errorf("harness: unknown experiment %q (have %v)", id, ExperimentIDs())
		}
		exps[i] = e
	}
	var mu sync.Mutex
	var keys []RunKey
	err := s.Fanout(len(exps), func(i int) error {
		if exps[i].Requests == nil {
			return nil
		}
		ks := exps[i].Requests(s)
		mu.Lock()
		keys = append(keys, ks...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	return s.Prewarm(keys)
}

// grid declares one applications × design points figure: which apps
// form the rows, which design points the columns, what is read from each
// run, what it is divided by, and which summary rows close the table.
// One builder (table) renders it and one function (requests) derives the
// run matrix from the same declaration, so the two cannot disagree.
type grid struct {
	id    string
	title string // registry title
	// caption is the rendered table's title.
	caption string
	// sens restricts the rows to the Sens applications (default: the
	// session's whole application set).
	sens bool
	cols []gridCol
	// metric reads one run's cell value.
	metric func(r *Result) float64
	// norm, when non-nil, is the design point every cell is divided by
	// (the same metric of the same app on norm).
	norm *core.SystemConfig
	// summaries are the geometric-mean rows appended after the apps.
	summaries []gridSummary
	// transposed, when non-empty, renders one row per design point
	// holding its geometric mean over the apps (the ablation tables) and
	// names that table's label column.
	transposed string
}

// gridCol is one design point of a grid and its table label.
type gridCol struct {
	label string
	sc    core.SystemConfig
	// perApp, when non-nil, derives the design point from the app (the
	// oracle scheduler needs each app's baseline profile).
	perApp func(s *Session, app string) (core.SystemConfig, error)
}

// gridSummary is one geometric-mean row over the apps (sensOnly: over
// the Sens apps among them).
type gridSummary struct {
	label    string
	sensOnly bool
}

var (
	rrSystem  = core.Baseline()
	gtoSystem = core.SystemConfig{Scheduler: "gto"}

	ipc  = func(r *Result) float64 { return r.Agg.IPC() }
	mpki = func(r *Result) float64 { return r.Agg.MPKI() }

	gmeanRow = []gridSummary{{label: "GMEAN"}}
)

func registerGrid(g *grid) { registerExpReq(g.id, g.title, g.requests, g.table) }

func (g *grid) apps(s *Session) []string {
	if g.sens {
		return s.sensApps()
	}
	return s.paperApps()
}

func (c *gridCol) design(s *Session, app string) (core.SystemConfig, error) {
	if c.perApp != nil {
		return c.perApp(s, app)
	}
	return c.sc, nil
}

// requests derives the run matrix: for every app, the normaliser's cell
// and then each column's. Cells resolve concurrently because a per-app
// design may itself simulate a prerequisite run.
func (g *grid) requests(s *Session) []RunKey {
	designs := g.cols
	if g.norm != nil {
		designs = append([]gridCol{{sc: *g.norm}}, g.cols...)
	}
	apps, n := g.apps(s), len(designs)
	keys := make([]RunKey, len(apps)*n)
	err := s.Fanout(len(keys), func(i int) error {
		sc, err := designs[i%n].design(s, apps[i/n])
		keys[i] = RunKey{App: apps[i/n], System: sc}
		return err
	})
	if err != nil {
		return nil // the error resurfaces in table's sequential pass
	}
	return keys
}

// cell evaluates one (app, column) value.
func (g *grid) cell(s *Session, app string, c *gridCol) (float64, error) {
	sc, err := c.design(s, app)
	if err != nil {
		return 0, err
	}
	r, err := s.Run(app, sc)
	if err != nil {
		return 0, err
	}
	v := g.metric(r)
	if g.norm != nil {
		base, err := s.Run(app, *g.norm)
		if err != nil {
			return 0, err
		}
		b := g.metric(base)
		if b == 0 {
			b = 1e-9
		}
		v /= b
	}
	return v, nil
}

// values evaluates every cell from (cached) runs: vals[app][column].
func (g *grid) values(s *Session) ([][]float64, error) {
	apps := g.apps(s)
	vals := make([][]float64, len(apps))
	for i, app := range apps {
		for j := range g.cols {
			v, err := g.cell(s, app, &g.cols[j])
			if err != nil {
				return nil, err
			}
			vals[i] = append(vals[i], v)
		}
	}
	return vals, nil
}

// gmeans is each column's geometric mean over the apps (sensOnly: over
// the Sens apps among them).
func (g *grid) gmeans(s *Session, vals [][]float64, sensOnly bool) []float64 {
	apps, out := g.apps(s), make([]float64, len(g.cols))
	for j := range g.cols {
		var xs []float64
		for i, app := range apps {
			if !sensOnly || isSens(app) {
				xs = append(xs, vals[i][j])
			}
		}
		out[j] = stats.GeoMean(xs)
	}
	return out
}

// table builds the figure.
func (g *grid) table(s *Session) (*Table, error) {
	vals, err := g.values(s)
	if err != nil {
		return nil, err
	}
	if g.transposed != "" {
		t := NewTable(g.id, g.caption, g.transposed, "gmean_speedup")
		for j, gm := range g.gmeans(s, vals, false) {
			t.AddRow(g.cols[j].label, gm)
		}
		return t, nil
	}
	header := []string{"app"}
	for _, c := range g.cols {
		header = append(header, c.label)
	}
	t := NewTable(g.id, g.caption, header...)
	for i, app := range g.apps(s) {
		t.AddRow(app, vals[i]...)
	}
	for _, sum := range g.summaries {
		t.AddRow(sum.label, g.gmeans(s, vals, sum.sensOnly)...)
	}
	return t, nil
}
