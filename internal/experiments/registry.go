package experiments

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/stats"
)

// Tool names group experiments by the command that historically owned
// them: reactsim runs the Chapter 3 protocol-selection matrix (plus the
// reactive-barrier extension), waitsim the Chapter 4 waiting-algorithm
// matrix.
const (
	ToolReactsim = "reactsim"
	ToolWaitsim  = "waitsim"
)

// ProfilesExperiment is the registry name of the waiting-time-profiles
// experiment; waitsim -hist reuses its seed so the printed histograms
// match the summary table.
const ProfilesExperiment = "fig4.6-11-profiles"

// Spec describes one experiment in the evaluation matrix: a unique name,
// the paper artifact it regenerates, the group aliases it answers to on
// the command line, and a run function producing the artifact's table.
// Each run builds its own simulated machines (seeded from the Sizes it
// receives), so any subset of specs can execute concurrently.
type Spec struct {
	Name   string                   // unique, e.g. "fig3.15-spinlocks"
	Figure string                   // paper artifact tag, e.g. "Figure 3.15"
	Title  string                   // table caption printed above the output
	Tool   string                   // ToolReactsim or ToolWaitsim
	Groups []string                 // command-line aliases selecting this spec
	Run    func(Sizes) *stats.Table // executes the experiment
}

// Registry maps experiment names (and group aliases) to specs, in
// registration order.
type Registry struct {
	specs  []Spec
	byName map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// Register adds a spec. It panics on a duplicate or empty name, a name
// colliding with a group alias, or a missing run function — registration
// happens at init time, so a panic is a programming error caught by any
// test that touches the package.
func (r *Registry) Register(s Spec) {
	if s.Name == "" || s.Run == nil {
		panic("experiments: Register needs a name and a run function")
	}
	if _, dup := r.byName[s.Name]; dup {
		panic("experiments: duplicate experiment " + s.Name)
	}
	for _, existing := range r.specs {
		for _, g := range existing.Groups {
			if g == s.Name {
				panic("experiments: experiment name " + s.Name + " collides with a group alias")
			}
		}
	}
	for _, g := range s.Groups {
		if _, isName := r.byName[g]; isName || g == s.Name {
			panic("experiments: group alias " + g + " collides with an experiment name")
		}
	}
	r.byName[s.Name] = len(r.specs)
	r.specs = append(r.specs, s)
}

// Specs returns all registered specs in registration order.
func (r *Registry) Specs() []Spec {
	return append([]Spec(nil), r.specs...)
}

// Names returns all experiment names in registration order.
func (r *Registry) Names() []string {
	names := make([]string, len(r.specs))
	for i, s := range r.specs {
		names[i] = s.Name
	}
	return names
}

// Lookup returns the spec with the given name.
func (r *Registry) Lookup(name string) (Spec, bool) {
	i, ok := r.byName[name]
	if !ok {
		return Spec{}, false
	}
	return r.specs[i], true
}

// Select resolves a command-line experiment expression against the
// registry: "all" selects every spec for the tool ("" matches all
// tools); otherwise the expression is a comma-separated list of
// experiment names and group aliases. The result preserves registration
// order and contains no duplicates.
func (r *Registry) Select(tool, expr string) ([]Spec, error) {
	want := make(map[int]struct{})
	matchTool := func(s Spec) bool { return tool == "" || s.Tool == tool }
	for _, term := range strings.Split(expr, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		matched := false
		if term == "all" {
			for i, s := range r.specs {
				if matchTool(s) {
					want[i] = struct{}{}
					matched = true
				}
			}
		} else if i, ok := r.byName[term]; ok && matchTool(r.specs[i]) {
			want[i] = struct{}{}
			matched = true
		} else {
			for i, s := range r.specs {
				if !matchTool(s) {
					continue
				}
				for _, g := range s.Groups {
					if g == term {
						want[i] = struct{}{}
						matched = true
					}
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("unknown experiment %q (try -list)", term)
		}
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("empty experiment selection %q", expr)
	}
	var out []Spec
	for i, s := range r.specs {
		if _, ok := want[i]; ok {
			out = append(out, s)
		}
	}
	return out, nil
}

// ExperimentSeed derives the deterministic machine seed for one
// experiment from the matrix base seed and the experiment name. The
// derivation depends only on the name — never on execution order — so
// serial and parallel runs of any subset produce identical tables.
func ExperimentSeed(base uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return base ^ h.Sum64()
}

// Default is the full evaluation matrix: every table and figure the
// thesis's evaluation sections plot, plus the repository's extensions.
var Default = func() *Registry {
	r := NewRegistry()

	// Chapter 3: protocol selection (reactsim).
	r.Register(Spec{
		Name: "fig3.15-spinlocks", Figure: "Figure 3.15", Tool: ToolReactsim,
		Title:  "Figure 3.15 (spin locks): overhead cycles per critical section",
		Groups: []string{"baseline"},
		Run:    Fig3_15SpinLocks,
	})
	r.Register(Spec{
		Name: "fig3.15-fetchop", Figure: "Figure 3.15", Tool: ToolReactsim,
		Title:  "Figure 3.15 (fetch-and-op): overhead cycles per operation",
		Groups: []string{"baseline"},
		Run:    Fig3_15FetchOp,
	})
	r.Register(Spec{
		Name: "fig3.16-prototype", Figure: "Figure 3.16", Tool: ToolReactsim,
		Title:  "Figure 3.16: spin locks on the 16-processor machine",
		Groups: []string{"prototype"},
		Run:    Fig3_16Prototype,
	})
	r.Register(Spec{
		Name: "fig3.2-dirnnb", Figure: "Figure 3.2", Tool: ToolReactsim,
		Title:  "Figure 3.2 ablation: LimitLESS vs full-map (DirNNB) directory",
		Groups: []string{"dirnnb"},
		Run:    Fig3_2DirNNB,
	})
	r.Register(Spec{
		Name: "fig3.14-adversary", Figure: "Figure 3.14", Tool: ToolReactsim,
		Title:  "Figure 3.14: adversarial requests vs the 3-competitive bound",
		Groups: []string{"competitive"},
		Run:    Fig3_14CompetitiveAdversary,
	})
	r.Register(Spec{
		Name: "fig3.17-multilock", Figure: "Figures 3.17-3.19", Tool: ToolReactsim,
		Title:  "Figures 3.17-3.19: multiple-lock test (normalized to simulated optimal)",
		Groups: []string{"multilock"},
		Run:    Fig3_17MultipleLocks,
	})
	r.Register(Spec{
		Name: "fig3.21-timevary", Figure: "Figure 3.21", Tool: ToolReactsim,
		Title:  "Figure 3.21: time-varying contention (normalized to MCS)",
		Groups: []string{"timevary"},
		Run:    Fig3_21TimeVarying,
	})
	r.Register(Spec{
		Name: "fig3.22-competitive", Figure: "Figure 3.22", Tool: ToolReactsim,
		Title:  "Figure 3.22: 3-competitive switching policy (normalized to MCS)",
		Groups: []string{"competitive"},
		Run:    Fig3_22Competitive,
	})
	r.Register(Spec{
		Name: "fig3.23-hysteresis", Figure: "Figure 3.23", Tool: ToolReactsim,
		Title:  "Figure 3.23: hysteresis switching policies (normalized to MCS)",
		Groups: []string{"hysteresis"},
		Run:    Fig3_23Hysteresis,
	})
	r.Register(Spec{
		Name: "fig3.24-fetchop-apps", Figure: "Figure 3.24", Tool: ToolReactsim,
		Title:  "Figure 3.24: fetch-and-op applications (normalized to queue-lock)",
		Groups: []string{"apps"},
		Run:    Fig3_24FetchOpApps,
	})
	r.Register(Spec{
		Name: "fig3.25-spinlock-apps", Figure: "Figure 3.25", Tool: ToolReactsim,
		Title:  "Figure 3.25: spin-lock applications (normalized to test&set)",
		Groups: []string{"apps"},
		Run:    Fig3_25SpinLockApps,
	})
	r.Register(Spec{
		Name: "fig3.26-messages", Figure: "Figure 3.26", Tool: ToolReactsim,
		Title:  "Figure 3.26: shared-memory vs message-passing protocols",
		Groups: []string{"messages"},
		Run:    Fig3_26MessagePassing,
	})
	r.Register(Spec{
		Name: "barrier-extension", Figure: "Extension §6.2", Tool: ToolReactsim,
		Title:  "Extension (thesis §6.2): reactive barrier, overhead per episode",
		Groups: []string{"barrier"},
		Run:    BarrierBaseline,
	})

	// Design-choice ablations (DESIGN.md §13).
	r.Register(Spec{
		Name: "ablation-optimistic-tas", Figure: "Ablation (DESIGN §13)", Tool: ToolReactsim,
		Title:  "Ablation: reactive lock with and without the optimistic test&set",
		Groups: []string{"ablations"},
		Run:    ablationOptimisticTAS,
	})
	r.Register(Spec{
		Name: "ablation-broadcast-invalidation", Figure: "Ablation (DESIGN §13)", Tool: ToolReactsim,
		Title:  "Ablation: sequential vs broadcast invalidation under test&test&set",
		Groups: []string{"ablations"},
		Run:    ablationBroadcastInvalidation,
	})
	r.Register(Spec{
		Name: "ablation-combining-patience", Figure: "Ablation (DESIGN §13)", Tool: ToolReactsim,
		Title:  "Ablation: combining-tree patience window (cycles), overhead per operation",
		Groups: []string{"ablations"},
		Run:    ablationCombiningPatience,
	})

	// Native modal engine: the reactive/modal state machine behind the
	// native FetchOp's N=3 protocol chain, driven deterministically.
	r.Register(Spec{
		Name: "native-fetchop-trace", Figure: "Extension (modal engine)", Tool: ToolReactsim,
		Title:  "Extension: native fetch-op modal engine over a contention trace (CAS ↔ sharded; combining unreachable by detection)",
		Groups: []string{"native"},
		Run:    NativeFopTrace,
	})
	r.Register(Spec{
		Name: "native-fetchop-policies", Figure: "Extension (modal engine)", Tool: ToolReactsim,
		Title:  "Extension: switching policies on the native fetch-op modal engine",
		Groups: []string{"native"},
		Run:    NativeFopPolicies,
	})
	r.Register(Spec{
		Name: "native-rwmutex-epoch-trace", Figure: "Extension (modal engine)", Tool: ToolReactsim,
		Title:  "Extension: native RWMutex 3-mode reader-registration chain over a contention trace (centralized ↔ sharded slots ↔ epoch stamps)",
		Groups: []string{"native"},
		Run:    NativeRWReaderEpochTrace,
	})
	r.Register(Spec{
		Name: "native-map-trace", Figure: "Extension (modal engine)", Tool: ToolReactsim,
		Title:  "Extension: native adaptive-map 3-mode chain over a contention trace (locked table ↔ shard locks ↔ published epoch table)",
		Groups: []string{"native"},
		Run:    NativeMapTrace,
	})
	r.Register(Spec{
		Name: "native-congestion-trace", Figure: "Extension (congestion policy)", Tool: ToolReactsim,
		Title:  "Extension: congestion-control policy (AIMD window, sRTT estimator) on the native fetch-op modal engine",
		Groups: []string{"native", "congestion"},
		Run:    NativeCongestionTrace,
	})
	r.Register(Spec{
		Name: "native-telemetry-deltas", Figure: "Extension (telemetry)", Tool: ToolReactsim,
		Title:  "Extension: Snapshot.Sub telemetry deltas over the native primitives' scale-down paths",
		Groups: []string{"native", "telemetry"},
		Run:    NativeTelemetryDeltas,
	})

	// Chapter 4: waiting algorithms (waitsim).
	r.Register(Spec{
		Name: "table4.1-blocking", Figure: "Table 4.1", Tool: ToolWaitsim,
		Title:  "Table 4.1: breakdown of the cost of blocking",
		Groups: []string{"table4.1"},
		Run:    func(Sizes) *stats.Table { return Table4_1BlockingCost() },
	})
	r.Register(Spec{
		Name: "fig4.4-exp-factors", Figure: "Figure 4.4", Tool: ToolWaitsim,
		Title:  "Figure 4.4: expected competitive factors, exponential waits",
		Groups: []string{"factors"},
		Run:    func(Sizes) *stats.Table { return Fig4_4ExpFactors() },
	})
	r.Register(Spec{
		Name: "fig4.5-uniform-factors", Figure: "Figure 4.5", Tool: ToolWaitsim,
		Title:  "Figure 4.5: expected competitive factors, uniform waits",
		Groups: []string{"factors"},
		Run:    func(Sizes) *stats.Table { return Fig4_5UniformFactors() },
	})
	r.Register(Spec{
		Name: "fig4.x-switch-spin", Figure: "Section 4.1", Tool: ToolWaitsim,
		Title:  "Section 4.1 extension: switch-spinning (beta=4)",
		Groups: []string{"factors"},
		Run:    func(Sizes) *stats.Table { return Fig4_SwitchSpinFactors() },
	})
	r.Register(Spec{
		Name: ProfilesExperiment, Figure: "Figures 4.6-4.11", Tool: ToolWaitsim,
		Title:  "Figures 4.6-4.11: waiting-time profiles (summary; waitsim -hist for histograms)",
		Groups: []string{"profiles"},
		Run:    WaitProfileSummary,
	})
	r.Register(Spec{
		Name: "fig4.12-producer-consumer", Figure: "Figure 4.12 / Table 4.3", Tool: ToolWaitsim,
		Title:  "Figure 4.12 / Table 4.3: producer-consumer (normalized to best)",
		Groups: []string{"benchmarks"},
		Run:    Fig4_12ProducerConsumer,
	})
	r.Register(Spec{
		Name: "fig4.13-barrier", Figure: "Figure 4.13 / Table 4.4", Tool: ToolWaitsim,
		Title:  "Figure 4.13 / Table 4.4: barriers (normalized to best)",
		Groups: []string{"benchmarks"},
		Run:    Fig4_13Barrier,
	})
	r.Register(Spec{
		Name: "fig4.14-mutex", Figure: "Figure 4.14 / Table 4.5", Tool: ToolWaitsim,
		Title:  "Figure 4.14 / Table 4.5: mutual exclusion (normalized to best)",
		Groups: []string{"benchmarks"},
		Run:    Fig4_14Mutex,
	})
	r.Register(Spec{
		Name: "table4.6-halfb", Figure: "Table 4.6", Tool: ToolWaitsim,
		Title:  "Table 4.6: two-phase waiting with Lpoll = 0.5B",
		Groups: []string{"halfb"},
		Run:    Table4_6HalfB,
	})
	return r
}()
