package server

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/entropy"
	"repro/internal/f0"
	"repro/internal/fp"
	"repro/internal/heavyhitters"
	"repro/internal/robust"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// A spec is one hostable (sketch, policy) combination: how to build a
// per-shard estimator instance, how to recombine the shard estimates, and
// (for the policy-free linear sketches) a sketch.Codec that serializes
// and merges shard state for the snapshot/merge endpoints. Robust
// combinations have no codec — switching ensembles and rounded paths
// wrappers are not linear-mergeable, so /v1/snapshot and /v1/merge answer
// 501 for them; everything else works identically.
//
// Specs are not hand-written: resolve derives them from the base-sketch
// registry (bases) crossed with the robustness policies of
// internal/robust, so every sketch × policy cell the paper's generic
// transformations allow is creatable over HTTP from the same four static
// registrations.
//
// factory receives the tenant's fully resolved TenantSpec — the paper's
// per-statistic (ε, δ, n, λ) accounting is per tenant, with the server
// Config supplying only defaults and caps; robust combinations size each
// shard instance at δ/Shards so the union bound over the shard ensemble
// restores the tenant-wide δ. bytes prices one such instance by the
// factory's own sizing, unbuilt, for admit: the most it can come to hold,
// so a signed counter at 8 bytes though /v1/stats reports it at the 4 it
// occupies until one overflows.
//
// truth extracts the statistic the spec estimates from an exact frequency
// vector, and additive says whether the spec's ε is an additive rather
// than relative error (the entropy estimators, whose ε is in bits). The
// conformance kit and the attack-campaign harness use both to judge
// estimates against ground truth; robust marks the combinations whose
// estimates must survive adaptive query/update interleaving. points marks
// the two combinations that answer POST /v2/query point and topk queries,
// countsketch+none and countsketch+ring (see QueryPoint for why no other),
// and l2Of converts their published estimate into the L2 norm the
// point-query error bound ε·‖f‖₂ is stated against.
type spec struct {
	Name     string // base sketch name (registry key)
	Policy   string // robustness policy name ("none" for the static sketch)
	robust   bool
	additive bool
	points   bool
	// model is the stream class the cell is sound for (zero value:
	// insertion-only); signed marks cells that accept negative deltas —
	// insertion-only cells reject them with a 400 at the update handler,
	// because a deletion silently voids an insertion-only guarantee.
	model   robust.Model
	signed  bool
	combine engine.Combiner
	factory func(ts TenantSpec) sketch.Factory
	bytes   func(ts TenantSpec) float64
	truth   func(f *stream.Freq) float64
	l2Of    func(estimate float64) float64
	codec   *sketch.Codec
}

// Mergeable reports whether the spec supports /v1/snapshot + /v1/merge.
func (sp spec) Mergeable() bool { return sp.codec != nil }

// Display is the spec's human-readable identity, e.g. "f2+paths".
func (sp spec) Display() string { return sp.Name + "+" + sp.Policy }

// marshal serializes one shard estimator through the spec's codec.
func (sp spec) marshal(est sketch.Estimator) ([]byte, error) {
	return sp.codec.Marshal(est)
}

// A merger is a fully decoded snapshot staged for merging, one part per
// shard. Check is a non-mutating compatibility probe (it merges an empty
// Fresh copy of the decoded part, which verifies dimensions and shared
// randomness without changing any counter); Apply folds the part in. The
// two-phase protocol makes every fold atomic — POST /v1/merge, a restored
// checkpoint, an applied shipment, a ?merge=all peer envelope: every part
// is decoded and checked against every shard before the first counter
// moves, so a failed fold leaves no partial state for a retry to double
// count.
type merger struct {
	codec *sketch.Codec
	parts []sketch.Estimator
}

// stage takes the parts of a decoded snapshot envelope (decodeSnapshot)
// meant for a tenant of this spec running the given shard count and decodes
// each through the spec's codec — everything the bytes alone can tell,
// before any engine is touched. A well-formed snapshot of the wrong
// geometry is errConflict; callers prefix where the bytes came from.
func (sp spec) stage(parts [][]byte, shards int) (*merger, error) {
	if len(parts) != shards {
		return nil, fmt.Errorf("%w: snapshot has %d shards, tenant runs %d (snapshot exchange requires identical shards and seed)",
			errConflict, len(parts), shards)
	}
	ms := make([]sketch.Estimator, len(parts))
	for i, part := range parts {
		o, err := sp.codec.Unmarshal(part)
		if err != nil {
			return nil, fmt.Errorf("snapshot shard %d: %w", i, err)
		}
		ms[i] = o
	}
	return &merger{codec: sp.codec, parts: ms}, nil
}

// fold runs the two phases against an engine: check every shard without
// mutating, then apply. A failed check — almost always a different root
// seed — is errConflict and leaves the sketches untouched.
func (m *merger) fold(eng *engine.Engine) error {
	if err := eng.Visit(m.Check); err != nil {
		return fmt.Errorf("%w: %v", errConflict, err)
	}
	if err := eng.Visit(m.Apply); err != nil {
		return fmt.Errorf("%w: %v", errPartial, err)
	}
	return nil
}

func (m *merger) Check(i int, est sketch.Estimator) error {
	// Merging an empty same-randomness copy adds zero everywhere: it runs
	// the full compatibility check and provably leaves est unchanged.
	zero, err := m.codec.Fresh(m.parts[i])
	if err != nil {
		return err
	}
	return m.codec.Merge(est, zero)
}

func (m *merger) Apply(i int, est sketch.Estimator) error {
	return m.codec.Merge(est, m.parts[i])
}

// kmvK sizes a KMV sketch for relative error eps with failure probability
// delta (Chebyshev over the averaged ±1/√k deviations, boosted by ln 1/δ).
func kmvK(eps, delta float64) int {
	k := int(math.Ceil(4 / (eps * eps) * math.Log(2/delta)))
	if k < 16 {
		k = 16
	}
	return k
}

func f2Truth(f *stream.Freq) float64 { return f.Fp(2) }

// A base is one registered static sketch plus everything needed to derive
// its robust policy combinations: the robust.Problem carrying the
// per-problem sizing math, and the combiner/truth/additive metadata of
// the robustified statistic (which can differ from the static spec's —
// robustified f2 publishes the L2 norm, the static sketch the F2 moment).
type base struct {
	static spec
	// problem feeds the robust policies (internal/robust Policy.Wrap); a
	// base without one, cc's, hosts no robust cell (errRobustEntropy).
	problem robust.Problem
	// robustCombine / robustTruth describe the statistic the policy-wrapped
	// estimator publishes.
	robustCombine engine.Combiner
	robustTruth   func(f *stream.Freq) float64
	// robustL2Of converts the robust cells' published estimate into the
	// L2 norm for the point-query error bound; nil for bases whose policy
	// column does not point-query.
	robustL2Of func(float64) float64

	// signed marks bases whose static estimator is linear in delta, so a
	// policy-none tenant can host signed (turnstile / bounded-deletion)
	// streams obliviously. Non-linear bases (KMV, CC) are insertion-only
	// in every cell.
	signed bool

	// modelProblem derives the robust.Problem for a non-insertion stream
	// model; nil for bases without a non-insertion robust theory (the
	// paper's Theorems 1.6 / 1.11 cover Fp only). modelCombine /
	// modelTruth describe the statistic those cells publish (the moment
	// ‖f‖_p^p, per Theorem 4.3 — additive over the shard partition, so
	// the combiner differs from the insertion column's norm).
	modelProblem func(robust.Model) (robust.Problem, error)
	modelCombine engine.Combiner
	modelTruth   func(f *stream.Freq) float64
}

// bases is the registry of hostable base sketch types. A new mergeable
// type needs exactly one codec line (sketch.CodecFor over its concrete
// type) and, to become robustifiable, one robust.Problem; the policy
// layer then derives its switching / ring / paths combinations and the
// server conformance test runs the full sketchtest battery against every
// cell automatically.
var bases = map[string]base{
	"f2": {
		static: spec{
			Name:    "f2",
			Policy:  "none",
			combine: engine.Sum, // F2 = Σ_i f_i² is additive over the shard partition
			factory: func(ts TenantSpec) sketch.Factory {
				sizing := fp.SizeF2(ts.Eps, ts.Delta/float64(ts.Shards))
				return func(seed int64) sketch.Estimator {
					return fp.NewF2(sizing, dist.Rand(seed))
				}
			},
			bytes: func(ts TenantSpec) float64 { return fp.SizeF2(ts.Eps, ts.Delta/float64(ts.Shards)).Bytes() },
			truth: f2Truth,
			codec: sketch.CodecFor[fp.F2Sketch]("f2"),
		},
		problem:       robust.LpProblem(2),
		robustCombine: engine.Norm(2), // per-shard L2 norms → global L2 norm
		robustTruth:   (*stream.Freq).L2,
		signed:        true, // the static F2 sketch is linear in delta
		modelProblem: func(m robust.Model) (robust.Problem, error) {
			return robust.LpProblemFor(2, m)
		},
		modelCombine: engine.Sum, // moment semantics: F2 = Σf_i² adds over shards
		modelTruth:   f2Truth,
	},
	"kmv": {
		static: spec{
			Name:    "kmv",
			Policy:  "none",
			combine: engine.Sum, // distinct counts of disjoint item sets add
			factory: func(ts TenantSpec) sketch.Factory {
				k := kmvK(ts.Eps, ts.Delta/float64(ts.Shards))
				return func(seed int64) sketch.Estimator {
					return f0.NewKMV(k, dist.Rand(seed))
				}
			},
			bytes: func(ts TenantSpec) float64 { return 8 * float64(kmvK(ts.Eps, ts.Delta/float64(ts.Shards))) },
			truth: (*stream.Freq).F0,
			codec: sketch.CodecFor[f0.KMV]("kmv"),
		},
		problem:       robust.F0Problem(),
		robustCombine: engine.Sum,
		robustTruth:   (*stream.Freq).F0,
	},
	"countsketch": {
		static: spec{
			Name:    "countsketch",
			Policy:  "none",
			points:  true,
			combine: engine.Sum, // Estimate is the F2 moment, additive over shards
			factory: func(ts TenantSpec) sketch.Factory {
				sizing := heavyhitters.SizeForPointQuery(ts.Eps, ts.Delta/float64(ts.Shards))
				return func(seed int64) sketch.Estimator {
					return heavyhitters.NewCountSketch(sizing, dist.Rand(seed))
				}
			},
			bytes: func(ts TenantSpec) float64 {
				return heavyhitters.SizeForPointQuery(ts.Eps, ts.Delta/float64(ts.Shards)).Bytes()
			},
			truth: f2Truth,
			l2Of:  math.Sqrt, // published estimate is the F2 moment
			codec: sketch.CodecFor[heavyhitters.CountSketch]("countsketch"),
		},
		problem:       robust.HHL2Problem(),
		robustCombine: engine.Norm(2), // robustified estimate is the L2 norm
		robustTruth:   (*stream.Freq).L2,
		robustL2Of:    func(est float64) float64 { return est },
		signed:        true, // CountSketch is linear in delta (static cells only)
	},
	"cc": {
		static: spec{
			Name:     "cc",
			Policy:   "none",
			additive: true,           // ε is additive, in bits
			combine:  engine.Entropy, // chain rule over the shard partition
			factory: func(ts TenantSpec) sketch.Factory {
				sizing := entropy.SizeCC(ts.Eps, ts.Delta/float64(ts.Shards))
				return func(seed int64) sketch.Estimator {
					return entropy.NewCC(sizing, dist.Rand(seed))
				}
			},
			bytes: func(ts TenantSpec) float64 { return entropy.SizeCC(ts.Eps, ts.Delta/float64(ts.Shards)).Bytes() },
			truth: (*stream.Freq).Entropy,
			codec: sketch.CodecFor[entropy.CC]("cc"),
		},
	},
}

// errRobustEntropy refuses cc under a robust policy: a robust copy draws a
// stable variate per counter per update (a hosted cc+switching ingested 46
// updates/s), and the honest flip budget (Prop. 7.2) is over a hundred times
// what MaxTenantStateBytes admits. robust.NewEntropy runs in process.
var errRobustEntropy = errors.New("robust entropy is not hosted: every copy draws a stable variate per counter per update, and no admissible flip budget is the honest one — use policy none, or robust.NewEntropy in process")

// sketchNames lists the registry's sketch names, sorted, for error
// messages. Deriving it at runtime keeps the "(have: ...)" list correct as
// registrations change.
func sketchNames() []string {
	out := make([]string, 0, len(bases))
	for name := range bases {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Policies lists every robustness policy name a tenant can request.
func Policies() []string { return robust.Kinds() }

// Caps on the resource-shaped TenantSpec fields. A declarative spec is a
// contract, so a request beyond a cap is rejected loudly rather than
// silently clamped — clamping would hand the client a tenant sized
// differently from what it asked for.
const (
	// MaxTenantShards caps TenantSpec.Shards: each shard holds a
	// full-size estimator, so shards multiply the tenant's space.
	MaxTenantShards = 64

	// MaxTenantFlipBudget caps TenantSpec.FlipBudget: the dense-switching
	// ensemble multiplies space by λ. TenantSpec.Lambda (a turnstile
	// tenant's declared flip bound, which becomes its budget) shares the
	// cap.
	MaxTenantFlipBudget = 1 << 20

	// MaxTenantAlpha caps TenantSpec.Alpha. Lemma 8.2's flip bound grows
	// linearly in α, so an enormous α is an enormous implied flip class;
	// the cap keeps the declared class meaningful at server scale.
	MaxTenantAlpha = 1 << 20

	// MaxTenantStateBytes caps what a tenant is projected to keep resident:
	// shards × copies × one inner sketch, from the sizing arithmetic alone
	// (spec.admit). The caps above bound factors; this one bounds their
	// product before anything is built — at ε = 1e-5 a single F2 row is
	// 10¹¹ counters. It sits above every cell tests and benchmark create.
	// It is a bound on the worst case, not a reading: an f2 or countsketch
	// tenant's counters are priced at 8 bytes and held at 4 until one
	// update's delta (2³¹ suffices) widens every copy at once.
	MaxTenantStateBytes = 4 << 30

	// pathsKCap caps the repetition dimension of a computation-paths
	// tenant's inner sketch, whose honest ln(1/δ₀) sizing reaches
	// thousands of repetitions; see robust.Policy.KCap.
	pathsKCap = 4096
)

// normalize validates a raw TenantSpec and fills every unset field from
// the server defaults, returning the fully resolved spec a tenant is
// sized from. Malformed values — NaN or out-of-range ε and δ, negative
// or over-cap sizing fields — are rejected, never repaired. The caps
// bound only what a client explicitly asks for: values inherited from
// the server flags are operator policy and pass through uncapped, so a
// server legitimately run with, say, -shards above MaxTenantShards keeps
// serving default-shaped tenants.
//
// trusted relaxes the cap upper bounds (not the mathematical checks): a
// stored resolved spec read back during WAL recovery carries concrete
// values for every field, including ones that were legitimately inherited
// from over-cap server flags, and refusing those on reboot would strand
// acknowledged data.
func (ts TenantSpec) normalize(cfg Config, trusted bool) (TenantSpec, error) {
	bad := func(field string, format string, args ...any) (TenantSpec, error) {
		return TenantSpec{}, fmt.Errorf("tenant spec: %s %s", field, fmt.Sprintf(format, args...))
	}
	capped := func(v, cap int) bool { return v < 1 || (!trusted && v > cap) }
	// Captured before the defaults below fill it: the turnstile λ/budget
	// unification must distinguish an explicitly requested budget (which
	// may conflict with lambda) from an inherited one (which lambda
	// overrides).
	explicitBudget := ts.FlipBudget != 0
	if ts.Shards != 0 && capped(ts.Shards, MaxTenantShards) {
		return bad("shards", "must be in [1, %d], got %d", MaxTenantShards, ts.Shards)
	}
	if ts.FlipBudget != 0 && capped(ts.FlipBudget, MaxTenantFlipBudget) {
		return bad("flip_budget", "must be in [1, %d], got %d", MaxTenantFlipBudget, ts.FlipBudget)
	}
	switch ts.Model {
	case "", "insertion", "turnstile", "bounded_deletion":
	default:
		return bad("model", "unknown stream model %q (have: %s)", ts.Model, strings.Join(robust.ModelKinds(), ", "))
	}
	if ts.Lambda != 0 {
		if ts.Model != "turnstile" {
			return bad("lambda", "only applies to model=turnstile (a declared S_λ flip bound), got model %q", ts.Model)
		}
		if capped(ts.Lambda, MaxTenantFlipBudget) {
			return bad("lambda", "must be in [1, %d], got %d", MaxTenantFlipBudget, ts.Lambda)
		}
	}
	if ts.Alpha != 0 {
		if ts.Model != "bounded_deletion" {
			return bad("alpha", "only applies to model=bounded_deletion (the Definition 8.1 invariant parameter), got model %q", ts.Model)
		}
		if math.IsNaN(ts.Alpha) || math.IsInf(ts.Alpha, 0) || ts.Alpha < 1 || (!trusted && ts.Alpha > MaxTenantAlpha) {
			return bad("alpha", "must be a finite value in [1, %d], got %v", MaxTenantAlpha, ts.Alpha)
		}
	}
	if ts.Model == "bounded_deletion" && ts.Alpha == 0 {
		return bad("alpha", "is required for model=bounded_deletion (the Definition 8.1 invariant parameter α ≥ 1)")
	}
	if ts.Eps == 0 {
		ts.Eps = cfg.Eps
	}
	// ε and δ ranges are mathematical requirements, not resource policy:
	// they hold for the resolved value wherever it came from (a server
	// misconfigured with -eps 1.5 gets a clean 400 here instead of a
	// panicking factory at tenant creation).
	if math.IsNaN(ts.Eps) || ts.Eps <= 0 || ts.Eps >= 1 {
		return bad("eps", "must be in (0, 1), got %v", ts.Eps)
	}
	if ts.Delta == 0 {
		ts.Delta = cfg.Delta
	}
	if math.IsNaN(ts.Delta) || ts.Delta <= 0 || ts.Delta >= 1 {
		return bad("delta", "must be in (0, 1), got %v", ts.Delta)
	}
	if ts.N == 0 {
		ts.N = U64(cfg.N)
	}
	// A robust tenant's guarantee is per ensemble: every shard would walk
	// the flip ladder of its own substream, spending λ S times over at S
	// times the copies, so an unset shard count is one. A static sketch
	// takes the server's.
	if ts.Shards == 0 {
		ts.Shards = cfg.Shards
		if ts.Policy != "" && ts.Policy != "none" {
			ts.Shards = 1
		}
	}
	if ts.FlipBudget == 0 {
		ts.FlipBudget = cfg.FlipBudget
	}
	// The root seed is resolved into the stored spec: a re-declare naming it
	// matches, and recovery rebuilds the same, snapshot-compatible shards.
	if ts.Seed == 0 {
		ts.Seed = cfg.Seed
	}
	if ts.Model == "" {
		ts.Model = "insertion"
	}
	// A turnstile tenant's declared flip bound IS its flip budget — the
	// class S_λ is defined by λ, and the guarantee covers exactly λ flips.
	// Unify the two fields: an unset lambda inherits the budget, an unset
	// budget inherits lambda, and two explicit disagreeing values are a
	// contradiction, not a preference.
	if ts.Model == "turnstile" {
		if ts.Lambda == 0 {
			ts.Lambda = ts.FlipBudget
		} else if explicitBudget && ts.FlipBudget != ts.Lambda {
			return bad("lambda", "=%d conflicts with flip_budget=%d — a turnstile tenant's declared flip bound is its flip budget; set one, or both equal", ts.Lambda, ts.FlipBudget)
		}
		ts.FlipBudget = ts.Lambda
	}
	return ts, nil
}

// model converts the resolved spec's model fields into a robust.Model.
// Call on a normalized spec (Model filled, parameters validated).
func (ts TenantSpec) model() robust.Model {
	switch ts.Model {
	case "turnstile":
		return robust.TurnstileModel(ts.Lambda)
	case "bounded_deletion":
		return robust.BoundedDeletionModel(ts.Alpha)
	}
	return robust.InsertionModel()
}

// resolve maps a raw TenantSpec onto a hostable spec plus the fully
// resolved TenantSpec (defaults applied, caps enforced). The sketch must
// name a registry entry; an empty policy means "none".
func resolve(raw TenantSpec, cfg Config) (spec, TenantSpec, error) {
	sp, ts, err := resolveWith(raw, cfg, false)
	if err == nil {
		err = sp.admit(ts)
	}
	return sp, ts, err
}

// admit refuses a tenant whose projected resident state, Shards × bytes,
// exceeds MaxTenantStateBytes. The product is taken in float64, and every
// sketch holds at least 1/ε² 8-byte cells: settling that first keeps the
// int-returning sizing functions behind sp.bytes away from an ε (≈ 1e-9)
// whose dimensions overflow int.
func (sp spec) admit(ts TenantSpec) error {
	perShard := 8 / (ts.Eps * ts.Eps)
	if float64(ts.Shards)*perShard <= MaxTenantStateBytes {
		perShard = sp.bytes(ts)
	}
	if total := float64(ts.Shards) * perShard; total > MaxTenantStateBytes {
		return fmt.Errorf("tenant spec: projected state of %s, %.3g bytes (%d shards × %.3g), exceeds MaxTenantStateBytes (%d) — raise eps, or lower shards or flip_budget",
			sp.Display(), total, ts.Shards, perShard, int64(MaxTenantStateBytes))
	}
	return nil
}

// resolveTrusted is resolve for specs the server itself stored (WAL create
// records, checkpoint metadata): caps are advisory for client requests,
// not grounds to refuse recovering acknowledged tenants.
func resolveTrusted(raw TenantSpec, cfg Config) (spec, TenantSpec, error) {
	return resolveWith(raw, cfg, true)
}

func resolveWith(raw TenantSpec, cfg Config, trusted bool) (spec, TenantSpec, error) {
	ts, err := raw.normalize(cfg, trusted)
	if err != nil {
		return spec{}, TenantSpec{}, err
	}
	name, policyName := raw.Sketch, raw.Policy
	b, ok := bases[name]
	if !ok {
		return spec{}, TenantSpec{}, fmt.Errorf("unknown sketch type %q (have: %s)", name, strings.Join(sketchNames(), ", "))
	}
	if policyName == "" {
		policyName = "none"
	}
	ts.Sketch, ts.Policy = name, policyName
	model := ts.model()
	pol, err := robust.ParsePolicy(policyName)
	if err != nil {
		return spec{}, TenantSpec{}, err
	}
	if pol.Kind == robust.None {
		sp := b.static
		if model.Kind != robust.ModelInsertion {
			// A static non-insertion tenant is the oblivious baseline for
			// signed streams: sound only when the estimator is linear in
			// delta, so deletions are handled natively.
			if !b.signed {
				return spec{}, TenantSpec{}, fmt.Errorf("sketch %q is insertion-only (its static estimator is not linear in delta) and cannot host model=%s", name, ts.Model)
			}
			sp.model = model
			sp.signed = true
		}
		return sp, ts, nil
	}
	if b.problem.Inner == nil {
		return spec{}, TenantSpec{}, fmt.Errorf("sketch %q under policy %s: %w", name, policyName, errRobustEntropy)
	}
	pol.Budget = ts.FlipBudget
	if pol.Kind == robust.Paths {
		// Only the paths sizing needs the cap: its honest ln(1/δ₀)
		// reaches thousands of repetitions, while the switching and ring
		// ensembles run at moderate per-copy δ.
		pol.KCap = pathsKCap
	}
	sp := spec{
		Name:    name,
		Policy:  policyName,
		robust:  true,
		points:  b.static.points && pol.Kind == robust.Ring,
		model:   model,
		combine: b.robustCombine,
		truth:   b.robustTruth,
		l2Of:    b.robustL2Of,
	}
	prob := b.problem
	if model.Kind != robust.ModelInsertion {
		if b.modelProblem == nil {
			return spec{}, TenantSpec{}, fmt.Errorf("sketch %q has no robust theory for model=%s (the paper's non-insertion theorems — 1.6 and 1.11 — cover Fp only); use sketch f2, or model=insertion", name, ts.Model)
		}
		prob, err = b.modelProblem(model)
		if err != nil {
			return spec{}, TenantSpec{}, err
		}
		// Non-insertion robust cells publish the moment ‖f‖_p^p
		// (Theorem 4.3), not the norm: moment combiner and truth, relative
		// ε on the moment, no point-query surface.
		sp.signed = true
		sp.additive = false
		sp.points = false
		sp.l2Of = nil
		sp.combine = b.modelCombine
		sp.truth = b.modelTruth
	}
	if err := pol.Check(prob); err != nil {
		return spec{}, TenantSpec{}, err
	}
	sp.bytes = func(ts TenantSpec) float64 {
		return pol.StateBytes(ts.Eps, ts.Delta/float64(ts.Shards), uint64(ts.N), prob)
	}
	sp.factory = func(ts TenantSpec) sketch.Factory {
		shardDelta := ts.Delta / float64(ts.Shards)
		return func(seed int64) sketch.Estimator {
			est, err := pol.Wrap(ts.Eps, shardDelta, uint64(ts.N), seed, prob)
			if err != nil {
				// resolve validated the combination; a failure here is a
				// programming error, not a request error.
				panic("server: " + err.Error())
			}
			return est
		}
	}
	return sp, ts, nil
}

// Info describes a hostable sketch × policy combination for harnesses
// outside the package: the attack-campaign runner uses Truth/Additive to
// judge estimates against exact ground truth and Robust to predict which
// combinations must survive an adaptive adversary.
type Info struct {
	// Name is the base sketch registry key (TenantSpec.Sketch value).
	Name string

	// Policy is the robustness policy (TenantSpec.Policy value): none,
	// switching, ring, or paths.
	Policy string

	// Robust marks the adversarially robust combinations (every policy
	// except none).
	Robust bool

	// Mergeable reports /v1/snapshot + /v1/merge support.
	Mergeable bool

	// PointQueries reports whether the combination answers point and
	// topk queries over POST /v2/query.
	PointQueries bool

	// Model is the stream-class name of the resolved cell (insertion,
	// turnstile, bounded_deletion).
	Model string

	// Signed reports whether the cell accepts negative deltas;
	// insertion-only cells 400 on them at the update handler.
	Signed bool

	// Additive says the combination's ε is an additive error (entropy, in
	// bits) rather than a relative one.
	Additive bool

	// Truth extracts the estimated statistic from an exact frequency
	// vector.
	Truth func(f *stream.Freq) float64
}

func infoOf(sp spec) Info {
	return Info{
		Name:         sp.Name,
		Policy:       sp.Policy,
		Robust:       sp.robust,
		Mergeable:    sp.Mergeable(),
		PointQueries: sp.points,
		Model:        sp.model.Kind.String(),
		Signed:       sp.signed,
		Additive:     sp.additive,
		Truth:        sp.truth,
	}
}

// InfoForSpec resolves a full TenantSpec — the sketch × policy × model
// cell plus its class parameters — using default server parameters for
// validation. It is how out-of-process harnesses (the campaign runner)
// learn a cell's truth function and validity without creating a tenant.
func InfoForSpec(ts TenantSpec) (Info, error) {
	sp, _, err := resolve(ts, Config{}.withDefaults())
	if err != nil {
		return Info{}, err
	}
	return infoOf(sp), nil
}

// Types lists every base sketch type (policy none), sorted by name. Cross
// with Policies() — or call InfoForSpec per cell — for the full hostable
// matrix.
func Types() []Info {
	out := make([]Info, 0, len(bases))
	for _, b := range bases {
		out = append(out, infoOf(b.static))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// EngineConfig returns the engine configuration a server built from cfg
// would give a tenant created with the given TenantSpec, seeded with
// seed. It lets out-of-process harnesses (the campaign runner,
// benchmarks) attack the exact estimator stack a sketchd tenant runs —
// same factory, same δ/Shards sizing, same combiner — without going
// through HTTP.
func EngineConfig(ts TenantSpec, cfg Config, seed int64) (engine.Config, error) {
	cfg = cfg.withDefaults()
	sp, rts, err := resolve(ts, cfg)
	if err != nil {
		return engine.Config{}, err
	}
	return sp.engineConfig(rts, seed), nil
}

// engineConfig is the engine a tenant of the resolved spec runs, seeded with
// seed. Batch is the engine's default, spelled out for harnesses that chunk
// a request the way the worker cuts it; the client's batches cut the rest.
func (sp spec) engineConfig(ts TenantSpec, seed int64) engine.Config {
	return engine.Config{Shards: ts.Shards, Batch: 256, Combine: sp.combine, Factory: sp.factory(ts), Seed: seed}
}
