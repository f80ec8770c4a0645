// Planner: cost-based optimization of logical chains — the single IR all
// textual query forms lower into (query/logical.h) — plus the selection
// access-path machinery underneath it.
//
// For Select(ClassExtent(cls), p) the planner enumerates *all* sargable
// conjuncts of the predicate's shape tree — equality on the object's own
// value, integer range comparisons, an OR of equalities, or any of these
// behind OnSubObject(role, ...) — resolves each against the IndexManager,
// and costs every candidate access path with the statistics of
// query/stats.h: the full extent scan, a single index probe per sargable
// conjunct, and the multi-index intersection of two or more posting lists
// for AND-of-sargables. The cheapest plan wins (deterministic tie-breaks:
// equality, then range, then intersection, then scan). Estimated rows and
// the extent size travel in the Plan for EXPLAIN-style output.
//
// Relationship extents plan the same way: SelectRelationships filters the
// relationships of an association family by conjuncts over their attribute
// sub-objects (paper Fig. 3: `Write.NumberOfWrites > 3`), served by
// relationship-side indexes when they exist and by a RelationshipsOf-style
// extent scan otherwise.
//
// Join chains are optimized by Optimize(LogicalChain) -> PhysicalPlan: a
// Selinger-style dynamic program over the chain's connected subchains
// (DP table keyed by hop bitset) that produces a *plan tree*, not just a
// left-deep ordering. Two composition rules populate the table:
//
//   * a hop join — two adjacent segments [lo, m] and [m+1, hi] joined
//     through hop m's association via Algebra::RelationshipJoin, with
//     the physical strategy (hash either build side / index-nested-loop
//     either drive side) chosen by PlanJoin from the association
//     population and the tracked per-(association, role, class)
//     participation counts;
//   * a tuple join — two *overlapping* segments [lo, m] and [m, hi]
//     merged on their shared binder-m column via Algebra::TupleJoin, the
//     bushy (segment x segment) connector that needs no cartesian
//     product because the segments always share exactly one binder.
//
// The DP is polynomial in the chain length, which is what lifted the
// grammar's hop cap from 3 (exhaustive left-deep enumeration) to
// LogicalChain::kMaxHops. Ties keep the textual left-deep composition.
// JoinPipeline runs the DP's tree or, given a JoinShape, an explicit
// left-deep ordering (see LeftDeepOrders) or an explicit bushy split for
// the differential tests and benches; every shape computes the same
// relation.
//
// One DP per executed chain: Run plans only the binders' access paths,
// materializes them, and lets JoinPipeline run the DP once from their
// actual sizes. Optimize, which executes nothing, runs the same DP from
// the access-path estimates for the pre-execution (EXPLAIN-only) tree.
// Nothing is cached between queries: planning a chain costs less than
// validating a cached plan against live statistics would.
//
// Every index plan runs a residual filter (full predicate re-eval + extent
// check) over its candidates, so the rewrite is an optimization only:
// results are identical to the scan path, including the paper's
// vague-value semantics — undefined values are absent from indexes and
// match nothing in scans.

#ifndef SEED_QUERY_PLANNER_H_
#define SEED_QUERY_PLANNER_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/database.h"
#include "index/attribute_index.h"
#include "obs/trace.h"
#include "query/algebra.h"
#include "query/logical.h"
#include "query/predicate.h"

namespace seed::query {

/// The join tree Planner::JoinPipeline executes. Default: the DP's choice.
/// Tests and benches comparing plans force an explicit shape instead;
/// every shape computes the same relation.
struct JoinShape {
  /// An explicit left-deep hop order (see Planner::LeftDeepOrders).
  std::optional<std::vector<int>> order;
  /// An explicit bushy split at binder `split`: the left segment covers
  /// binders [0, split], the right segment [split, n] merged on binder
  /// `split`'s column when `tuple_join` (else [split+1, n] joined
  /// through hop `split`), each segment left-deep in textual order.
  /// Requires 0 < split < hops for a tuple join, 0 <= split < hops
  /// otherwise.
  std::optional<int> split;
  bool tuple_join = false;

  static JoinShape LeftDeep(std::vector<int> order) {
    JoinShape shape;
    shape.order = std::move(order);
    return shape;
  }
  static JoinShape Split(int m, bool tuple_join) {
    JoinShape shape;
    shape.split = m;
    shape.tuple_join = tuple_join;
    return shape;
  }
};

class Planner {
 public:
  /// The access path chosen for a selection over one extent.
  struct Plan {
    enum class Kind { kFullScan, kIndexEquals, kIndexRange, kIndexIntersect };

    /// One index access. Single-index plans have exactly one leg;
    /// intersection plans have two or more, cheapest first.
    struct Leg {
      const index::AttributeIndex* index = nullptr;
      bool is_range = false;
      /// Probe keys when !is_range (one per OR-of-equalities branch).
      std::vector<core::Value> keys;
      /// Bounds when is_range.
      core::Value lo, hi;
      bool lo_inclusive = true;
      bool hi_inclusive = true;
      /// Estimated postings this leg yields.
      double est_rows = 0.0;
    };

    Kind kind = Kind::kFullScan;
    std::vector<Leg> legs;
    /// Estimated candidate rows fed to the residual filter (= extent size
    /// for a full scan).
    double est_rows = 0.0;
    /// Modeled cost in row-visit units (see query/stats.h).
    double est_cost = 0.0;
    /// Live size of the queried extent at planning time.
    double extent_rows = 0.0;

    /// Rows the executed access path actually produced (post-residual);
    /// -1 until executed.
    long long actual_rows = -1;
    /// Wall-clock the selection took, when an ExecContext asked for node
    /// timing; -1 otherwise.
    long long elapsed_ns = -1;

    bool uses_index() const { return kind != Kind::kFullScan; }
    /// "scan" / "index-equals(...), 2 keys, est ~3 of 100 rows" — for
    /// tests, EXPLAIN output and logs.
    std::string ToString() const;
    /// ToString() plus actual rows and wall-clock — the EXPLAIN ANALYZE
    /// form. `mask_times` prints "<t>" instead of the duration so golden
    /// tests can pin structure and rows.
    std::string ToAnalyzeString(bool mask_times) const;
  };

  /// One conjunct of a relationship-extent selection (query/logical.h).
  using RelCondition = query::RelCondition;

  /// The physical strategy chosen for a relationship join (see
  /// Algebra::JoinOptions): which side the hash join builds from, or
  /// which side drives the index-nested-loop, plus the join direction.
  struct JoinPlan {
    enum class Strategy {
      kHashBuildLeft,
      kHashBuildRight,
      kIndexNestedLoopLeft,   // left input drives the per-tuple probes
      kIndexNestedLoopRight,
    };

    Strategy strategy = Strategy::kHashBuildRight;
    /// Role the left relation binds (0, or 1 for reverse-direction joins).
    int left_role = 0;
    /// Input sizes the plan was made for.
    double left_rows = 0.0;
    double right_rows = 0.0;
    /// Live population of the association family at planning time.
    double assoc_rows = 0.0;
    /// Estimated output rows and modeled cost (row-visit units).
    double est_rows = 0.0;
    double est_cost = 0.0;

    /// The Algebra execution options this plan denotes.
    Algebra::JoinOptions options() const;
    /// "join-hash(build=right), forward, est ~12 rows (assoc ~40)" — for
    /// tests, EXPLAIN output and logs.
    std::string ToString() const;
  };

  /// One hop of a join chain: binder i connects to binder i+1 through
  /// `assoc`, with binder i bound at role `left_role`. The binder classes
  /// feed the tracked degree statistics (invalid ids fall back to the
  /// association's role target classes).
  struct PipelineHop {
    AssociationId assoc;
    int left_role = 0;
    ClassId left_cls, right_cls;
  };

  /// The optimizer's output: one access-path Plan per binder plus the
  /// join plan tree the DP chose. For no-hop chains the tree is a single
  /// input leaf; for relationship chains selects[0] is the whole plan.
  struct PhysicalPlan {
    /// One node of the join plan tree, covering the contiguous binder
    /// segment [lo, hi].
    struct Node {
      enum class Kind {
        kInput,      // one binder's selection result
        kHopJoin,    // RelationshipJoin of [lo, m] and [m+1, hi] via hop m
        kTupleJoin,  // TupleJoin of [lo, m] and [m, hi] on binder m
      };

      Kind kind = Kind::kInput;
      int lo = 0, hi = 0;
      /// kInput: the binder index this leaf reads.
      int binder = -1;
      /// kHopJoin: the executed hop and its physical strategy (the lower
      /// segment is always the join's left input).
      int hop = -1;
      JoinPlan join;
      /// kTupleJoin: the shared binder the segments merge on.
      int shared_binder = -1;
      double est_rows = 0.0;
      double est_cost = 0.0;
      /// Rows the node actually produced; -1 until executed.
      long long actual_rows = -1;
      /// Inclusive wall-clock of executing this node (children included),
      /// when an ExecContext asked for node timing; -1 otherwise.
      long long elapsed_ns = -1;
      std::unique_ptr<Node> left, right;

      /// A join whose inputs are both joined segments (rather than at
      /// least one base binder input) — the bushy shape left-deep
      /// enumeration could not express. Every tuple join qualifies by
      /// construction.
      bool is_bushy() const {
        return kind == Kind::kTupleJoin ||
               (kind == Kind::kHopJoin && left && right &&
                left->kind != Kind::kInput && right->kind != Kind::kInput);
      }
      /// "(hop1: d * a | join-hash(...), actual 3)" — nested plan-tree
      /// rendering; `binders` names the chain's binder columns.
      std::string ToString(const std::vector<std::string>& binders) const;
      /// EXPLAIN ANALYZE rendering: ToString plus per-node rows in
      /// (children's actual rows) and inclusive wall-clock.
      std::string ToAnalyzeString(const std::vector<std::string>& binders,
                                  bool mask_times) const;
    };

    /// Access path per binder, in textual order.
    std::vector<Plan> selects;
    /// Binder names, in textual order.
    std::vector<std::string> binders;
    /// The join tree (kInput leaf for single-binder chains); null only
    /// for relationship-form plans, where selects[0] is everything.
    std::unique_ptr<Node> root;
    bool relationship_form = false;
    /// Final output estimate and total modeled cost (selects + joins).
    double est_rows = 0.0;
    double est_cost = 0.0;

    /// True when any node in the tree is a bushy join.
    bool HasBushyJoin() const;
    /// The hops in execution (post-)order — the analogue of the old
    /// left-deep step list, for tests and coverage counters.
    std::vector<int> HopOrder() const;
    /// Total rows the executed tree actually produced across its nodes
    /// — the "rows visited" number the benches and the CI plan-quality
    /// gate compare across plans. Zero before execution.
    long long RowsVisited() const;
    /// Full EXPLAIN body: every binder's access path, then the plan
    /// tree — "d: scan, est ~2 rows; a: ...; (hop1: d * a | ...)".
    std::string ToString() const;
    /// Full EXPLAIN ANALYZE body: every binder's access path with actual
    /// rows and wall-clock, then the plan tree with per-node rows in/out
    /// and inclusive wall-clock. `mask_times` prints "<t>" for every
    /// duration (golden tests pin structure + rows, not the clock).
    std::string ToAnalyzeString(bool mask_times = false) const;
  };

  /// Result of running a logical chain, ascending in every shape: flat
  /// object ids for the single-binder object form, relationship ids for
  /// the relationship form, joined binder tuples (textual binder-column
  /// order) for chains with hops.
  struct ChainResult {
    std::vector<ObjectId> ids;
    std::vector<RelationshipId> relationships;
    QueryRelation tuples;
  };

  /// Snapshots exec::ExecPolicy::Default() at construction (one policy
  /// per query: parser-layer entry points build a Planner per statement).
  explicit Planner(const core::Database* db) : db_(db), algebra_(db) {}

  /// Replaces the snapshotted execution policy, forwarded to the
  /// embedded Algebra so operators and plan-tree scheduling agree.
  void set_exec_policy(const exec::ExecPolicy& policy) {
    policy_ = policy;
    algebra_.set_exec_policy(policy);
  }
  const exec::ExecPolicy& exec_policy() const { return policy_; }

  /// No-op: every query plans fresh (there is no plan cache). Kept only
  /// because the end-to-end benchmark (seedbench/common.cc) still calls
  /// it; delete it with that call.
  void set_plan_cache_enabled(bool /*enabled*/) {}

  // --- The unified entry point -----------------------------------------------

  /// Optimizes a logical chain without executing it: plans every
  /// binder's access path, then runs the hop-bitset DP over the chain's
  /// connected subchains to pick the cheapest join tree (hop joins and
  /// bushy tuple joins), costing each candidate from the binder
  /// estimates, the association populations and the tracked
  /// participation statistics. No extent is scanned — the pre-execution
  /// view of the plan (a scan binder's estimate is its whole extent).
  /// Run does not call this.
  Result<PhysicalPlan> Optimize(const LogicalChain& chain) const;

  /// Plans and executes `chain`; `plan_out` (optional) receives the
  /// executed plan with per-node actual rows. Only the binders' access
  /// paths are planned up front (the optimize phase); after
  /// materializing them, JoinPipeline runs the join DP once from their
  /// *actual* sizes, so a selective residual a scan estimate could not
  /// see still gets the right join strategies.
  /// Results are identical to the brute-force reference for every chain
  /// shape and plan. `ctx` (optional) collects per-phase wall-clock and
  /// turns on per-node operator timing for EXPLAIN ANALYZE.
  Result<ChainResult> Run(const LogicalChain& chain,
                          PhysicalPlan* plan_out = nullptr,
                          obs::ExecContext* ctx = nullptr) const;

  // --- Selections ------------------------------------------------------------

  /// Chooses the access path for Select(ClassExtent(cls, _), _, p).
  Plan PlanSelect(ClassId cls, const Predicate& p,
                  bool include_specializations = true) const;

  /// Runs Select(ClassExtent(cls), p) through the chosen plan as a plain
  /// ascending id list (what the textual query layer returns); identical
  /// to the scan path. Pass a precomputed `plan` (e.g. from an EXPLAIN
  /// display) to avoid planning twice.
  std::vector<ObjectId> SelectIds(ClassId cls, const Predicate& p,
                                  bool include_specializations = true,
                                  const Plan* plan = nullptr) const;

  /// Chooses the access path for filtering the relationships of `assoc`
  /// (family included unless disabled) by `conditions` (conjunctive).
  Plan PlanSelectRelationships(AssociationId assoc,
                               const std::vector<RelCondition>& conditions,
                               bool include_specializations = true) const;

  /// Relationships of the association extent satisfying every condition,
  /// ascending. Identical to iterating RelationshipsOfAssociation and
  /// evaluating the conditions per relationship.
  std::vector<RelationshipId> SelectRelationshipIds(
      AssociationId assoc, const std::vector<RelCondition>& conditions,
      bool include_specializations = true, const Plan* plan = nullptr) const;

  /// True iff the live relationship satisfies every condition (the
  /// relationship residual; exposed as the scan-path ground truth).
  bool EvalRelConditions(RelationshipId rel,
                         const std::vector<RelCondition>& conditions) const;

  // --- Single joins ----------------------------------------------------------

  /// Chooses the physical strategy for joining a `left_rows`-tuple
  /// relation (bound at role `left_role` of `assoc`) with a
  /// `right_rows`-tuple relation at the opposite role, using the
  /// association population, the tracked per-(association, role, class)
  /// participation counts and the input classes' extents. Sizes may be
  /// fractional (the DP plans intermediates from estimates). `left_cls` /
  /// `right_cls` name the classes the inputs were drawn from; invalid ids
  /// fall back to the association's role targets (for which the
  /// participation count degenerates to the uniform assoc/extent
  /// estimate). Deterministic tie-breaks: hash-build-right,
  /// hash-build-left, inl-left, inl-right. `left_role` is read as 1 or
  /// forward-otherwise; JoinPipeline rejects roles outside {0, 1} before
  /// planning.
  JoinPlan PlanJoin(AssociationId assoc, double left_rows, double right_rows,
                    int left_role = 0, ClassId left_cls = ClassId(),
                    ClassId right_cls = ClassId()) const;

  // --- Join pipelines --------------------------------------------------------

  /// Every left-deep ordering of an `num_hops`-hop chain: permutations
  /// whose every prefix is a contiguous hop range (anything else would
  /// need a cartesian product between disconnected segments). Textual
  /// order comes first; 2 orders for 2 hops, 4 for 3, 2^(n-1) for n.
  /// Kept as the explicit-shape generator for differential tests and
  /// benches; the optimizer itself searches the larger DP space.
  static std::vector<std::vector<int>> LeftDeepOrders(size_t num_hops);

  /// Runs the hop-bitset DP over the bare chain (no binder predicates):
  /// `input_rows` holds the hops.size()+1 binder input sizes. Reads only
  /// tracked counters; never scans an extent. On invalid shapes (no
  /// hops, mis-sized `input_rows`) the returned plan has no tree —
  /// JoinPipeline surfaces that as InvalidArgument; direct callers must
  /// check `root` before dereferencing.
  PhysicalPlan PlanJoinPipeline(const std::vector<PipelineHop>& hops,
                                const std::vector<size_t>& input_rows) const;

  /// Runs the chain over the unary binder `inputs` (one per binder,
  /// attribute names distinct) with the join tree `shape` asks for,
  /// planned from the inputs' actual sizes; returns the joined binder
  /// tuples in textual binder-column order, ascending. `plan_out`
  /// receives the executed plan with per-node actual rows. An empty
  /// intermediate short-circuits inside the physical operators. `ctx`
  /// (optional) turns on per-node operator timing.
  Result<QueryRelation> JoinPipeline(const std::vector<QueryRelation>& inputs,
                                     const std::vector<PipelineHop>& hops,
                                     const JoinShape& shape = {},
                                     PhysicalPlan* plan_out = nullptr,
                                     obs::ExecContext* ctx = nullptr) const;

 private:
  struct Candidate;  // sargable conjunct bound to an index (planner.cc)
  struct DpEntry;    // best (rows, cost, decision) per hop bitset

  using Node = PhysicalPlan::Node;

  /// The DP core: cheapest join tree over binder segment [0, n] given
  /// the base input estimates. Returns null when `hops` is empty and
  /// input_rows has a single binder (the leaf is built by the caller) —
  /// otherwise always a tree covering every hop exactly once.
  std::unique_ptr<Node> OptimizeJoinTree(
      const std::vector<PipelineHop>& hops,
      const std::vector<double>& input_rows) const;

  /// A leaf node reading binder `i`.
  static std::unique_ptr<Node> MakeLeaf(int binder, double rows);

  /// The textual left-deep tree over binder segment [lo, hi].
  std::unique_ptr<Node> LeftDeepTree(const std::vector<PipelineHop>& hops,
                                     const std::vector<double>& input_rows,
                                     int lo, int hi) const;

  /// A hop-join node joining `left` (ending at binder `hop`) with
  /// `right` (starting at binder `hop` + 1) through hop `hop`.
  std::unique_ptr<Node> MakeHopJoin(const std::vector<PipelineHop>& hops,
                                    int hop, std::unique_ptr<Node> left,
                                    std::unique_ptr<Node> right) const;

  /// A tuple-join node merging `left` and `right` on shared binder `m`.
  std::unique_ptr<Node> MakeTupleJoin(int m, double shared_rows,
                                      std::unique_ptr<Node> left,
                                      std::unique_ptr<Node> right) const;

  /// Shape checks on JoinPipeline's inputs and hops.
  static Status ValidatePipelineInputs(
      const std::vector<QueryRelation>& inputs,
      const std::vector<PipelineHop>& hops);

  /// The join tree `shape` asks for over binder sizes `input_rows`;
  /// InvalidArgument when an explicit order is not left-deep or a split
  /// does not fit the chain.
  Result<std::unique_ptr<Node>> BuildJoinTree(
      const std::vector<PipelineHop>& hops,
      const std::vector<double>& input_rows, const JoinShape& shape) const;

  /// Executes `node` over the materialized binder inputs, recording
  /// per-node actual rows (and inclusive wall-clock when `ctx` asks for
  /// node timing) — the one executor of a plan tree.
  Result<QueryRelation> ExecuteNode(Node* node,
                                    const std::vector<QueryRelation>& inputs,
                                    const std::vector<PipelineHop>& hops,
                                    obs::ExecContext* ctx) const;

  /// Validates `chain` and plans every binder's access path — the part
  /// of planning Run and Optimize share. The plan carries the selects,
  /// binder names and their summed cost; single-binder chains also get
  /// their leaf root and final estimate, hop chains no tree.
  Result<PhysicalPlan> PlanAccessPaths(const LogicalChain& chain) const;

  /// Lowers the chain's hops into PipelineHops (binder classes attached).
  static std::vector<PipelineHop> LowerHops(const LogicalChain& chain);

  /// Costs scan / single-leg / intersection over `candidates` and returns
  /// the cheapest plan for an extent of `extent_rows`.
  static Plan ChooseCheapest(std::vector<Candidate> candidates,
                             double extent_rows);

  std::vector<ObjectId> ExecuteIndexPlan(const Plan& plan, ClassId cls,
                                         const Predicate& p,
                                         bool include_specializations) const;
  std::vector<RelationshipId> ExecuteRelIndexPlan(
      const Plan& plan, AssociationId assoc,
      const std::vector<RelCondition>& conditions,
      bool include_specializations) const;

  /// True when `node`'s children should execute as concurrent plan-tree
  /// tasks: both are joined segments (leaf inputs are materialized and
  /// cost nothing to "execute") and both clear the policy's cost floor.
  bool ShouldForkChildren(const Node& node) const;

  const core::Database* db_;
  Algebra algebra_;
  exec::ExecPolicy policy_ = exec::ExecPolicy::Default();
};

}  // namespace seed::query

#endif  // SEED_QUERY_PLANNER_H_
