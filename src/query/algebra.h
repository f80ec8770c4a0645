// A small entity-relationship algebra (after Parent & Spaccapietra [10],
// cited by the paper): relations over object ids with named attributes,
// closed under selection, projection, cartesian product, and a join that is
// "defined on existing relationships only" — which is what makes undefined
// and incomplete items harmless in query evaluation.
//
// The SEED prototype itself only shipped retrieval-by-name; this module is
// the natural extension the paper's RELATED WORK section points at.
//
// Execution is morsel-driven (docs/execution.md): every operator's heavy
// loop is written over a contiguous span of its input, and when the
// instance's ExecPolicy allows parallelism and the input clears the
// partition threshold, those spans become morsels claimed by the shared
// worker pool — per-morsel outputs are concatenated in morsel order (and
// joins Dedup anyway), so results are identical to the sequential path
// at every thread count. At threads == 1 the sequential code runs
// unchanged. All Database access on these paths is read-only; callers
// must not mutate the database while a query executes.

#ifndef SEED_QUERY_ALGEBRA_H_
#define SEED_QUERY_ALGEBRA_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/database.h"
#include "exec/exec_policy.h"
#include "query/predicate.h"

namespace seed::query {

/// A relation: named columns of object ids, set semantics — every
/// operator emits tuples sorted ascending with duplicates removed, and
/// the set operators below rely on that to run linear merges (hand-built
/// relations violating it are normalized on the way in).
struct QueryRelation {
  std::vector<std::string> attributes;
  std::vector<std::vector<ObjectId>> tuples;

  size_t arity() const { return attributes.size(); }
  size_t size() const { return tuples.size(); }
  bool empty() const { return tuples.empty(); }

  /// Index of an attribute, or -1.
  int AttrIndex(std::string_view name) const;
};

class Algebra {
 public:
  explicit Algebra(const core::Database* db)
      : db_(db), policy_(exec::ExecPolicy::Default()) {}

  /// Replaces the execution policy snapshotted at construction (the
  /// Planner forwards its own policy so a query sees one consistent
  /// setting across planning and execution).
  void set_exec_policy(const exec::ExecPolicy& policy) { policy_ = policy; }
  const exec::ExecPolicy& exec_policy() const { return policy_; }

  /// Unary relation of all live objects of `cls` (specializations
  /// included unless disabled).
  QueryRelation ClassExtent(ClassId cls, std::string attribute,
                            bool include_specializations = true) const;

  /// Tuples whose `attribute` satisfies `p`.
  Result<QueryRelation> Select(const QueryRelation& in,
                               std::string_view attribute,
                               const Predicate& p) const;

  /// Keeps the listed attributes (deduplicates). Duplicate names in
  /// `keep` are rejected: the second copy of a column would be
  /// unreachable through AttrIndex and would poison later Union /
  /// Difference arity checks.
  Result<QueryRelation> Project(const QueryRelation& in,
                                const std::vector<std::string>& keep) const;

  /// All combinations; attribute sets must be disjoint.
  Result<QueryRelation> CartesianProduct(const QueryRelation& a,
                                         const QueryRelation& b) const;

  /// Physical execution choice for RelationshipJoin, normally made by
  /// Planner::PlanJoin from the extent statistics. Every variant computes
  /// the same relation; only the work differs.
  struct JoinOptions {
    /// Both methods walk the database's maintained per-object adjacency
    /// from each streamed tuple and look the partner up in an index over
    /// the other input (docs/execution.md, "Access paths"); the
    /// association extent is never materialized. They differ in which
    /// side streams, and the planner costs them apart.
    enum class Method {
      /// Index `build_side`, stream the other input.
      kHash,
      /// Drive the per-tuple adjacency probes from `build_side`, index
      /// the other input. Wins when the driving side is small and the
      /// association is large.
      kIndexNestedLoop,
    };
    enum class Side { kLeft, kRight };

    Method method = Method::kHash;
    /// kHash: the side whose tuples are indexed (the other streams).
    /// kIndexNestedLoop: the side that drives the per-tuple probes.
    Side build_side = Side::kRight;
    /// Role the left relation's join attribute binds: 0 (the historical
    /// direction) or 1 (reverse — left objects sit at the role-1 end).
    int left_role = 0;
  };

  /// Joins `a` and `b` on relationships of `assoc` (family included):
  /// keeps (ta, tb) iff a relationship connects ta[attr_a] in role
  /// `left_role` with tb[attr_b] in the opposite role. Undefined items
  /// participate in no relationships, so they simply never join.
  /// The default overload joins in the role0->role1 direction and picks
  /// the hash build side from the input sizes; pass explicit options
  /// (e.g. from Planner::PlanJoin) to control strategy and direction.
  Result<QueryRelation> RelationshipJoin(const QueryRelation& a,
                                         std::string_view attr_a,
                                         AssociationId assoc,
                                         const QueryRelation& b,
                                         std::string_view attr_b) const;
  Result<QueryRelation> RelationshipJoin(const QueryRelation& a,
                                         std::string_view attr_a,
                                         AssociationId assoc,
                                         const QueryRelation& b,
                                         std::string_view attr_b,
                                         const JoinOptions& options) const;

  /// Joins two relations on their one shared attribute `shared` (a
  /// natural join on that column): keeps (ta, tb) iff ta[shared] ==
  /// tb[shared], emitting a's columns followed by b's minus the shared
  /// duplicate. The bushy connector for join-chain plans: two
  /// independently computed chain segments that overlap in one binder
  /// merge on that binder's column — pure tuple matching, no
  /// relationship traversal and never a cartesian product. All other
  /// attributes must be disjoint. The smaller input is indexed.
  Result<QueryRelation> TupleJoin(const QueryRelation& a,
                                  const QueryRelation& b,
                                  std::string_view shared) const;

  /// Set union (same attribute lists required).
  Result<QueryRelation> Union(const QueryRelation& a,
                              const QueryRelation& b) const;

  /// Set difference a \ b (same attribute lists required). Linear merge
  /// over the operators' sorted+deduplicated tuple order.
  Result<QueryRelation> Difference(const QueryRelation& a,
                                   const QueryRelation& b) const;

  /// Set intersection (same attribute lists required). Linear merge, as
  /// Difference.
  Result<QueryRelation> Intersect(const QueryRelation& a,
                                  const QueryRelation& b) const;

 private:
  void Dedup(QueryRelation* rel) const;

  const core::Database* db_;
  exec::ExecPolicy policy_;
};

}  // namespace seed::query

#endif  // SEED_QUERY_ALGEBRA_H_
