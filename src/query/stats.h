// Planner statistics and cost model.
//
// The planner costs every candidate access path for a selection and picks
// the cheapest. Its inputs are maintained incrementally, never scanned:
//
//  * extent sizes come from core::ExtentCounters (per-class/association
//    live counts updated by the same Index/Unindex hooks that keep the
//    database's retrieval maps current);
//  * per-index cardinality and distinct-key counts fall out of the
//    AttributeIndex's idempotent Set() maintenance (num_entries,
//    num_distinct_keys), so equality estimates are exact posting counts
//    and range estimates probe the ordered map with a bounded walk.
//
// Costs are in abstract row-visit units. The constants encode only the
// *relative* expense of the three kinds of work a plan performs:
//
//    kProbeCost     one index descend/hash probe           (cheap, fixed)
//    kPostingCost   producing one candidate id from postings
//    kResidualCost  fetching an item and re-evaluating the full
//                   predicate on it (what scans pay per extent row and
//                   index plans pay per candidate)
//
//    scan:        extent * kResidualCost
//    single leg:  probes * kProbeCost + rows * (kPostingCost + kResidualCost)
//    intersect:   sum over legs of probes * kProbeCost + rows * kPostingCost
//                 + intersected_rows * kResidualCost
//
// Intersection output is estimated under predicate independence:
// |A ∩ B| ≈ extent * (rows_A / extent) * (rows_B / extent). The model
// therefore chooses intersection exactly when every participating leg is
// selective enough that reading its postings costs less than the residual
// evaluations it saves — the classic break-even.
//
// Ties are broken deterministically: at equal cost an equality probe wins
// over a range scan, which wins over an intersection, which wins over the
// full scan. With empty statistics (fresh database, zero-sized extent)
// the scan costs 0 while any probe still pays kProbeCost, so the planner
// deterministically falls back to the (trivially free) scan — pinned by
// PlannerCostTest.EmptyStatsFallBackToScanDeterministically.

#ifndef SEED_QUERY_STATS_H_
#define SEED_QUERY_STATS_H_

#include <cstddef>

#include "index/attribute_index.h"

namespace seed::query {

struct CostModel {
  static constexpr double kProbeCost = 2.0;
  static constexpr double kPostingCost = 0.25;
  static constexpr double kResidualCost = 1.0;

  static double ScanCost(double extent_rows) {
    return extent_rows * kResidualCost;
  }

  /// One index access feeding the residual filter directly.
  static double SingleIndexCost(size_t probes, double est_rows) {
    return static_cast<double>(probes) * kProbeCost +
           est_rows * (kPostingCost + kResidualCost);
  }

  /// Reading one leg of an intersection (no residual yet).
  static double IntersectLegCost(size_t probes, double est_rows) {
    return static_cast<double>(probes) * kProbeCost +
           est_rows * kPostingCost;
  }

  /// The residual filter over the intersected candidate set.
  static double ResidualCost(double est_rows) {
    return est_rows * kResidualCost;
  }

  /// Independence-assumption estimate of an intersection's output size.
  static double IntersectRows(double rows_a, double rows_b,
                              double extent_rows) {
    if (extent_rows <= 0.0) return 0.0;
    return rows_a * (rows_b / extent_rows);
  }

  // --- Relationship joins ----------------------------------------------------
  //
  // Two physical strategies, costed from the association population
  // (ExtentCounters) and the input relation sizes:
  //
  //    hash:  assoc * (kPostingCost + kResidualCost)   materialize adjacency
  //           + build * kHashBuildCost                 hash-index one side
  //           + probe * kHashTupleCost                 stream the other
  //           + out * kPostingCost                     emit matches
  //    inl:   driver * kProbeCost                      RelationshipsOf probes
  //           + driver * degree * kResidualCost        fetch incident rels
  //           + build * kHashBuildCost                 hash the other side
  //           + out * kPostingCost
  //
  // `degree` is participation / extent of the driving side's class
  // family, where participation is the tracked per-(association, role,
  // class) count ExtentCounters maintains — exact, never scanned. For
  // inputs drawn from a role's target class this degenerates to the
  // uniform assoc / role_extent estimate; for a sparse specialization it
  // is far smaller, which is what lets the planner order a skewed join
  // chain correctly. The index-nested-loop wins exactly when the driving
  // side is small relative to its participation — a selective Select
  // feeding a join against a huge extent — and the hash join wins when
  // both inputs are of the association's own scale.
  //
  // Execution no longer materializes the association: both methods
  // stream one side through the database's maintained adjacency
  // (docs/execution.md, "Access paths") and differ only in which side
  // streams. The terms above are kept as they are so plan choices,
  // EXPLAIN output and rows visited stay pinned.

  /// Probing the tuple hash with one streamed tuple.
  static constexpr double kHashTupleCost = 0.25;
  /// Inserting one tuple into the build-side hash — dearer than a probe,
  /// which is what makes the smaller input the preferred build side.
  static constexpr double kHashBuildCost = 0.5;

  /// Per-object degree estimate: edges incident to one driving object.
  /// `participation_rows` is the number of edge ends the driving class
  /// family fills (the tracked participation count; callers without
  /// class statistics pass the association population, recovering the
  /// uniform estimate).
  static double JoinDegree(double participation_rows,
                           double role_extent_rows) {
    if (role_extent_rows <= 0.0) return participation_rows;
    return participation_rows / role_extent_rows;
  }

  /// Estimate of the join's output size: each matchable edge survives
  /// iff both of its ends landed in the respective input. `assoc_rows`
  /// is the matchable-edge count — min of the two sides' participation
  /// counts when class statistics exist, the association population
  /// otherwise. The coverage fractions are clamped — an input broader
  /// than the class extent (e.g. a generalization's extent) cannot make
  /// an edge match more than once.
  static double JoinRows(double assoc_rows, double left_rows,
                         double left_extent_rows, double right_rows,
                         double right_extent_rows);

  static double HashJoinCost(double assoc_rows, double build_rows,
                             double probe_rows, double out_rows);

  static double IndexNestedLoopJoinCost(double driver_rows, double degree,
                                        double build_rows, double out_rows);

  // --- Bushy tuple joins -----------------------------------------------------
  //
  // Algebra::TupleJoin merges two already-joined segments of a chain on
  // their shared binder column — a plain hash join over tuple sets, no
  // relationship traversal (every hop was already executed inside one of
  // the segments). It is the connector that admits bushy (segment x
  // segment) plans without ever forming a cartesian product.

  /// Output estimate for merging two segments that share a binder drawn
  /// from a `shared_extent_rows`-row input: each (left, right) pair
  /// survives iff both picked the same shared value — 1/extent under
  /// uniformity, capped at the cartesian bound.
  static double TupleJoinRows(double left_rows, double right_rows,
                              double shared_extent_rows);

  /// Hash the build side by the shared column, stream the probe side,
  /// emit the merged tuples.
  static double TupleJoinCost(double build_rows, double probe_rows,
                              double out_rows);
};

/// Exact number of postings matching any of `keys` (hash probes).
double EstimateEqualityRows(const index::AttributeIndex& index,
                            const std::vector<core::Value>& keys);

/// Bounded-walk estimate of postings inside the range (see
/// AttributeIndex::EstimateRange for the extrapolation rule).
double EstimateRangeRows(const index::AttributeIndex& index,
                         const core::Value& lo, bool lo_inclusive,
                         const core::Value& hi, bool hi_inclusive);

}  // namespace seed::query

#endif  // SEED_QUERY_STATS_H_
