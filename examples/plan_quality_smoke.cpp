// Plan-quality smoke gate (run by CI): builds the skewed 5-hop chain the
// long-chain bench uses — tiny selective associations alternating with
// dense ones — at a small size, executes the DP-chosen plan tree and
// every explicit left-deep ordering, and compares *measured* rows
// visited (the sum of rows each plan node actually produced). The gate
// fails (exit 1) when the DP plan visits more than 2x the rows of the
// best sampled ordering: the optimizer may tie the best left-deep plan
// or beat it with a bushy tree, but it must never regress past the
// 2x guardrail. All plans are identity-checked against each other first.

#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "query/planner.h"

#include "../bench/skewed_chain.h"

namespace {

using seed::bench::BuildSkewedChain;
using seed::query::JoinShape;
using seed::query::Planner;

/// The registry's rows-visited counter — the same figure the trajectory
/// driver and EXPLAIN ANALYZE report (0 before the first query runs).
std::uint64_t RowsVisitedCounter() {
  const seed::obs::Counter* c =
      seed::obs::MetricsRegistry::Global().FindCounter(
          "query.rows.visited.total");
  return c == nullptr ? 0 : c->value();
}

}  // namespace

int main() {
  auto world = BuildSkewedChain(5000);
  Planner planner(world.db.get());

  Planner::PhysicalPlan dp_plan;
  std::uint64_t rows_before = RowsVisitedCounter();
  auto dp = planner.JoinPipeline(world.inputs, world.hops, {}, &dp_plan);
  if (!dp.ok()) {
    std::fprintf(stderr, "DP pipeline failed: %s\n",
                 dp.status().ToString().c_str());
    return 1;
  }
  // Rows visited comes from the metrics registry (the engine's one
  // source of truth), cross-checked against the plan tree's own
  // accounting so the two can never drift apart unnoticed.
  long long dp_rows =
      static_cast<long long>(RowsVisitedCounter() - rows_before);
  if (!seed::obs::MetricsEnabled()) {
    dp_rows = dp_plan.RowsVisited();  // SEED_METRICS=off: plan tree only
  } else if (dp_rows != dp_plan.RowsVisited()) {
    std::fprintf(stderr,
                 "accounting drift: registry counted %lld rows visited, "
                 "the plan tree reports %lld\n",
                 dp_rows, static_cast<long long>(dp_plan.RowsVisited()));
    return 1;
  }

  long long best_rows = -1;
  std::string best_order;
  for (const auto& order : Planner::LeftDeepOrders(world.hops.size())) {
    Planner::PhysicalPlan plan;
    auto r = planner.JoinPipeline(world.inputs, world.hops,
                                  JoinShape::LeftDeep(order), &plan);
    if (!r.ok()) {
      std::fprintf(stderr, "ordering failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    if (r->tuples != dp->tuples) {
      std::fprintf(stderr, "identity violation: an explicit ordering "
                           "disagrees with the DP plan\n");
      return 1;
    }
    long long rows = plan.RowsVisited();
    if (best_rows < 0 || rows < best_rows) {
      best_rows = rows;
      best_order.clear();
      for (int h : order) best_order += std::to_string(h);
    }
  }

  std::printf("plan-quality smoke: DP visited %lld rows (%s%s), best "
              "sampled left-deep ordering %s visited %lld rows\n",
              dp_rows, dp_plan.HasBushyJoin() ? "bushy tree: " : "",
              dp_plan.ToString().c_str(), best_order.c_str(), best_rows);
  if (dp_rows > 2 * best_rows) {
    std::fprintf(stderr,
                 "FAIL: DP plan visited %lld rows, more than 2x the best "
                 "sampled ordering's %lld\n",
                 dp_rows, best_rows);
    return 1;
  }
  std::printf("OK: DP plan is within 2x of the best sampled ordering\n");
  return 0;
}
