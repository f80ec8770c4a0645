// Parallel-execution subsystem tests: worker-pool semantics (morsel
// coverage, nested submit/await, publication at the Await barrier),
// ExecPolicy gating, and the engine's core parallel contract — query
// results are identical at every SEED_EXEC_THREADS setting and across
// repeated parallel runs (determinism), for join pipelines, textual
// chains through Planner::Run and scan/residual selection paths. Also
// pins the EstimateRange pro-rating fix: keys outside [lo, hi] must
// never inflate a range estimate.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "exec/exec_policy.h"
#include "exec/worker_pool.h"
#include "index/index_manager.h"
#include "obs/trace.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "schema/schema_builder.h"

namespace seed {
namespace {

using core::Database;
using core::Value;
using exec::ExecPolicy;
using exec::TaskGroup;
using exec::WorkerPool;
using query::Planner;
using query::Predicate;
using query::QueryRelation;

// --- Worker pool -------------------------------------------------------------

TEST(WorkerPool, ParallelForCoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> touched(kN);
  WorkerPool::Global().ParallelFor(8, kN, 64,
                                   [&](std::size_t begin, std::size_t end) {
                                     for (std::size_t i = begin; i < end; ++i) {
                                       touched[i].fetch_add(1);
                                     }
                                   });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPool, ParallelForSingleLaneRunsOneSpanInline) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  WorkerPool::Global().ParallelFor(1, 5000, 64,
                                   [&](std::size_t begin, std::size_t end) {
                                     spans.push_back({begin, end});
                                   });
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].first, 0u);
  EXPECT_EQ(spans[0].second, 5000u);
}

TEST(WorkerPool, MorselBoundariesAreGrainAligned) {
  std::atomic<bool> aligned{true};
  WorkerPool::Global().ParallelFor(4, 10000, 256,
                                   [&](std::size_t begin, std::size_t end) {
                                     if (begin % 256 != 0 || end > 10000) {
                                       aligned = false;
                                     }
                                   });
  EXPECT_TRUE(aligned.load());
}

TEST(WorkerPool, AwaitPublishesTaskWrites) {
  WorkerPool& pool = WorkerPool::Global();
  pool.EnsureWorkers(2);
  std::vector<int> results(64, 0);
  TaskGroup group;
  for (int t = 0; t < 64; ++t) {
    pool.Submit(&group, [&results, t] { results[t] = t + 1; });
  }
  pool.Await(&group);
  for (int t = 0; t < 64; ++t) {
    ASSERT_EQ(results[t], t + 1);
  }
}

TEST(WorkerPool, NestedParallelForInsideTasksDoesNotDeadlock) {
  WorkerPool& pool = WorkerPool::Global();
  pool.EnsureWorkers(3);
  std::atomic<long> total{0};
  TaskGroup group;
  for (int t = 0; t < 8; ++t) {
    pool.Submit(&group, [&total] {
      // A coarse task that itself fans out into morsels — the shape a
      // forked plan subtree running a partitioned join produces.
      WorkerPool::Global().ParallelFor(
          4, 1000, 100, [&total](std::size_t begin, std::size_t end) {
            total.fetch_add(static_cast<long>(end - begin));
          });
    });
  }
  pool.Await(&group);
  EXPECT_EQ(total.load(), 8 * 1000);
}

// --- ExecPolicy --------------------------------------------------------------

TEST(ExecPolicy, SingleThreadDisablesEveryParallelPath) {
  ExecPolicy policy;
  policy.threads = 1;
  EXPECT_FALSE(policy.parallel());
  EXPECT_FALSE(policy.ShouldPartition(1u << 20));
}

TEST(ExecPolicy, SmallInputsStaySequentialAtAnyThreadCount) {
  ExecPolicy policy;
  policy.threads = 8;
  EXPECT_TRUE(policy.parallel());
  EXPECT_FALSE(policy.ShouldPartition(policy.min_parallel_rows - 1));
  EXPECT_TRUE(policy.ShouldPartition(policy.min_parallel_rows));
}

TEST(ExecPolicy, SetDefaultThreadsClampsAndRoundTrips) {
  const int prior = exec::DefaultThreads();
  exec::SetDefaultThreads(3);
  EXPECT_EQ(exec::DefaultThreads(), 3);
  EXPECT_EQ(ExecPolicy::Default().threads, 3);
  exec::SetDefaultThreads(0);
  EXPECT_EQ(exec::DefaultThreads(), 1);
  exec::SetDefaultThreads(100000);
  EXPECT_EQ(exec::DefaultThreads(), 256);
  exec::SetDefaultThreads(prior);
}

// --- Thread-count invariance of query results --------------------------------

/// A 4-binder chain world big enough to clear every partition threshold:
/// n objects per class, n relationships per hop (near-permutation
/// wiring, so intermediates stay ~n rows and the hash/INL/tuple paths
/// all see real work).
struct ChainWorld {
  std::unique_ptr<Database> db;
  std::vector<QueryRelation> inputs;
  std::vector<Planner::PipelineHop> hops;
};

ChainWorld BuildChainWorld(int n) {
  schema::SchemaBuilder b("ParChain");
  std::vector<ClassId> cls;
  for (int i = 0; i < 4; ++i) {
    cls.push_back(b.AddIndependentClass("X" + std::to_string(i),
                                        schema::ValueType::kNone));
  }
  std::vector<AssociationId> assocs;
  for (int i = 0; i < 3; ++i) {
    assocs.push_back(b.AddAssociation(
        "E" + std::to_string(i),
        schema::Role{"l", cls[i], schema::Cardinality::Any()},
        schema::Role{"r", cls[i + 1], schema::Cardinality::Any()}));
  }
  ChainWorld world{std::make_unique<Database>(*b.Build()), {}, {}};
  std::vector<std::vector<ObjectId>> objs(4);
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < n; ++i) {
      objs[c].push_back(*world.db->CreateObject(
          cls[c], "X" + std::to_string(c) + "_" + std::to_string(i)));
    }
  }
  const int mul[3] = {7, 5, 3};
  const int add[3] = {3, 1, 2};
  for (int h = 0; h < 3; ++h) {
    for (int i = 0; i < n; ++i) {
      (void)world.db->CreateRelationship(
          assocs[h], objs[h][i], objs[h + 1][(i * mul[h] + add[h]) % n]);
    }
  }
  for (int c = 0; c < 4; ++c) {
    QueryRelation rel;
    rel.attributes = {"b" + std::to_string(c)};
    for (ObjectId id : objs[c]) rel.tuples.push_back({id});
    world.inputs.push_back(std::move(rel));
  }
  for (int h = 0; h < 3; ++h) {
    world.hops.push_back({assocs[h], 0, cls[h], cls[h + 1]});
  }
  return world;
}

QueryRelation RunChain(const ChainWorld& world, int threads) {
  Planner planner(world.db.get());
  ExecPolicy policy = planner.exec_policy();
  policy.threads = threads;
  planner.set_exec_policy(policy);
  auto out = planner.JoinPipeline(world.inputs, world.hops);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return *out;
}

TEST(ParallelExecution, JoinPipelineIdenticalAcrossThreadCounts) {
  ChainWorld world = BuildChainWorld(6000);
  QueryRelation base = RunChain(world, 1);
  ASSERT_GT(base.size(), 0u);
  for (int threads : {2, 8}) {
    QueryRelation parallel = RunChain(world, threads);
    EXPECT_EQ(parallel.attributes, base.attributes);
    ASSERT_EQ(parallel.tuples, base.tuples) << "threads=" << threads;
  }
}

TEST(ParallelExecution, RepeatedParallelRunsAreDeterministic) {
  ChainWorld world = BuildChainWorld(5000);
  QueryRelation first = RunChain(world, 8);
  for (int run = 0; run < 3; ++run) {
    QueryRelation again = RunChain(world, 8);
    ASSERT_EQ(again.tuples, first.tuples) << "run " << run;
  }
}

TEST(ParallelExecution, ExplicitBushySplitIdenticalAcrossThreadCounts) {
  ChainWorld world = BuildChainWorld(5000);
  auto run_split = [&](int threads) {
    Planner planner(world.db.get());
    ExecPolicy policy = planner.exec_policy();
    policy.threads = threads;
    // Force subtree forking for any joined-segment pair so the
    // concurrent plan-tree path executes even when the DP's cost
    // estimates would not clear the default floor.
    policy.min_parallel_cost = 0.0;
    planner.set_exec_policy(policy);
    auto out = planner.JoinPipeline(
        world.inputs, world.hops,
        query::JoinShape::Split(/*m=*/1, /*tuple_join=*/true));
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return *out;
  };
  QueryRelation base = run_split(1);
  ASSERT_GT(base.size(), 0u);
  QueryRelation parallel = run_split(8);
  ASSERT_EQ(parallel.tuples, base.tuples);
}

TEST(ParallelExecution, BushyChainThroughRunIdenticalAcrossThreadCounts) {
  // The small-huge-small chain logical_plan_test pins: the DP crosses the
  // dense middle hop with a hop join of two reduced segments. Run (the
  // textual path) executes that tree through the same executor as
  // JoinPipeline, so the two joined subtrees fork onto the pool.
  schema::SchemaBuilder b("BushyRun");
  std::vector<ClassId> cls;
  for (const char* name : {"A", "B", "C", "D"}) {
    cls.push_back(b.AddIndependentClass(name, schema::ValueType::kNone));
  }
  std::vector<AssociationId> assocs;
  for (int i = 0; i < 3; ++i) {
    assocs.push_back(b.AddAssociation(
        "H" + std::to_string(i),
        schema::Role{"l", cls[i], schema::Cardinality::Any()},
        schema::Role{"r", cls[i + 1], schema::Cardinality::Any()}));
  }
  Database db(*b.Build());
  std::vector<std::vector<ObjectId>> objs(4);
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 100; ++i) {
      objs[c].push_back(*db.CreateObject(
          cls[c], "X" + std::to_string(c) + "_" + std::to_string(i)));
    }
  }
  for (int i = 0; i < 8; ++i) {
    (void)*db.CreateRelationship(assocs[0], objs[0][i], objs[1][i]);
    (void)*db.CreateRelationship(assocs[2], objs[2][i], objs[3][i]);
  }
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 40; ++j) {
      (void)*db.CreateRelationship(assocs[1], objs[1][i],
                                   objs[2][(i + j * 13) % 100]);
    }
  }
  query::LogicalChain chain;
  for (int c = 0; c < 4; ++c) {
    chain.binders.push_back(
        query::LogicalSelect::Objects(cls[c], "b" + std::to_string(c)));
  }
  for (int h = 0; h < 3; ++h) chain.hops.push_back({assocs[h], 0});

  auto run = [&](int threads, Planner::PhysicalPlan* plan) {
    Planner planner(&db);
    ExecPolicy policy = planner.exec_policy();
    policy.threads = threads;
    policy.min_parallel_cost = 0.0;
    planner.set_exec_policy(policy);
    obs::ExecContext ctx;
    auto out = planner.Run(chain, plan, &ctx);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? out->tuples : QueryRelation();
  };
  Planner::PhysicalPlan base_plan;
  QueryRelation base = run(1, &base_plan);
  ASSERT_GT(base.size(), 0u);
  using Kind = Planner::PhysicalPlan::Node::Kind;
  ASSERT_NE(base_plan.root, nullptr);
  EXPECT_EQ(base_plan.root->kind, Kind::kHopJoin) << base_plan.ToString();
  EXPECT_NE(base_plan.root->left->kind, Kind::kInput) << base_plan.ToString();
  EXPECT_NE(base_plan.root->right->kind, Kind::kInput)
      << base_plan.ToString();
  for (int threads : {2, 8}) {
    Planner::PhysicalPlan plan;
    QueryRelation parallel = run(threads, &plan);
    EXPECT_EQ(parallel.attributes, base.attributes);
    ASSERT_EQ(parallel.tuples, base.tuples) << "threads=" << threads;
    EXPECT_EQ(plan.ToAnalyzeString(/*mask_times=*/true),
              base_plan.ToAnalyzeString(/*mask_times=*/true))
        << "threads=" << threads;
  }
}

TEST(ParallelExecution, ScanSelectionIdenticalAcrossThreadCounts) {
  schema::SchemaBuilder b("ScanWorld");
  ClassId sensor = b.AddIndependentClass("Sensor", schema::ValueType::kInt);
  Database db(*b.Build());
  for (int i = 0; i < 10000; ++i) {
    ObjectId id = *db.CreateObject(sensor, "S" + std::to_string(i));
    (void)db.SetValue(id, Value::Int(i % 977));
  }
  Predicate p = Predicate::IntGreater(400);
  auto run = [&](int threads) {
    Planner planner(&db);
    ExecPolicy policy = planner.exec_policy();
    policy.threads = threads;
    planner.set_exec_policy(policy);
    return planner.SelectIds(sensor, p);
  };
  std::vector<ObjectId> base = run(1);
  ASSERT_GT(base.size(), 0u);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
}

// --- EstimateRange pro-rating regression -------------------------------------

class EstimateRangeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema::SchemaBuilder b("RangeWorld");
    sensor_ = b.AddIndependentClass("Sensor", schema::ValueType::kInt);
    db_ = std::make_unique<Database>(*b.Build());
    // 10000 objects with 10000 distinct keys 0..9999.
    for (int i = 0; i < 10000; ++i) {
      ObjectId id = *db_->CreateObject(sensor_, "S" + std::to_string(i));
      ASSERT_TRUE(db_->SetValue(id, Value::Int(i)).ok());
    }
    ASSERT_TRUE(db_->CreateAttributeIndex({sensor_, ""}).ok());
    index_ = db_->attribute_indexes().Find({sensor_, ""});
    ASSERT_NE(index_, nullptr);
    ASSERT_EQ(index_->num_entries(), 10000u);
  }

  std::unique_ptr<Database> db_;
  ClassId sensor_;
  const index::AttributeIndex* index_ = nullptr;
};

TEST_F(EstimateRangeTest, WideEmptyRangeEstimatesZero) {
  // Every key sits below the range: the pre-fix pro-rating counted all
  // remaining keys of the index and answered ~num_entries here.
  EXPECT_EQ(index_->EstimateRange(Value::Int(20000), true,
                                  Value::Int(1000000000), true),
            0.0);
  // Zero probe budget used to answer num_entries even for a provably
  // empty range.
  EXPECT_EQ(index_->EstimateRange(Value::Int(20000), true,
                                  Value::Int(1000000000), true,
                                  /*probe_limit=*/0),
            0.0);
}

TEST_F(EstimateRangeTest, NarrowTailRangeIsCountedExactly) {
  // 99 keys (9901..9999) — more than the 64-key probe budget, fewer
  // than twice that. The bounded extra walk makes this exact; the old
  // estimator pro-rated over all ~9936 unvisited keys and answered
  // ~num_entries (off by 100x).
  EXPECT_EQ(index_->EstimateRange(Value::Int(9900), false,
                                  Value::Int(1000000000), true),
            99.0);
}

TEST_F(EstimateRangeTest, BackwardsAndDegenerateRangesAreEmpty) {
  EXPECT_EQ(index_->EstimateRange(Value::Int(500), true, Value::Int(100),
                                  true),
            0.0);
  EXPECT_EQ(index_->EstimateRange(Value::Int(500), false, Value::Int(500),
                                  true),
            0.0);
  EXPECT_EQ(index_->EstimateRange(Value::Int(500), true, Value::Int(500),
                                  true),
            1.0);
}

TEST_F(EstimateRangeTest, WideFullRangeStillEstimatesHigh) {
  // The safe direction is preserved: a genuinely wide range (10000 keys,
  // uniform density) still pro-rates to the full entry count.
  double est = index_->EstimateRange(Value::Int(0), true, Value::Int(9999),
                                     true);
  EXPECT_GE(est, 9000.0);
  EXPECT_LE(est, 10000.0);
}

TEST_F(EstimateRangeTest, ShortRangesAreExactWithinBudget) {
  EXPECT_EQ(index_->EstimateRange(Value::Int(10), true, Value::Int(19),
                                  true),
            10.0);
  EXPECT_EQ(index_->EstimateRange(Value::Int(10), false, Value::Int(19),
                                  false),
            8.0);
}

}  // namespace
}  // namespace seed
