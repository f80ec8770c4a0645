// Planning without a plan cache: every query plans from its own live
// literals and statistics, and Planner::Run runs the join DP once per
// chain, from the materialized binders' actual sizes inside
// JoinPipeline. So the same shape with another literal or after the data
// grew plans afresh, and a chain whose intermediate the estimates badly
// miss still returns the brute-force result.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/database.h"
#include "query/logical.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "schema/schema_builder.h"

namespace seed::query {
namespace {

using core::Database;
using core::Value;

// Nothing is cached between queries: every Run plans from the live
// literals and statistics. The same query shape with another literal
// returns that literal's brute-force rows, and once the extent grows the
// printed estimates follow it.
TEST(FreshPlanningTest, EveryQueryPlansFromLiveLiteralsAndStatistics) {
  schema::SchemaBuilder b("FreshWorld");
  ClassId item = b.AddIndependentClass("Item", schema::ValueType::kInt);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  Database db(*schema);
  ASSERT_TRUE(db.CreateAttributeIndex({item, ""}).ok());
  auto add = [&](int n, const std::string& prefix) {
    for (int i = 0; i < n; ++i) {
      ObjectId id = *db.CreateObject(item, prefix + std::to_string(i));
      ASSERT_TRUE(db.SetValue(id, Value::Int(i % 10)).ok());
    }
  };
  auto brute = [&](int v) {
    std::vector<ObjectId> out;
    for (ObjectId id : db.ObjectsOfClass(item)) {
      const Value& value = (*db.GetObject(id))->value;
      if (value.is_int() && value.as_int() == v) out.push_back(id);
    }
    return out;
  };
  add(120, "I");

  std::string plan3, plan7;
  auto three = RunQuery(db, "find Item where value is 3", &plan3);
  auto seven = RunQuery(db, "find Item where value is 7", &plan7);
  ASSERT_TRUE(three.ok()) << three.status().ToString();
  ASSERT_TRUE(seven.ok()) << seven.status().ToString();
  EXPECT_EQ(*three, brute(3));
  EXPECT_EQ(*seven, brute(7));
  EXPECT_NE(plan3.find("index-equals"), std::string::npos) << plan3;

  add(260, "D");
  std::string grown_plan;
  auto grown = RunQuery(db, "find Item where value is 3", &grown_plan);
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(*grown, brute(3));
  EXPECT_NE(grown_plan, plan3) << grown_plan;
}

// --- One DP per chain --------------------------------------------------------

// Run plans only the access paths up front; the join tree it executes is
// the one JoinPipeline's DP picks from the materialized binders' actual
// sizes, while Optimize (which executes nothing) costs its tree from the
// access-path estimates.
TEST(OneDpTest, RunPlansTheJoinTreeFromActualBinderSizes) {
  schema::SchemaBuilder b("OneDpWorld");
  ClassId a_cls = b.AddIndependentClass("A", schema::ValueType::kInt);
  ClassId b_cls = b.AddIndependentClass("B", schema::ValueType::kNone);
  ClassId c_cls = b.AddIndependentClass("C", schema::ValueType::kNone);
  AssociationId ab = b.AddAssociation(
      "AB", schema::Role{"a", a_cls, schema::Cardinality::Any()},
      schema::Role{"b", b_cls, schema::Cardinality::Any()});
  AssociationId bc = b.AddAssociation(
      "BC", schema::Role{"b", b_cls, schema::Cardinality::Any()},
      schema::Role{"c", c_cls, schema::Cardinality::Any()});
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  Database db(*schema);
  std::vector<ObjectId> as, bs, cs;
  for (int i = 0; i < 60; ++i) {
    as.push_back(*db.CreateObject(a_cls, "A" + std::to_string(i)));
    ASSERT_TRUE(db.SetValue(as.back(), Value::Int(i % 30)).ok());
    bs.push_back(*db.CreateObject(b_cls, "B" + std::to_string(i)));
    cs.push_back(*db.CreateObject(c_cls, "C" + std::to_string(i)));
  }
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(db.CreateRelationship(ab, as[i], bs[(i * 7) % 60]).ok());
    ASSERT_TRUE(db.CreateRelationship(bc, bs[i], cs[(i * 11) % 60]).ok());
  }

  // No index: the scan estimate for x is the whole extent, while the
  // residual keeps two rows.
  LogicalChain chain;
  chain.binders.push_back(LogicalSelect::Objects(
      a_cls, "x", Predicate::ValueEquals(Value::Int(4))));
  chain.binders.push_back(LogicalSelect::Objects(b_cls, "y"));
  chain.binders.push_back(LogicalSelect::Objects(c_cls, "z"));
  chain.hops.push_back({ab, 0});
  chain.hops.push_back({bc, 0});

  Planner planner(&db);
  Planner::PhysicalPlan run_plan;
  auto run = planner.Run(chain, &run_plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  std::vector<QueryRelation> inputs;
  for (const LogicalSelect& binder : chain.binders) {
    QueryRelation rel;
    rel.attributes = {binder.binder};
    for (ObjectId id : planner.SelectIds(binder.cls, binder.pred)) {
      rel.tuples.push_back({id});
    }
    inputs.push_back(std::move(rel));
  }
  ASSERT_EQ(inputs[0].size(), 2u);
  std::vector<Planner::PipelineHop> hops = {{ab, 0, a_cls, b_cls},
                                            {bc, 0, b_cls, c_cls}};
  Planner::PhysicalPlan pipeline_plan;
  auto piped = planner.JoinPipeline(inputs, hops, {}, &pipeline_plan);
  ASSERT_TRUE(piped.ok()) << piped.status().ToString();
  EXPECT_EQ(run->tuples.tuples, piped->tuples);
  EXPECT_EQ(run_plan.root->ToString(run_plan.binders),
            pipeline_plan.root->ToString(pipeline_plan.binders));

  // The estimate-only tree sizes x by its whole extent, so it prints
  // other join inputs than the executed one.
  auto optimized = planner.Optimize(chain);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(optimized->selects[0].est_rows, 60.0);
  EXPECT_NE(optimized->root->ToString(optimized->binders),
            run_plan.root->ToString(run_plan.binders));
}

// --- Misestimated chains -----------------------------------------------------

/// A world built to mis-estimate: one hub Item holds every Link edge,
/// so a selection down to the hub estimates ~assoc/extent joined rows
/// while actually producing the association's whole population.
TEST(SkewedChainTest, SkewedHubChainMatchesBruteForce) {
  schema::SchemaBuilder b("SkewWorld");
  ClassId a_cls = b.AddIndependentClass("A", schema::ValueType::kInt);
  ClassId b_cls = b.AddIndependentClass("B", schema::ValueType::kNone);
  ClassId c_cls = b.AddIndependentClass("C", schema::ValueType::kNone);
  AssociationId ab = b.AddAssociation(
      "AB", schema::Role{"a", a_cls, schema::Cardinality::Any()},
      schema::Role{"b", b_cls, schema::Cardinality::Any()});
  AssociationId bc = b.AddAssociation(
      "BC", schema::Role{"b", b_cls, schema::Cardinality::Any()},
      schema::Role{"c", c_cls, schema::Cardinality::Any()});
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  Database db(*schema);

  std::vector<ObjectId> as, bs, cs;
  for (int i = 0; i < 100; ++i) {
    as.push_back(*db.CreateObject(a_cls, "A" + std::to_string(i)));
    cs.push_back(*db.CreateObject(c_cls, "C" + std::to_string(i)));
  }
  for (int i = 0; i < 200; ++i) {
    bs.push_back(*db.CreateObject(b_cls, "B" + std::to_string(i)));
  }
  // Only the hub carries value 7; every AB edge hangs off it. The
  // uniform coverage model sees 1-of-100 selectivity over 200 edges and
  // estimates ~2 joined rows; execution produces all 200.
  ASSERT_TRUE(db.SetValue(as[0], Value::Int(7)).ok());
  for (int i = 1; i < 100; ++i) {
    ASSERT_TRUE(db.SetValue(as[i], Value::Int(i % 5)).ok());
  }
  std::vector<std::vector<ObjectId>> expected;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.CreateRelationship(ab, as[0], bs[i]).ok());
    ASSERT_TRUE(db.CreateRelationship(bc, bs[i], cs[i % 100]).ok());
    expected.push_back({as[0], bs[i], cs[i % 100]});
  }
  std::sort(expected.begin(), expected.end());

  QueryTrace trace;
  auto r = RunJoinChainQuery(db,
                             "find A x join via AB to B y "
                             "join via BC to C z where x value is 7",
                             nullptr, &trace);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->tuples, expected);
}

}  // namespace
}  // namespace seed::query
