// Join differential test: every RelationshipJoin method x build side x
// left role must return the brute-force relation — the pairs of input
// tuples connected by a live non-pattern relationship of the association
// family in the requested direction. The random world has
// self-relationships, pattern relationships, deleted relationships and an
// association specialization; inputs include hand-built relations with
// repeated and unsorted join keys, and the sequential and morsel-parallel
// paths both run. Each call must also count under its own method's
// counter (algebra.join.{hash,inl}.total).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "obs/metrics.h"
#include "query/algebra.h"
#include "schema/schema_builder.h"

namespace seed::query {
namespace {

using core::CreateOptions;
using core::Database;
using Method = Algebra::JoinOptions::Method;
using Side = Algebra::JoinOptions::Side;
using Tuples = std::vector<std::vector<ObjectId>>;

struct JoinWorld {
  schema::SchemaPtr schema;
  ClassId node, special;        // Special specializes Node
  AssociationId edge, fast;     // Fast specializes Edge; both Node x Node
};

JoinWorld BuildJoinWorld() {
  schema::SchemaBuilder b("JoinWorld");
  JoinWorld w;
  w.node = b.AddIndependentClass("Node", schema::ValueType::kInt);
  w.special = b.AddIndependentClass("Special", schema::ValueType::kInt);
  b.SetGeneralization(w.special, w.node);
  w.edge = b.AddAssociation(
      "Edge", schema::Role{"src", w.node, schema::Cardinality::Any()},
      schema::Role{"dst", w.node, schema::Cardinality::Any()});
  w.fast = b.AddAssociation(
      "Fast", schema::Role{"src", w.node, schema::Cardinality::Any()},
      schema::Role{"dst", w.node, schema::Cardinality::Any()});
  b.SetGeneralization(w.fast, w.edge);
  auto schema = b.Build();
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  w.schema = *schema;
  return w;
}

/// Nested loops over both inputs and every raw relationship.
Tuples BruteJoin(const Database& db, const QueryRelation& a, int ia,
                 AssociationId assoc, const QueryRelation& b, int ib,
                 int left_role) {
  Tuples out;
  for (const auto& ta : a.tuples) {
    for (const auto& tb : b.tuples) {
      bool connected = false;
      for (const auto& [id, rel] : db.relationships_raw()) {
        if (rel.deleted || rel.is_pattern) continue;
        if (!db.schema()->IsSameOrSpecializationOf(rel.assoc, assoc)) {
          continue;
        }
        if (rel.ends[left_role] == ta[ia] &&
            rel.ends[1 - left_role] == tb[ib]) {
          connected = true;
          break;
        }
      }
      if (!connected) continue;
      std::vector<ObjectId> tuple = ta;
      tuple.insert(tuple.end(), tb.begin(), tb.end());
      out.push_back(std::move(tuple));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

/// A random relation over `objects` with columns `attrs`; the first
/// column repeats keys, and the tuples are left in generation order
/// (unsorted) unless `sorted`.
QueryRelation RandomRelation(Random* rng, const std::vector<ObjectId>& objects,
                             std::vector<std::string> attrs, size_t rows,
                             bool sorted) {
  QueryRelation rel;
  rel.attributes = std::move(attrs);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<ObjectId> tuple;
    for (size_t c = 0; c < rel.arity(); ++c) {
      tuple.push_back(rng->Pick(objects));
    }
    rel.tuples.push_back(std::move(tuple));
  }
  if (sorted) {
    std::sort(rel.tuples.begin(), rel.tuples.end());
    rel.tuples.erase(std::unique(rel.tuples.begin(), rel.tuples.end()),
                     rel.tuples.end());
  }
  return rel;
}

TEST(JoinDifferentialTest, EveryMethodSideAndRoleMatchesBruteForce) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Random rng(seed * 15485863);
    JoinWorld w = BuildJoinWorld();
    Database db(w.schema);
    std::vector<ObjectId> objects;
    for (int i = 0; i < 40; ++i) {
      objects.push_back(*db.CreateObject(rng.Bernoulli(0.4) ? w.special
                                                            : w.node,
                                         "N" + std::to_string(i)));
    }
    std::vector<RelationshipId> rels;
    for (int i = 0; i < 160; ++i) {
      ObjectId from = rng.Pick(objects);
      ObjectId to = rng.Bernoulli(0.1) ? from : rng.Pick(objects);
      CreateOptions opts;
      opts.pattern = rng.Bernoulli(0.15);
      auto rel = db.CreateRelationship(rng.Bernoulli(0.5) ? w.edge : w.fast,
                                       from, to, opts);
      if (rel.ok()) rels.push_back(*rel);
    }
    for (int i = 0; i < 20; ++i) {
      (void)db.DeleteRelationship(rng.Pick(rels));
    }

    Algebra algebra(&db);
    const std::vector<QueryRelation> lefts = {
        algebra.ClassExtent(w.node, "x"),
        algebra.ClassExtent(w.special, "x"),
        RandomRelation(&rng, objects, {"x", "p"}, 60, /*sorted=*/true),
        RandomRelation(&rng, objects, {"x", "p"}, 60, /*sorted=*/false),
    };
    const std::vector<QueryRelation> rights = {
        algebra.ClassExtent(w.node, "y"),
        RandomRelation(&rng, objects, {"q", "y"}, 50, /*sorted=*/false),
        RandomRelation(&rng, objects, {"y"}, 8, /*sorted=*/true),
    };

    for (int threads : {1, 4}) {
      exec::ExecPolicy policy;
      policy.threads = threads;
      policy.min_parallel_rows = 8;  // exercise the morsel path
      policy.morsel_rows = 7;
      algebra.set_exec_policy(policy);
      for (const QueryRelation& a : lefts) {
        for (const QueryRelation& b : rights) {
          const int ia = a.AttrIndex("x");
          const int ib = b.AttrIndex("y");
          for (AssociationId assoc : {w.edge, w.fast}) {
            for (int left_role : {0, 1}) {
              const Tuples expected =
                  BruteJoin(db, a, ia, assoc, b, ib, left_role);
              for (Method method : {Method::kHash, Method::kIndexNestedLoop}) {
                for (Side side : {Side::kLeft, Side::kRight}) {
                  Algebra::JoinOptions options;
                  options.method = method;
                  options.build_side = side;
                  options.left_role = left_role;
                  const std::uint64_t hash0 =
                      CounterValue("algebra.join.hash.total");
                  const std::uint64_t inl0 =
                      CounterValue("algebra.join.inl.total");
                  auto joined =
                      algebra.RelationshipJoin(a, "x", assoc, b, "y", options);
                  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
                  EXPECT_EQ(joined->tuples, expected)
                      << "seed " << seed << " threads " << threads
                      << " method " << static_cast<int>(method) << " side "
                      << static_cast<int>(side) << " role " << left_role;
                  const bool hash = method == Method::kHash;
                  EXPECT_EQ(CounterValue("algebra.join.hash.total") - hash0,
                            hash ? 1u : 0u);
                  EXPECT_EQ(CounterValue("algebra.join.inl.total") - inl0,
                            hash ? 0u : 1u);
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(JoinDifferentialTest, EmptyInputCountsNoJoin) {
  JoinWorld w = BuildJoinWorld();
  Database db(w.schema);
  ObjectId x = *db.CreateObject(w.node, "X");
  ASSERT_TRUE(db.CreateRelationship(w.edge, x, x).ok());
  Algebra algebra(&db);
  QueryRelation a = algebra.ClassExtent(w.node, "x");
  QueryRelation empty;
  empty.attributes = {"y"};
  const std::uint64_t hash0 = CounterValue("algebra.join.hash.total");
  auto joined = algebra.RelationshipJoin(a, "x", w.edge, empty, "y");
  ASSERT_TRUE(joined.ok());
  EXPECT_TRUE(joined->empty());
  EXPECT_EQ(CounterValue("algebra.join.hash.total"), hash0);
}

}  // namespace
}  // namespace seed::query
