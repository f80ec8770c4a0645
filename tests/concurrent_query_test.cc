// Concurrent textual queries against one database: the multiuser server
// plans and runs queries from many reader sessions at once, so the
// parse/plan/execute path must share nothing mutable between queries.
// Runs under the `parallel` ctest label, which the TSan CI job selects —
// the assertions here pin results-correctness (every concurrent answer
// equals a single-threaded run of the same query), the sanitizer pins
// the memory model.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "query/parser.h"
#include "schema/schema_builder.h"

namespace seed::query {
namespace {

using core::Database;
using core::Value;

TEST(ConcurrentQueryTest, ConcurrentReadersMatchSingleThreadedRun) {
  schema::SchemaBuilder b("ConcurrentQueryWorld");
  ClassId item = b.AddIndependentClass("Item", schema::ValueType::kInt);
  auto schema = b.Build();
  ASSERT_TRUE(schema.ok());
  auto db = std::make_unique<Database>(*schema);
  ASSERT_TRUE(db->CreateAttributeIndex({item, ""}).ok());
  std::vector<std::vector<ObjectId>> by_value(10);
  for (int i = 0; i < 200; ++i) {
    ObjectId id = *db->CreateObject(item, "I" + std::to_string(i));
    ASSERT_TRUE(db->SetValue(id, Value::Int(i % 10)).ok());
    by_value[static_cast<size_t>(i % 10)].push_back(id);
  }
  auto query = [](int v) {
    return "find Item where value is " + std::to_string(v);
  };

  // The single-threaded answers every concurrent one must equal.
  std::vector<std::vector<ObjectId>> expected(10);
  for (int v = 0; v < 10; ++v) {
    auto r = RunQuery(*db, query(v));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, by_value[static_cast<size_t>(v)]);
    expected[static_cast<size_t>(v)] = std::move(*r);
  }

  constexpr int kReaders = 6;
  constexpr int kItersPerReader = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  // Readers hammer the same handful of query shapes, each with a
  // different literal from its neighbours at any moment.
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerReader; ++i) {
        int v = (t + i) % 10;
        auto r = RunQuery(*db, query(v));
        if (!r.ok() || *r != expected[static_cast<size_t>(v)]) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace seed::query
