// Snapshot-isolation properties of the multiuser server's read path
// (PR: snapshot reads + striped write locks). Readers pin an immutable
// snapshot per session; writers commit through striped locks. The
// contract under test: a reader's view is always one frozen, internally
// consistent database state — never a half-applied check-in — and
// holding write locks never blocks retrieval. Run under TSan via the
// `parallel` label.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "multiuser/client.h"
#include "multiuser/server.h"
#include "spades/spec_schema.h"
#include "version/snapshot.h"

namespace seed::multiuser {
namespace {

using core::Value;

constexpr int kPairs = 4;
constexpr int kReaders = 2;
constexpr int kWriters = 2;
constexpr int kReadsPerReader = 50;
/// Readers read on past kReadsPerReader until a writer has committed, so
/// the window always spans a commit; this caps the wait on a busy host.
constexpr std::chrono::seconds kCommitDeadline{10};

std::string LeftName(int p) { return "Left_" + std::to_string(p); }
std::string RightName(int p) { return "Right_" + std::to_string(p); }

/// The invariant every snapshot must satisfy: Left_p and Right_p carry
/// equal Description values. Writers only ever change both ends of a
/// pair inside one check-in, so any snapshot that splits a pair caught
/// a commit half-applied.
void ExpectPairsIntact(const core::Database& db) {
  for (int p = 0; p < kPairs; ++p) {
    auto left = db.FindObjectByName(LeftName(p));
    auto right = db.FindObjectByName(RightName(p));
    ASSERT_TRUE(left.ok() && right.ok());
    auto ld = db.SubObjects(*left, "Description");
    auto rd = db.SubObjects(*right, "Description");
    ASSERT_EQ(ld.size(), 1u);
    ASSERT_EQ(rd.size(), 1u);
    EXPECT_EQ(db.objects_raw().at(ld[0]).value,
              db.objects_raw().at(rd[0]).value)
        << "snapshot split pair " << p << ": torn read";
  }
}

class SnapshotIsolationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fig3 = spades::BuildFig3Schema();
    ASSERT_TRUE(fig3.ok());
    action_ = fig3->ids.action;
    server_ = std::make_unique<Server>(fig3->schema);
    core::Database* m = server_->master();
    for (int p = 0; p < kPairs; ++p) {
      for (const std::string& name : {LeftName(p), RightName(p)}) {
        auto root = m->CreateObject(fig3->ids.action, name);
        ASSERT_TRUE(root.ok());
        auto desc = m->CreateSubObject(*root, "Description");
        ASSERT_TRUE(desc.ok());
        ASSERT_TRUE(m->SetValue(*desc, Value::String("gen0")).ok());
      }
    }
    m->ClearChangeTracking();
    server_->PublishSnapshot();
  }

  /// Sets both Descriptions of the session's checked-out pair to `text`.
  static void EditPair(ClientSession* session, int p,
                       const std::string& text) {
    for (const std::string& name : {LeftName(p), RightName(p)}) {
      auto root = session->local()->FindObjectByName(name);
      ASSERT_TRUE(root.ok());
      auto descs = session->local()->SubObjects(*root, "Description");
      ASSERT_EQ(descs.size(), 1u);
      ASSERT_TRUE(
          session->local()->SetValue(descs[0], Value::String(text)).ok());
    }
  }

  std::unique_ptr<Server> server_;
  ClassId action_;
};

// Readers audit their pinned snapshots while a write storm commits pair
// mutations: every view must be audit-clean with every pair intact, and
// at least one read must have run while write locks were held.
TEST_F(SnapshotIsolationTest, ReadersSeeFrozenConsistentStatesDuringStorm) {
  std::atomic<bool> readers_done{false};
  std::atomic<int> reads_while_locked{0};
  std::atomic<std::uint64_t> writer_commits{0};

  // A pinned root (outside every pair) keeps at least one write lock
  // held for the whole reader window, so the reads-under-locks floor
  // does not depend on catching a writer mid-flight.
  auto pin_root = server_->master()->CreateObject(action_, "Pinned");
  ASSERT_TRUE(pin_root.ok());
  server_->master()->ClearChangeTracking();
  server_->PublishSnapshot();
  auto pinner = ClientSession::Open(server_.get(), "pinner");
  ASSERT_TRUE(pinner.ok());
  ASSERT_TRUE((*pinner)->Checkout({*pin_root}).ok());

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([this, &readers_done, &writer_commits, w] {
      auto session =
          ClientSession::Open(server_.get(), "writer-" + std::to_string(w));
      ASSERT_TRUE(session.ok());
      int gen = 1;
      // Keep committing until every reader finished, so reads race real
      // commits from start to end of the window.
      while (!readers_done.load(std::memory_order_acquire)) {
        int p = (w + gen) % kPairs;
        Status s = (*session)->CheckoutByName({LeftName(p), RightName(p)});
        if (s.IsLockConflict()) continue;  // other writer owns the pair
        ASSERT_TRUE(s.ok()) << s.ToString();
        EditPair(session->get(), p,
                 "w" + std::to_string(w) + ".g" + std::to_string(gen));
        ASSERT_TRUE((*session)->Checkin().ok());
        writer_commits.fetch_add(1, std::memory_order_relaxed);
        ++gen;
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([this, &reads_while_locked, &writer_commits, r] {
      auto session =
          ClientSession::Open(server_.get(), "reader-" + std::to_string(r));
      ASSERT_TRUE(session.ok());
      const auto deadline = std::chrono::steady_clock::now() + kCommitDeadline;
      for (int i = 0;
           i < kReadsPerReader ||
           (writer_commits.load(std::memory_order_relaxed) == 0 &&
            std::chrono::steady_clock::now() < deadline);
           ++i) {
        if (i % 8 == 7) {
          ASSERT_TRUE((*session)->Refresh().ok());
        }
        auto view = (*session)->View();
        ASSERT_TRUE(view.ok());
        const core::Database& db = (*view)->database();
        EXPECT_TRUE(db.AuditConsistency().clean())
            << "snapshot epoch " << (*view)->epoch()
            << " is not a consistent database state";
        ExpectPairsIntact(db);
        auto hits = server_->Query((*session)->id(),
                                   "find Action where name contains "
                                   "\"Left\"");
        ASSERT_TRUE(hits.ok());
        EXPECT_EQ(hits->size(), static_cast<size_t>(kPairs));
        if (server_->num_locks() > 0) {
          reads_while_locked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  readers_done.store(true, std::memory_order_release);
  for (std::thread& t : writers) t.join();
  ASSERT_TRUE((*pinner)->Abandon().ok());

  EXPECT_GE(reads_while_locked.load(), 1)
      << "no read overlapped a held write lock";
  EXPECT_GT(writer_commits.load(), 0u) << "the write storm never committed";
  EXPECT_EQ(server_->checkins_rejected(), 0u);
  // Reader progress while writers held stripes is the liveness half of
  // the contract; the reads completed (at least kReaders *
  // kReadsPerReader of them) with writers committing throughout, so
  // throughput was nonzero.
}

// Deterministic freeze semantics: a session's view does not move when
// other clients commit — only Refresh (or the session's own check-in)
// advances it.
TEST_F(SnapshotIsolationTest, ViewIsFrozenUntilRefresh) {
  auto reader = ClientSession::Open(server_.get(), "reader");
  ASSERT_TRUE(reader.ok());
  auto before = (*reader)->View();
  ASSERT_TRUE(before.ok());
  const std::uint64_t epoch_before = (*before)->epoch();

  // A writer holding locks must not block the reader's retrieval.
  auto writer = ClientSession::Open(server_.get(), "writer");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(
      (*writer)->CheckoutByName({LeftName(0), RightName(0)}).ok());
  ASSERT_GT(server_->num_locks(), 0u);
  for (int i = 0; i < 20; ++i) {
    auto hits = server_->Query((*reader)->id(),
                               "find Action where name contains \"Left\"");
    ASSERT_TRUE(hits.ok());
    EXPECT_EQ(hits->size(), static_cast<size_t>(kPairs));
  }

  // The writer commits; the reader's pinned view must not move...
  EditPair(writer->get(), 0, "updated");
  ASSERT_TRUE((*writer)->Checkin().ok());
  auto after_commit = (*reader)->View();
  ASSERT_TRUE(after_commit.ok());
  EXPECT_EQ((*after_commit)->epoch(), epoch_before)
      << "another client's commit moved this session's view";
  {
    const core::Database& db = (*after_commit)->database();
    auto left = db.FindObjectByName(LeftName(0));
    ASSERT_TRUE(left.ok());
    auto descs = db.SubObjects(*left, "Description");
    ASSERT_EQ(descs.size(), 1u);
    EXPECT_EQ(db.objects_raw().at(descs[0]).value, Value::String("gen0"))
        << "frozen view leaked a later commit";
  }

  // ...until Refresh pins the post-commit snapshot.
  ASSERT_TRUE((*reader)->Refresh().ok());
  auto refreshed = (*reader)->View();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_GT((*refreshed)->epoch(), epoch_before);
  const core::Database& db = (*refreshed)->database();
  auto left = db.FindObjectByName(LeftName(0));
  ASSERT_TRUE(left.ok());
  auto descs = db.SubObjects(*left, "Description");
  ASSERT_EQ(descs.size(), 1u);
  EXPECT_EQ(db.objects_raw().at(descs[0]).value, Value::String("updated"));
}

}  // namespace
}  // namespace seed::multiuser
