#include "multiuser/server.h"

#include <algorithm>
#include <unordered_set>

#include "common/macros.h"
#include "obs/metrics.h"

namespace seed::multiuser {

namespace {
/// Ids 2^40 apart can never collide between clients.
constexpr std::uint64_t kStripeSize = 1ull << 40;

obs::Gauge* SessionsGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge(
      "multiuser.sessions.connected");
  return gauge;
}

obs::Gauge* LocksHeldGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("server.locks.held");
  return gauge;
}

void CountCheckinRejected() {
  static obs::Counter* rejected = obs::MetricsRegistry::Global().GetCounter(
      "multiuser.checkins.rejected.total");
  rejected->Increment();
}

void CountSnapshotPin() {
  static obs::Counter* pins = obs::MetricsRegistry::Global().GetCounter(
      "server.snapshot.pins.total");
  pins->Increment();
}

/// Latency of the check-in stages under the master mutex, and of the
/// server side of a checkout (docs/metrics.md).
struct StageHistograms {
  obs::Histogram* lock_wait;
  obs::Histogram* apply;
  obs::Histogram* audit;
  obs::Histogram* publish;
  obs::Histogram* checkout;
};

const StageHistograms& Stages() {
  static const StageHistograms stages = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return StageHistograms{
        registry.GetHistogram("server.checkin.lock_wait.ns"),
        registry.GetHistogram("server.checkin.apply.ns"),
        registry.GetHistogram("server.checkin.audit.ns"),
        registry.GetHistogram("server.checkin.publish.ns"),
        registry.GetHistogram("server.checkout.ns")};
  }();
  return stages;
}
}  // namespace

Server::Server(schema::SchemaPtr schema) : schema_(std::move(schema)) {
  master_ = std::make_unique<core::Database>(schema_);
  versions_ = std::make_unique<version::VersionManager>(master_.get());
  Stages();  // registered up front, so an idle server exports zeros
}

Result<ClientId> Server::Connect(std::string client_name) {
  common::MutexLock lock(sessions_mu_);
  ClientId id = client_ids_.Next();
  ClientInfo info;
  info.name = std::move(client_name);
  info.stripe_base = next_stripe_ * kStripeSize;
  ++next_stripe_;
  clients_[id] = std::move(info);
  SessionsGauge()->Add(1);
  return id;
}

Status Server::Disconnect(ClientId client) {
  // The session's pin is dropped after sessions_mu_ is released: freeing
  // a snapshot is not free, and every reader's Query takes that mutex.
  version::SnapshotPtr pin;
  {
    common::MutexLock lock(sessions_mu_);
    auto it = clients_.find(client);
    if (it == clients_.end()) {
      return Status::NotFound("client " + std::to_string(client.raw()));
    }
    pin = std::move(it->second.snapshot);
    clients_.erase(it);
    SessionsGauge()->Add(-1);
  }
  // Release every lock the client still holds.
  locks_.ReleaseAllOf(client);
  LocksHeldGauge()->Set(static_cast<std::int64_t>(locks_.num_held()));
  return Status::OK();
}

Result<std::uint64_t> Server::IdStripeBase(ClientId client) const {
  common::MutexLock lock(sessions_mu_);
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    return Status::NotFound("client " + std::to_string(client.raw()));
  }
  return it->second.stripe_base;
}

// --- Snapshots ---------------------------------------------------------------

version::SnapshotPtr Server::PublishSnapshotLocked() {
  std::uint64_t epoch = snapshot_epoch_.load(std::memory_order_relaxed) + 1;
  version::SnapshotPtr snap = version::Snapshot::Capture(*master_, epoch);
  {
    common::MutexLock lock(snapshot_mu_);
    current_snapshot_.swap(snap);
  }
  snapshot_epoch_.store(epoch, std::memory_order_release);
  static obs::Counter* publishes = obs::MetricsRegistry::Global().GetCounter(
      "server.snapshot.publishes.total");
  publishes->Increment();
  static obs::Gauge* epoch_gauge =
      obs::MetricsRegistry::Global().GetGauge("server.snapshot.epoch");
  epoch_gauge->Set(static_cast<std::int64_t>(epoch));
  return snap;
}

void Server::PublishSnapshot() {
  version::SnapshotPtr displaced;
  common::MutexLock lock(master_mu_);
  displaced = PublishSnapshotLocked();
}

version::SnapshotPtr Server::PinLatest() {
  {
    common::MutexLock lock(snapshot_mu_);
    if (current_snapshot_ != nullptr) return current_snapshot_;
  }
  // Nothing published yet: capture the initial snapshot. Two racing first
  // pins may both publish; the second simply becomes the newer epoch.
  PublishSnapshot();
  common::MutexLock lock(snapshot_mu_);
  return current_snapshot_;
}

version::SnapshotPtr Server::PinSnapshot() {
  CountSnapshotPin();
  return PinLatest();
}

Result<version::SnapshotPtr> Server::SessionSnapshot(ClientId client) {
  {
    common::MutexLock lock(sessions_mu_);
    auto it = clients_.find(client);
    if (it == clients_.end()) {
      return Status::NotFound("client " + std::to_string(client.raw()));
    }
    if (it->second.snapshot != nullptr) {
      CountSnapshotPin();
      return it->second.snapshot;
    }
  }
  version::SnapshotPtr snap = PinLatest();
  common::MutexLock lock(sessions_mu_);
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    return Status::NotFound("client " + std::to_string(client.raw()));
  }
  // First read of this session; a concurrent refresh may have pinned one
  // in the window above, in which case that pin wins (and `snap` is
  // released after the lock, like every displaced pin).
  if (it->second.snapshot == nullptr) it->second.snapshot.swap(snap);
  CountSnapshotPin();
  return it->second.snapshot;
}

Status Server::RefreshSession(ClientId client) {
  version::SnapshotPtr snap = PinLatest();
  common::MutexLock lock(sessions_mu_);
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    return Status::NotFound("client " + std::to_string(client.raw()));
  }
  // The displaced pin lands in `snap`, released after the lock.
  it->second.snapshot.swap(snap);
  CountSnapshotPin();
  return Status::OK();
}

Result<ObjectId> Server::ResolveRoot(std::string_view name) const {
  common::MutexLock lock(master_mu_);
  return master_->FindObjectByName(name);
}

Result<std::vector<ObjectId>> Server::Query(ClientId client,
                                            std::string_view text,
                                            std::string* plan_out,
                                            query::QueryTrace* trace) {
  static obs::Counter* queries =
      obs::MetricsRegistry::Global().GetCounter("server.queries.total");
  queries->Increment();
  // The local pin keeps the snapshot alive for the whole query, even if
  // a concurrent commit republishes the session's snapshot meanwhile.
  SEED_ASSIGN_OR_RETURN(version::SnapshotPtr snap, SessionSnapshot(client));
  return query::RunQuery(snap->database(), text, plan_out, trace);
}

// --- Locks and checkout ------------------------------------------------------

ObjectId Server::RootOf(ObjectId id) const {
  const auto& objects = master_->objects_raw();
  ObjectId cur = id;
  size_t steps = 0;
  while (steps++ <= objects.size()) {
    auto it = objects.find(cur);
    if (it == objects.end()) return cur;
    const core::ObjectItem& obj = it->second;
    if (obj.is_independent()) return cur;
    if (obj.parent_kind == core::ParentKind::kObject) {
      cur = obj.parent_object;
      continue;
    }
    // Relationship attribute: anchor at the role-0 participant's root.
    auto rel_it =
        master_->relationships_raw().find(obj.parent_relationship);
    if (rel_it == master_->relationships_raw().end()) return cur;
    cur = rel_it->second.ends[0];
  }
  return cur;
}

Result<CheckoutBundle> Server::Checkout(ClientId client,
                                        const std::vector<ObjectId>& roots) {
  static obs::Counter* checkouts = obs::MetricsRegistry::Global().GetCounter(
      "multiuser.checkouts.total");
  checkouts->Increment();
  obs::ScopedTimer timer(Stages().checkout);
  {
    common::MutexLock lock(sessions_mu_);
    if (clients_.find(client) == clients_.end()) {
      return Status::NotFound("client " + std::to_string(client.raw()));
    }
  }

  // Take the write locks first, all-or-nothing; disjoint checkouts only
  // ever meet inside the stripe table, never on a server-wide mutex.
  std::vector<ObjectId> acquired;
  Status lock_status = locks_.AcquireAll(client, roots, &acquired);
  if (!lock_status.ok()) {
    lock_conflicts_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter* conflicts = obs::MetricsRegistry::Global().GetCounter(
        "multiuser.lock_conflicts.total");
    conflicts->Increment();
    return lock_status;
  }
  LocksHeldGauge()->Set(static_cast<std::int64_t>(locks_.num_held()));

  // The copy itself reads the master, serialized with check-in writers.
  // Locks were granted optimistically above, so a failed validation must
  // give back exactly the locks this call added (re-entrant holdings
  // stay) — after the master mutex is dropped, per the lock order.
  Status status = Status::OK();
  CheckoutBundle bundle;
  {
    common::MutexLock lock(master_mu_);
    // Validate all roots: existence and independence.
    for (ObjectId root : roots) {
      auto obj = master_->GetObject(root);
      if (!obj.ok()) {
        status = obj.status();
        break;
      }
      if (!(*obj)->is_independent()) {
        status = Status::InvalidArgument(
            "checkout granularity is the independent object; '" +
            master_->FullName(root) + "' is dependent");
        break;
      }
    }
    if (status.ok()) {
      // Collect subtree copies.
      const auto& objects = master_->objects_raw();
      std::unordered_set<ObjectId> in_bundle;
      auto collect = [&](std::vector<ObjectId> work) {
        while (!work.empty()) {
          ObjectId oid = work.back();
          work.pop_back();
          auto it = objects.find(oid);
          if (it == objects.end() || it->second.deleted) continue;
          if (!in_bundle.insert(oid).second) continue;
          bundle.objects.push_back(it->second);
          work.insert(work.end(), it->second.children.begin(),
                      it->second.children.end());
        }
      };
      for (ObjectId root : roots) collect({root});
      // Live relationships whose both ends are in the subtrees, found
      // through the subtree objects' adjacency (each relationship once,
      // at its role-0 end), in id order, plus their attribute subtrees.
      std::vector<RelationshipId> rel_ids;
      for (const core::ObjectItem& obj : bundle.objects) {
        for (const core::RelationshipEnd& end : master_->AdjacencyOf(obj.id)) {
          if (end.role == 0 && in_bundle.count(end.other) != 0) {
            rel_ids.push_back(end.rel);
          }
        }
      }
      std::sort(rel_ids.begin(), rel_ids.end());
      for (RelationshipId rid : rel_ids) {
        const core::RelationshipItem& rel =
            master_->relationships_raw().at(rid);
        bundle.relationships.push_back(rel);
        collect(rel.children);
      }
    }
  }
  if (!status.ok()) {
    if (!acquired.empty()) (void)locks_.Release(client, acquired);
    LocksHeldGauge()->Set(static_cast<std::int64_t>(locks_.num_held()));
    return status;
  }
  return bundle;
}

Status Server::ReleaseLocks(ClientId client,
                            const std::vector<ObjectId>& roots) {
  SEED_RETURN_IF_ERROR(locks_.Release(client, roots));
  LocksHeldGauge()->Set(static_cast<std::int64_t>(locks_.num_held()));
  return Status::OK();
}

// --- Check-in ----------------------------------------------------------------

Status Server::Checkin(ClientId client, const CheckinBundle& bundle,
                       std::uint64_t* commit_seq) {
  std::uint64_t stripe_lo = 0;
  {
    common::MutexLock lock(sessions_mu_);
    auto client_it = clients_.find(client);
    if (client_it == clients_.end()) {
      return Status::NotFound("client " + std::to_string(client.raw()));
    }
    stripe_lo = client_it->second.stripe_base;
  }
  std::uint64_t stripe_hi = stripe_lo + kStripeSize;

  std::uint64_t seq = 0;
  // The snapshot a successful commit displaces is released after
  // master_mu_ (declared first, so destroyed last).
  version::SnapshotPtr displaced;
  const std::uint64_t wait_start = obs::NowNanos();
  {
    common::MutexLock lock(master_mu_);
    Stages().lock_wait->Record(obs::NowNanos() - wait_start);

    // --- Validate lock coverage ----------------------------------------------
    const auto& objects = master_->objects_raw();
    const auto& rels = master_->relationships_raw();
    auto reject = [this](Status status) {
      checkins_rejected_.fetch_add(1, std::memory_order_relaxed);
      CountCheckinRejected();
      return status;
    };
    std::unordered_set<ObjectId> object_ids;
    for (const core::ObjectItem& obj : bundle.objects) {
      if (!object_ids.insert(obj.id).second) {
        return reject(Status::InvalidArgument(
            "check-in lists object " + std::to_string(obj.id.raw()) +
            " twice"));
      }
      auto existing = objects.find(obj.id);
      if (existing != objects.end()) {
        if (!locks_.IsHeldBy(client, RootOf(obj.id))) {
          return reject(Status::LockConflict(
              "modified object '" + master_->FullName(obj.id) +
              "' is not covered by a write lock of this client"));
        }
      } else if (obj.id.raw() < stripe_lo || obj.id.raw() >= stripe_hi) {
        return reject(Status::FailedPrecondition(
            "new object id " + std::to_string(obj.id.raw()) +
            " lies outside the client's id stripe"));
      }
    }
    std::unordered_set<RelationshipId> rel_ids;
    for (const core::RelationshipItem& rel : bundle.relationships) {
      if (!rel_ids.insert(rel.id).second) {
        return reject(Status::InvalidArgument(
            "check-in lists relationship " + std::to_string(rel.id.raw()) +
            " twice"));
      }
      auto existing = rels.find(rel.id);
      if (existing == rels.end() &&
          (rel.id.raw() < stripe_lo || rel.id.raw() >= stripe_hi)) {
        return reject(Status::FailedPrecondition(
            "new relationship id " + std::to_string(rel.id.raw()) +
            " lies outside the client's id stripe"));
      }
      // Every pre-existing participant must be covered by a lock: creating
      // or changing a relationship updates both ends' participation.
      for (ObjectId end : rel.ends) {
        if (objects.find(end) != objects.end() &&
            !locks_.IsHeldBy(client, RootOf(end))) {
          return reject(Status::LockConflict(
              "relationship participant '" + master_->FullName(end) +
              "' is not covered by a write lock of this client"));
        }
      }
    }

    // --- Apply as a single transaction, audit the change ---------------------
    core::ItemBatch undo;
    {
      obs::ScopedTimer timer(Stages().apply);
      undo = master_->ReplaceItems(
          core::ItemBatch::Of(bundle.objects, bundle.relationships));
    }
    core::Report audit;
    {
      obs::ScopedTimer timer(Stages().audit);
      audit = master_->AuditChange(undo);
    }
    if (!audit.clean()) {
      // The inverse batch restores every previous state, derived
      // structures included.
      master_->ReplaceItems(std::move(undo));
      // Locks are deliberately kept: the client can repair and retry.
      return reject(Status::ConsistencyViolation(
          "check-in rejected: " + audit.violations.front().ToString() +
          (audit.size() > 1
               ? " (and " + std::to_string(audit.size() - 1) + " more)"
               : "")));
    }

    seq = next_commit_seq_++;
    // Publish before releasing the stripes: the next checkout winner's
    // snapshot already contains this commit.
    obs::ScopedTimer timer(Stages().publish);
    displaced = PublishSnapshotLocked();
  }

  // Success: release all locks held by this client and move its session
  // snapshot forward (read-your-writes).
  locks_.ReleaseAllOf(client);
  LocksHeldGauge()->Set(static_cast<std::int64_t>(locks_.num_held()));
  (void)RefreshSession(client);
  checkins_applied_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter* applied = obs::MetricsRegistry::Global().GetCounter(
      "multiuser.checkins.applied.total");
  applied->Increment();
  if (commit_seq != nullptr) *commit_seq = seq;
  return Status::OK();
}

}  // namespace seed::multiuser
