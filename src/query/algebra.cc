#include "query/algebra.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <span>
#include <utility>

#include "exec/worker_pool.h"
#include "obs/metrics.h"

namespace seed::query {

int QueryRelation::AttrIndex(std::string_view name) const {
  for (size_t i = 0; i < attributes.size(); ++i) {
    if (attributes[i] == name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

using Tuples = std::vector<std::vector<ObjectId>>;

/// Runs `emit_range(begin, end, sink)` over [0, n): sequentially into
/// `out` when the policy keeps this input sequential, otherwise as
/// morsels on the shared worker pool with one sink per morsel,
/// concatenated in morsel order afterwards — so the emission order is
/// exactly what the sequential pass would have produced, whatever the
/// scheduling. `emit_range` must only read shared state and write its
/// own sink.
template <typename EmitRange>
void PartitionedEmit(const exec::ExecPolicy& policy, std::size_t n,
                     Tuples* out, const EmitRange& emit_range) {
  if (!policy.ShouldPartition(n)) {
    emit_range(std::size_t{0}, n, out);
    return;
  }
  const std::size_t grain = policy.morsel_rows;
  std::vector<Tuples> slots((n + grain - 1) / grain);
  exec::WorkerPool::Global().ParallelFor(
      policy.threads, n, grain,
      [&emit_range, &slots, grain](std::size_t begin, std::size_t end) {
        emit_range(begin, end, &slots[begin / grain]);
      });
  std::size_t total = out->size();
  for (const Tuples& slot : slots) total += slot.size();
  out->reserve(total);
  for (Tuples& slot : slots) {
    for (auto& tuple : slot) out->push_back(std::move(tuple));
  }
}

/// Sorts tuples, with up to policy.threads lanes when the input clears
/// the partition threshold: equal-width chunks sorted as pool tasks,
/// then merged level by level (merges within a level are disjoint and
/// run concurrently). Duplicate tuples compare equal *and* are
/// identical, so the result array is bit-identical to a single
/// std::sort regardless of chunking.
void SortTuples(const exec::ExecPolicy& policy, Tuples* tuples) {
  const std::size_t n = tuples->size();
  const std::size_t chunks =
      policy.ShouldPartition(n)
          ? std::min(static_cast<std::size_t>(policy.threads),
                     std::max<std::size_t>(1, n / policy.morsel_rows))
          : 1;
  if (chunks < 2) {
    std::sort(tuples->begin(), tuples->end());
    return;
  }
  std::vector<std::size_t> bounds(chunks + 1);
  for (std::size_t c = 0; c <= chunks; ++c) bounds[c] = c * n / chunks;
  exec::WorkerPool& pool = exec::WorkerPool::Global();
  pool.EnsureWorkers(policy.threads - 1);
  {
    exec::TaskGroup group;
    for (std::size_t c = 1; c < chunks; ++c) {
      pool.Submit(&group, [tuples, &bounds, c] {
        std::sort(tuples->begin() + bounds[c],
                  tuples->begin() + bounds[c + 1]);
      });
    }
    std::sort(tuples->begin(), tuples->begin() + bounds[1]);
    pool.Await(&group);
  }
  for (std::size_t width = 1; width < chunks; width *= 2) {
    exec::TaskGroup group;
    for (std::size_t c = 0; c + width < chunks; c += 2 * width) {
      const std::size_t lo = bounds[c];
      const std::size_t mid = bounds[c + width];
      const std::size_t hi = bounds[std::min(c + 2 * width, chunks)];
      pool.Submit(&group, [tuples, lo, mid, hi] {
        std::inplace_merge(tuples->begin() + lo, tuples->begin() + mid,
                           tuples->begin() + hi);
      });
    }
    pool.Await(&group);
  }
}

}  // namespace

void Algebra::Dedup(QueryRelation* rel) const {
  SortTuples(policy_, &rel->tuples);
  rel->tuples.erase(std::unique(rel->tuples.begin(), rel->tuples.end()),
                    rel->tuples.end());
}

QueryRelation Algebra::ClassExtent(ClassId cls, std::string attribute,
                                   bool include_specializations) const {
  // ObjectsOfClass is ascending and duplicate-free already.
  QueryRelation out;
  out.attributes = {std::move(attribute)};
  const std::vector<ObjectId> ids =
      db_->ObjectsOfClass(cls, include_specializations);
  out.tuples.reserve(ids.size());
  for (ObjectId id : ids) out.tuples.push_back({id});
  return out;
}

Result<QueryRelation> Algebra::Select(const QueryRelation& in,
                                      std::string_view attribute,
                                      const Predicate& p) const {
  int idx = in.AttrIndex(attribute);
  if (idx < 0) {
    return Status::InvalidArgument("no attribute '" + std::string(attribute) +
                                   "' in relation");
  }
  QueryRelation out;
  out.attributes = in.attributes;
  for (const auto& tuple : in.tuples) {
    if (p.Eval(*db_, tuple[idx])) out.tuples.push_back(tuple);
  }
  return out;
}

Result<QueryRelation> Algebra::Project(
    const QueryRelation& in, const std::vector<std::string>& keep) const {
  std::vector<int> indexes;
  for (const std::string& name : keep) {
    int idx = in.AttrIndex(name);
    if (idx < 0) {
      return Status::InvalidArgument("no attribute '" + name +
                                     "' in relation");
    }
    for (int seen : indexes) {
      if (seen == idx) {
        return Status::InvalidArgument("duplicate attribute '" + name +
                                       "' in projection");
      }
    }
    indexes.push_back(idx);
  }
  QueryRelation out;
  out.attributes = keep;
  for (const auto& tuple : in.tuples) {
    std::vector<ObjectId> projected;
    projected.reserve(indexes.size());
    for (int idx : indexes) projected.push_back(tuple[idx]);
    out.tuples.push_back(std::move(projected));
  }
  Dedup(&out);
  return out;
}

Result<QueryRelation> Algebra::CartesianProduct(const QueryRelation& a,
                                                const QueryRelation& b) const {
  for (const std::string& attr : b.attributes) {
    if (a.AttrIndex(attr) >= 0) {
      return Status::InvalidArgument("attribute '" + attr +
                                     "' appears on both sides");
    }
  }
  QueryRelation out;
  out.attributes = a.attributes;
  out.attributes.insert(out.attributes.end(), b.attributes.begin(),
                        b.attributes.end());
  for (const auto& ta : a.tuples) {
    for (const auto& tb : b.tuples) {
      std::vector<ObjectId> tuple = ta;
      tuple.insert(tuple.end(), tb.begin(), tb.end());
      out.tuples.push_back(std::move(tuple));
    }
  }
  return out;
}

namespace {

/// A relation's rows indexed by one column: (key, row) pairs sorted by
/// key, so the whole side costs one allocation rather than one per key.
/// Operator outputs are sorted by their first column, so indexing that
/// column needs no sort.
class TupleIndex {
 public:
  struct Entry {
    ObjectId key;
    std::size_t row;
    auto operator<=>(const Entry&) const = default;
  };

  TupleIndex(const QueryRelation& rel, int attr) {
    entries_.reserve(rel.size());
    for (std::size_t row = 0; row < rel.size(); ++row) {
      entries_.push_back({rel.tuples[row][attr], row});
    }
    if (!std::is_sorted(entries_.begin(), entries_.end())) {
      std::sort(entries_.begin(), entries_.end());
    }
  }

  /// The rows whose key is `key`, in row order.
  std::span<const Entry> Find(ObjectId key) const {
    auto lo = std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const Entry& e, ObjectId k) { return e.key < k; });
    auto hi = lo;
    while (hi != entries_.end() && hi->key == key) ++hi;
    return {lo, hi};
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace

Result<QueryRelation> Algebra::RelationshipJoin(const QueryRelation& a,
                                                std::string_view attr_a,
                                                AssociationId assoc,
                                                const QueryRelation& b,
                                                std::string_view attr_b) const {
  // Without planner statistics the one safe local decision is the hash
  // build side: index the smaller input, stream the larger.
  JoinOptions options;
  options.build_side = a.size() < b.size() ? JoinOptions::Side::kLeft
                                           : JoinOptions::Side::kRight;
  return RelationshipJoin(a, attr_a, assoc, b, attr_b, options);
}

Result<QueryRelation> Algebra::RelationshipJoin(
    const QueryRelation& a, std::string_view attr_a, AssociationId assoc,
    const QueryRelation& b, std::string_view attr_b,
    const JoinOptions& options) const {
  int ia = a.AttrIndex(attr_a);
  if (ia < 0) {
    return Status::InvalidArgument("no attribute '" + std::string(attr_a) +
                                   "' in left relation");
  }
  int ib = b.AttrIndex(attr_b);
  if (ib < 0) {
    return Status::InvalidArgument("no attribute '" + std::string(attr_b) +
                                   "' in right relation");
  }
  if (options.left_role != 0 && options.left_role != 1) {
    return Status::InvalidArgument("join role must be 0 or 1");
  }
  for (const std::string& attr : b.attributes) {
    if (a.AttrIndex(attr) >= 0) {
      return Status::InvalidArgument("attribute '" + attr +
                                     "' appears on both sides");
    }
  }
  QueryRelation out;
  out.attributes = a.attributes;
  out.attributes.insert(out.attributes.end(), b.attributes.begin(),
                        b.attributes.end());

  // An empty input joins with nothing; never touch the association.
  if (a.empty() || b.empty()) return out;

  // Both methods stream one input through the maintained per-object
  // adjacency (no association-wide table is built) and look each
  // partner up in an index over the other input; they differ only in
  // which side streams. kHash streams the side opposite its build side,
  // kIndexNestedLoop drives from its build side.
  const bool hash = options.method == JoinOptions::Method::kHash;
  static obs::Counter* hash_joins =
      obs::MetricsRegistry::Global().GetCounter("algebra.join.hash.total");
  static obs::Counter* inl_joins =
      obs::MetricsRegistry::Global().GetCounter("algebra.join.inl.total");
  (hash ? hash_joins : inl_joins)->Increment();
  const bool build_left = options.build_side == JoinOptions::Side::kLeft;
  const bool drive_left = hash ? !build_left : build_left;
  const QueryRelation& drive = drive_left ? a : b;
  const QueryRelation& probed = drive_left ? b : a;
  const int drive_attr = drive_left ? ia : ib;
  const int drive_role = drive_left ? options.left_role
                                    : 1 - options.left_role;
  const TupleIndex index(probed, drive_left ? ib : ia);
  // The driving side is morsel-partitioned; the database and the index
  // are only read.
  PartitionedEmit(
      policy_, drive.size(), &out.tuples,
      [this, &drive, &probed, &index, assoc, drive_attr, drive_role,
       drive_left](std::size_t begin, std::size_t end, Tuples* sink) {
        for (std::size_t t = begin; t < end; ++t) {
          const auto& td = drive.tuples[t];
          db_->ForEachRelationshipEnd(
              td[drive_attr], assoc, drive_role,
              [&](const core::RelationshipEnd& e) {
                for (const TupleIndex::Entry& m : index.Find(e.other)) {
                  const auto& tp = probed.tuples[m.row];
                  const auto& left = drive_left ? td : tp;
                  const auto& right = drive_left ? tp : td;
                  std::vector<ObjectId> tuple;
                  tuple.reserve(left.size() + right.size());
                  tuple.insert(tuple.end(), left.begin(), left.end());
                  tuple.insert(tuple.end(), right.begin(), right.end());
                  sink->push_back(std::move(tuple));
                }
              });
        }
      });
  Dedup(&out);
  return out;
}

Result<QueryRelation> Algebra::TupleJoin(const QueryRelation& a,
                                         const QueryRelation& b,
                                         std::string_view shared) const {
  int ia = a.AttrIndex(shared);
  int ib = b.AttrIndex(shared);
  if (ia < 0 || ib < 0) {
    return Status::InvalidArgument("shared attribute '" + std::string(shared) +
                                   "' must appear on both sides");
  }
  for (size_t j = 0; j < b.attributes.size(); ++j) {
    if (static_cast<int>(j) == ib) continue;
    if (a.AttrIndex(b.attributes[j]) >= 0) {
      return Status::InvalidArgument("attribute '" + b.attributes[j] +
                                     "' appears on both sides");
    }
  }
  QueryRelation out;
  out.attributes = a.attributes;
  for (size_t j = 0; j < b.attributes.size(); ++j) {
    if (static_cast<int>(j) != ib) out.attributes.push_back(b.attributes[j]);
  }
  if (a.empty() || b.empty()) return out;

  static obs::Counter* tuple_joins =
      obs::MetricsRegistry::Global().GetCounter("algebra.join.tuple.total");
  tuple_joins->Increment();

  // Hash the smaller side by its shared column, stream the other.
  const bool build_left = a.size() <= b.size();
  const QueryRelation& build = build_left ? a : b;
  const QueryRelation& probe = build_left ? b : a;
  const int build_attr = build_left ? ia : ib;
  const int probe_attr = build_left ? ib : ia;
  const TupleIndex built(build, build_attr);
  auto concat = [&](const std::vector<ObjectId>& ta,
                    const std::vector<ObjectId>& tb) {
    std::vector<ObjectId> tuple = ta;
    tuple.reserve(out.attributes.size());
    for (size_t j = 0; j < tb.size(); ++j) {
      if (static_cast<int>(j) != ib) tuple.push_back(tb[j]);
    }
    return tuple;
  };
  // The probe side is morsel-partitioned; `built` is read-only here.
  PartitionedEmit(policy_, probe.size(), &out.tuples,
                  [&probe, &build, &built, &concat, probe_attr, build_left](
                      std::size_t begin, std::size_t end, Tuples* sink) {
                    for (std::size_t t = begin; t < end; ++t) {
                      const auto& tp = probe.tuples[t];
                      for (const TupleIndex::Entry& m :
                           built.Find(tp[probe_attr])) {
                        const auto& tb = build.tuples[m.row];
                        sink->push_back(build_left ? concat(tb, tp)
                                                   : concat(tp, tb));
                      }
                    }
                  });
  Dedup(&out);
  return out;
}

Result<QueryRelation> Algebra::Union(const QueryRelation& a,
                                     const QueryRelation& b) const {
  if (a.attributes != b.attributes) {
    return Status::InvalidArgument(
        "union requires identical attribute lists");
  }
  QueryRelation out;
  out.attributes = a.attributes;
  out.tuples = a.tuples;
  out.tuples.insert(out.tuples.end(), b.tuples.begin(), b.tuples.end());
  Dedup(&out);
  return out;
}

namespace {

/// Strictly increasing == sorted with no duplicates — what every
/// operator emits. Hand-built relations may violate it; normalize those
/// into `storage` so the linear merges below stay correct.
const Tuples& NormalizedTuples(const Tuples& tuples, Tuples* storage) {
  bool strictly_increasing = true;
  for (size_t i = 1; i < tuples.size(); ++i) {
    if (!(tuples[i - 1] < tuples[i])) {
      strictly_increasing = false;
      break;
    }
  }
  if (strictly_increasing) return tuples;
  *storage = tuples;
  std::sort(storage->begin(), storage->end());
  storage->erase(std::unique(storage->begin(), storage->end()),
                 storage->end());
  return *storage;
}

}  // namespace

Result<QueryRelation> Algebra::Difference(const QueryRelation& a,
                                          const QueryRelation& b) const {
  if (a.attributes != b.attributes) {
    return Status::InvalidArgument(
        "difference requires identical attribute lists");
  }
  // Operator outputs are sorted and deduplicated by construction, so a
  // linear merge replaces the old per-tuple set probes (O(n log n)
  // vector compares); the O(n) normalization check only ever copies for
  // hand-built inputs.
  Tuples a_storage, b_storage;
  const Tuples& a_tuples = NormalizedTuples(a.tuples, &a_storage);
  const Tuples& b_tuples = NormalizedTuples(b.tuples, &b_storage);
  QueryRelation out;
  out.attributes = a.attributes;
  std::set_difference(a_tuples.begin(), a_tuples.end(), b_tuples.begin(),
                      b_tuples.end(), std::back_inserter(out.tuples));
  return out;
}

Result<QueryRelation> Algebra::Intersect(const QueryRelation& a,
                                         const QueryRelation& b) const {
  if (a.attributes != b.attributes) {
    return Status::InvalidArgument(
        "intersection requires identical attribute lists");
  }
  Tuples a_storage, b_storage;
  const Tuples& a_tuples = NormalizedTuples(a.tuples, &a_storage);
  const Tuples& b_tuples = NormalizedTuples(b.tuples, &b_storage);
  QueryRelation out;
  out.attributes = a.attributes;
  std::set_intersection(a_tuples.begin(), a_tuples.end(), b_tuples.begin(),
                        b_tuples.end(), std::back_inserter(out.tuples));
  return out;
}

}  // namespace seed::query
