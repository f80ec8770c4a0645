// A secondary index over one attribute of one extent.
//
// The paper's SEED prototype retrieves by name only; every value query in
// this reproduction therefore scanned the full class extent. An
// AttributeIndex maps attribute values to the live, non-pattern items
// carrying them, so the query planner can answer selective equality and
// range predicates without touching the extent.
//
// An index covers one of two extent kinds:
//  * an *object* extent — the indexed attribute is either the object's own
//    value (`role` empty in the spec) or the value(s) of its sub-objects
//    in a role ("Action indexed by Description"); entries are ObjectIds;
//  * a *relationship* extent — the spec names an association and a
//    relationship-attribute role (paper Fig. 3: `Write.NumberOfWrites`);
//    entries are RelationshipIds, keyed by the values of the attribute
//    sub-objects hanging off each relationship.
// Internally both are stored as raw 64-bit entry ids; the typed accessors
// (`Lookup`/`Range` vs `LookupRels`/`RangeRels`) are thin wrappers, and an
// index only ever holds ids of one kind, per its spec.
//
// Undefined values are never indexed — the paper's rule "an undefined
// object matches nothing" makes the index and the scan agree without a
// residual undefined check; vague items simply have no entry.
//
// Storage is dual, per access pattern: an ordered map (Value::Less) serves
// range/comparison predicates, a hash map over the same postings serves
// equality lookups in O(1). An inverted per-entry key list makes
// maintenance idempotent: Set(id, keys) diffs against what is currently
// indexed, so callers may refresh an item after any mutation without
// tracking deltas. The entry count and distinct-key count fall out of this
// maintenance for free, which is what the planner's cost model reads.

#ifndef SEED_INDEX_ATTRIBUTE_INDEX_H_
#define SEED_INDEX_ATTRIBUTE_INDEX_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/thread_annotations.h"
#include "core/value.h"

namespace seed::index {

/// Identifies what an index covers. For object indexes: the extent of
/// `cls` (its whole generalization family when `include_specializations`,
/// mirroring the query layer's ClassExtent default), keyed by the object's
/// own value (`role` empty) or by the values of its sub-objects in `role`.
/// For relationship indexes (`assoc` valid): the relationships of the
/// association family, keyed by the values of their attribute sub-objects
/// in `role` (which must be non-empty — relationships carry no own value).
struct IndexSpec {
  ClassId cls{};
  std::string role;
  bool include_specializations = true;
  AssociationId assoc{};

  /// Relationship-extent spec ("Write.NumberOfWrites").
  static IndexSpec ForAssociation(AssociationId assoc, std::string role,
                                  bool include_specializations = true) {
    IndexSpec spec;
    spec.assoc = assoc;
    spec.role = std::move(role);
    spec.include_specializations = include_specializations;
    return spec;
  }

  bool on_relationships() const { return assoc.valid(); }

  bool operator==(const IndexSpec&) const = default;
  /// "Action.Description" / "Thing (exact)" style display name.
  std::string ToString() const;
};

class AttributeIndex {
 public:
  explicit AttributeIndex(IndexSpec spec) : spec_(std::move(spec)) {}

  /// A copy of the postings. The equality map points into `ordered_`, so
  /// it is re-derived rather than copied; the histogram starts unbuilt.
  AttributeIndex(const AttributeIndex& other);
  AttributeIndex& operator=(const AttributeIndex&) = delete;

  const IndexSpec& spec() const { return spec_; }

  /// Declares the complete key set of `id` (deduplicated internally);
  /// diffs against the currently indexed keys and applies the change.
  /// An empty `keys` removes the entry entirely. Idempotent.
  void Set(ObjectId id, const std::vector<core::Value>& keys) {
    SetEntry(id.raw(), keys);
  }
  void Set(RelationshipId id, const std::vector<core::Value>& keys) {
    SetEntry(id.raw(), keys);
  }

  /// Objects whose indexed attribute equals `key`, ascending. O(1) probe.
  std::vector<ObjectId> Lookup(const core::Value& key) const;
  /// Relationship-extent equivalent.
  std::vector<RelationshipId> LookupRels(const core::Value& key) const;

  /// Entries with a key in [lo, hi] (bounds optional per flag), ascending,
  /// deduplicated. Callers bound the scan within one value type; the
  /// cross-type ordering of Value::Less keeps each type contiguous.
  std::vector<ObjectId> Range(const core::Value& lo, bool lo_inclusive,
                              const core::Value& hi,
                              bool hi_inclusive) const;
  std::vector<RelationshipId> RangeRels(const core::Value& lo,
                                        bool lo_inclusive,
                                        const core::Value& hi,
                                        bool hi_inclusive) const;

  /// Exact number of entries equal to `key` — an O(1) hash probe; the
  /// planner's equality-cardinality estimate (it is not an estimate at
  /// all, one of the perks of counting postings directly).
  size_t CountEquals(const core::Value& key) const;

  /// Estimated number of entries with a key in the range. Walks the
  /// ordered postings counting exactly until `probe_limit` distinct keys
  /// have been visited; past the cap it walks up to `probe_limit` more
  /// keys toward the range's end — so any range spanning at most
  /// 2 x probe_limit keys is counted exactly. Ranges wider than that
  /// are answered from the lazily built equi-depth histogram: buckets
  /// fully inside [lo, hi] contribute their exact row count, the two
  /// partially covered boundary buckets contribute half theirs, so the
  /// estimate is provably within (rows(b_lo) + rows(b_hi)) / 2 of the
  /// true count. Keys below lo or beyond hi never inflate the estimate:
  /// a wide-but-empty range over a populated index estimates 0, not
  /// ~num_entries. probe_limit == 0 skips the walk entirely and answers
  /// num_entries for non-empty ranges, 0 for provably empty ones.
  double EstimateRange(const core::Value& lo, bool lo_inclusive,
                       const core::Value& hi, bool hi_inclusive,
                       size_t probe_limit = 64) const;

  /// One bucket of the equal-frequency histogram: all postings whose key
  /// lies in [lower, upper] (both ends are real indexed keys), `rows`
  /// postings over `keys` distinct keys. Buckets partition the key space
  /// in Value::Less order and each holds ~num_entries/32 rows.
  struct HistogramBucket {
    core::Value lower;
    core::Value upper;
    size_t rows = 0;
    size_t keys = 0;
  };

  /// Snapshot of the equi-depth histogram, rebuilding it first if the
  /// mutation counter has moved since the last build. Diagnostic/test
  /// surface; estimation consults it through EstimateRange.
  std::vector<HistogramBucket> Histogram() const;

  /// Monotonic count of posting mutations (inserts + erases + clears).
  /// The histogram uses it as its rebuild stamp.
  std::uint64_t mutation_count() const { return mutations_; }

  /// Distinct (key, object) pairs in key order; for tests and stats.
  void ForEach(
      const std::function<void(const core::Value&, ObjectId)>& fn) const;
  void ForEachRel(const std::function<void(const core::Value&,
                                           RelationshipId)>& fn) const;

  void Clear();

  size_t num_objects() const { return keys_of_.size(); }
  size_t num_entries() const { return num_entries_; }
  size_t num_distinct_keys() const { return ordered_.size(); }

 private:
  using EntryId = std::uint64_t;
  using Postings = std::map<core::Value, std::set<EntryId>,
                            core::Value::Less>;

  static constexpr size_t kHistogramBuckets = 32;

  void SetEntry(EntryId id, const std::vector<core::Value>& keys);
  void Insert(const core::Value& key, EntryId id);
  void Erase(const core::Value& key, EntryId id);
  std::vector<EntryId> RangeRaw(const core::Value& lo, bool lo_inclusive,
                                const core::Value& hi,
                                bool hi_inclusive) const;
  void RebuildHistogramLocked() const SEED_REQUIRES(histogram_mu_);
  double HistogramEstimate(const core::Value& lo, bool lo_inclusive,
                           const core::Value& hi, bool hi_inclusive) const
      SEED_REQUIRES(histogram_mu_);

  IndexSpec spec_;
  Postings ordered_;
  /// Equality probe: value -> node in `ordered_` (std::map iterators are
  /// stable under unrelated insert/erase). Keyed by Compare-equality so
  /// hash and ordered storage agree on which keys coincide.
  std::unordered_map<core::Value, Postings::iterator, core::Value::Hash,
                     core::Value::CompareEqual>
      hash_;
  /// Inverted list: exactly the keys currently indexed per entry.
  std::unordered_map<EntryId, std::vector<core::Value>> keys_of_;
  size_t num_entries_ = 0;
  /// Bumped by every successful Insert/Erase (and Clear). Written only
  /// from mutation paths, which the Database contract runs exclusively;
  /// concurrent readers only ever see a quiescent value (snapshots are
  /// immutable), same as `num_entries_`.
  std::uint64_t mutations_ = 0;
  /// The histogram is built lazily *during const reads* (EstimateRange),
  /// and reader sessions share one snapshot Database — so unlike the
  /// postings themselves it needs a lock of its own.
  mutable common::Mutex histogram_mu_;
  mutable std::vector<HistogramBucket> histogram_
      SEED_GUARDED_BY(histogram_mu_);
  mutable bool histogram_built_ SEED_GUARDED_BY(histogram_mu_) = false;
  mutable std::uint64_t histogram_stamp_ SEED_GUARDED_BY(histogram_mu_) = 0;
};

}  // namespace seed::index

#endif  // SEED_INDEX_ATTRIBUTE_INDEX_H_
