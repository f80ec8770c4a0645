#include "core/extent_counters.h"

#include <bit>
#include <span>

namespace seed::core {

namespace {

/// Log2 bucket index of a degree: floor(log2(d)), with degree 0 mapped
/// to bucket 0 (never stored, but keeps the index provably in range).
size_t DegreeBucket(size_t degree) {
  return degree == 0 ? 0 : static_cast<size_t>(std::bit_width(degree)) - 1;
}

}  // namespace

void ExtentCounters::RemoveObject(ClassId cls) {
  auto it = classes_.find(cls);
  if (it == classes_.end()) return;
  if (--it->second == 0) classes_.erase(it);
}

void ExtentCounters::RemoveRelationship(AssociationId assoc) {
  auto it = assocs_.find(assoc);
  if (it == assocs_.end()) return;
  if (--it->second == 0) assocs_.erase(it);
}

void ExtentCounters::AddParticipant(AssociationId assoc, int role,
                                    ClassId cls, ObjectId obj) {
  ++participants_[assoc][role & 1][cls];
  DegreeDist& dist = degrees_[assoc][role & 1][cls];
  const size_t degree = ++dist.degree[obj];
  if (degree > 1) --dist.buckets[DegreeBucket(degree - 1)];
  ++dist.buckets[DegreeBucket(degree)];
  ++dist.ends;
}

void ExtentCounters::RemoveParticipant(AssociationId assoc, int role,
                                       ClassId cls, ObjectId obj) {
  auto it = participants_.find(assoc);
  if (it == participants_.end()) return;
  auto& per_class = it->second[role & 1];
  auto entry = per_class.find(cls);
  if (entry == per_class.end()) return;
  if (--entry->second == 0) per_class.erase(entry);
  if (it->second[0].empty() && it->second[1].empty()) {
    participants_.erase(it);
  }
  auto dit = degrees_.find(assoc);
  if (dit == degrees_.end()) return;
  auto& per_class_deg = dit->second[role & 1];
  auto cell = per_class_deg.find(cls);
  if (cell == per_class_deg.end()) return;
  DegreeDist& dist = cell->second;
  auto deg_entry = dist.degree.find(obj);
  if (deg_entry == dist.degree.end()) return;
  const size_t degree = deg_entry->second;
  --dist.buckets[DegreeBucket(degree)];
  if (degree > 1) {
    ++dist.buckets[DegreeBucket(degree - 1)];
    --deg_entry->second;
  } else {
    dist.degree.erase(deg_entry);
  }
  --dist.ends;
  if (dist.degree.empty()) per_class_deg.erase(cell);
  if (dit->second[0].empty() && dit->second[1].empty()) {
    degrees_.erase(dit);
  }
}

void ExtentCounters::Clear() {
  classes_.clear();
  assocs_.clear();
  participants_.clear();
  degrees_.clear();
}

size_t ExtentCounters::CountClass(ClassId cls) const {
  auto it = classes_.find(cls);
  return it == classes_.end() ? 0 : it->second;
}

size_t ExtentCounters::CountAssociation(AssociationId assoc) const {
  auto it = assocs_.find(assoc);
  return it == assocs_.end() ? 0 : it->second;
}

size_t ExtentCounters::CountClassExtent(const schema::Schema& schema,
                                        ClassId cls,
                                        bool include_specializations) const {
  if (!include_specializations) return CountClass(cls);
  size_t total = 0;
  for (ClassId c : schema.ClassFamily(cls)) total += CountClass(c);
  return total;
}

size_t ExtentCounters::CountAssociationExtent(
    const schema::Schema& schema, AssociationId assoc,
    bool include_specializations) const {
  if (!include_specializations) return CountAssociation(assoc);
  size_t total = 0;
  for (AssociationId a : schema.AssociationFamily(assoc)) {
    total += CountAssociation(a);
  }
  return total;
}

size_t ExtentCounters::CountParticipants(AssociationId assoc, int role,
                                         ClassId cls) const {
  auto it = participants_.find(assoc);
  if (it == participants_.end()) return 0;
  const auto& per_class = it->second[role & 1];
  auto entry = per_class.find(cls);
  return entry == per_class.end() ? 0 : entry->second;
}

ExtentCounters::DegreeSummary ExtentCounters::DegreeStats(
    const schema::Schema& schema, AssociationId assoc, int role, ClassId cls,
    bool include_specializations) const {
  const std::span<const ClassId> classes =
      include_specializations
          ? std::span<const ClassId>(schema.ClassFamily(cls))
          : std::span<const ClassId>(&cls, 1);
  DegreeSummary summary;
  size_t top_bucket = 0;
  bool any = false;
  for (AssociationId a : schema.AssociationFamily(assoc)) {
    auto it = degrees_.find(a);
    if (it == degrees_.end()) continue;
    const auto& per_class = it->second[role & 1];
    for (ClassId c : classes) {
      auto cell = per_class.find(c);
      if (cell == per_class.end()) continue;
      const DegreeDist& dist = cell->second;
      // Exact classes partition objects, so `distinct` sums cleanly
      // across class cells; an object participating in several
      // associations of the family is counted once per association —
      // an overcount that only makes the mean degree conservative.
      summary.distinct += dist.degree.size();
      summary.ends += dist.ends;
      for (size_t b = dist.buckets.size(); b-- > 0;) {
        if (dist.buckets[b] == 0) continue;
        any = true;
        if (b > top_bucket) top_bucket = b;
        break;
      }
    }
  }
  if (any) {
    // Highest occupied bucket b holds degrees in [2^b, 2^(b+1)).
    summary.max_degree_upper = (size_t{2} << top_bucket) - 1;
  }
  return summary;
}

size_t ExtentCounters::CountParticipantsExtent(
    const schema::Schema& schema, AssociationId assoc, int role, ClassId cls,
    bool include_specializations) const {
  const std::span<const ClassId> classes =
      include_specializations
          ? std::span<const ClassId>(schema.ClassFamily(cls))
          : std::span<const ClassId>(&cls, 1);
  size_t total = 0;
  for (AssociationId a : schema.AssociationFamily(assoc)) {
    auto it = participants_.find(a);
    if (it == participants_.end()) continue;
    const auto& per_class = it->second[role & 1];
    for (ClassId c : classes) {
      auto entry = per_class.find(c);
      if (entry != per_class.end()) total += entry->second;
    }
  }
  return total;
}

}  // namespace seed::core
