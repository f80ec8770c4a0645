// Retrieval operations: name resolution, class/association queries,
// sub-object navigation. The SEED prototype supports "data creation,
// update, and simple retrieval by name"; complex queries live in
// seed_query.

#include <algorithm>
#include <span>

#include "common/macros.h"
#include "common/strings.h"
#include "core/database.h"

namespace seed::core {

Result<ObjectId> Database::FindObjectByName(std::string_view path) const {
  SEED_ASSIGN_OR_RETURN(auto segments, strings::ParsePath(path));
  auto root_it = name_index_.find(segments[0].name);
  if (root_it == name_index_.end()) {
    return Status::NotFound("no object named '" + segments[0].name + "'");
  }
  ObjectId cur = root_it->second;
  for (size_t i = 1; i < segments.size(); ++i) {
    const ObjectItem& parent = objects_.at(cur);
    auto dep_cls = schema_->ResolveSubObjectRole(parent.cls,
                                                 segments[i].name);
    if (!dep_cls.ok()) return dep_cls.status();
    std::uint32_t index = segments[i].index.value_or(0);
    ObjectId child = FindChildByKey(cur, *dep_cls, index);
    if (!child.valid()) {
      return Status::NotFound("object '" + std::string(path) +
                              "': no sub-object '" +
                              segments[i].ToString() + "'");
    }
    cur = child;
  }
  return cur;
}

Result<ObjectId> Database::FindPatternByName(std::string_view path) const {
  SEED_ASSIGN_OR_RETURN(auto segments, strings::ParsePath(path));
  auto root_it = pattern_name_index_.find(segments[0].name);
  if (root_it == pattern_name_index_.end()) {
    return Status::NotFound("no pattern named '" + segments[0].name + "'");
  }
  ObjectId cur = root_it->second;
  for (size_t i = 1; i < segments.size(); ++i) {
    const ObjectItem& parent = objects_.at(cur);
    auto dep_cls = schema_->ResolveSubObjectRole(parent.cls,
                                                 segments[i].name);
    if (!dep_cls.ok()) return dep_cls.status();
    std::uint32_t index = segments[i].index.value_or(0);
    ObjectId child = FindChildByKey(cur, *dep_cls, index);
    if (!child.valid()) {
      return Status::NotFound("pattern '" + std::string(path) +
                              "': no sub-object '" +
                              segments[i].ToString() + "'");
    }
    cur = child;
  }
  return cur;
}

std::string Database::FullName(ObjectId id) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) return "<unknown>";
  const ObjectItem& obj = it->second;
  std::string segment;
  if (obj.is_independent()) return obj.name;

  auto cls = schema_->GetClass(obj.cls);
  if (cls.ok()) {
    segment = (*cls)->name;
    if ((*cls)->cardinality.max != 1) {
      segment += "[" + std::to_string(obj.index) + "]";
    }
  } else {
    segment = "<class" + std::to_string(obj.cls.raw()) + ">";
  }
  if (obj.parent_kind == ParentKind::kObject) {
    return FullName(obj.parent_object) + "." + segment;
  }
  // Relationship attribute: relationships have no user names; render as
  // "<AssocName>#<relid>.role".
  auto rel_it = relationships_.find(obj.parent_relationship);
  std::string prefix = "<rel>";
  if (rel_it != relationships_.end()) {
    auto assoc = schema_->GetAssociation(rel_it->second.assoc);
    prefix = (assoc.ok() ? (*assoc)->name : "<assoc>") + "#" +
             std::to_string(obj.parent_relationship.raw());
  }
  return prefix + "." + segment;
}

namespace {

/// The ascending union of the disjoint ascending lists `map` holds for
/// `family`: a copy when one list is non-empty, otherwise the lists
/// appended and merged pairwise, level by level — O(output x log k) for
/// k lists, no item lookups and no sort.
template <typename Key, typename Id>
std::vector<Id> MergeExtents(
    const std::unordered_map<Key, std::vector<Id>>& map,
    std::span<const Key> family) {
  std::vector<const std::vector<Id>*> lists;
  size_t total = 0;
  for (const Key& key : family) {
    auto it = map.find(key);
    if (it == map.end()) continue;
    lists.push_back(&it->second);
    total += it->second.size();
  }
  if (lists.size() == 1) return *lists.front();
  std::vector<Id> out;
  out.reserve(total);
  std::vector<size_t> bounds{0};
  for (const std::vector<Id>* list : lists) {
    out.insert(out.end(), list->begin(), list->end());
    bounds.push_back(out.size());
  }
  const size_t k = lists.size();
  for (size_t width = 1; width < k; width *= 2) {
    for (size_t i = 0; i + width < k; i += 2 * width) {
      std::inplace_merge(out.begin() + bounds[i],
                         out.begin() + bounds[i + width],
                         out.begin() + bounds[std::min(i + 2 * width, k)]);
    }
  }
  return out;
}

}  // namespace

std::vector<ObjectId> Database::ObjectsOfClass(
    ClassId cls, bool include_specializations) const {
  if (include_specializations) {
    return MergeExtents<ClassId, ObjectId>(by_class_,
                                           schema_->ClassFamily(cls));
  }
  return MergeExtents<ClassId, ObjectId>(by_class_, {&cls, 1});
}

std::vector<RelationshipId> Database::RelationshipsOfAssociation(
    AssociationId assoc, bool include_specializations) const {
  if (include_specializations) {
    return MergeExtents<AssociationId, RelationshipId>(
        by_assoc_, schema_->AssociationFamily(assoc));
  }
  return MergeExtents<AssociationId, RelationshipId>(by_assoc_, {&assoc, 1});
}

std::span<const RelationshipEnd> Database::AdjacencyOf(ObjectId obj) const {
  auto it = rels_by_object_.find(obj);
  if (it == rels_by_object_.end()) return {};
  return it->second;
}

std::vector<RelationshipId> Database::RelationshipsOf(ObjectId obj,
                                                      AssociationId assoc,
                                                      int role) const {
  // Ends are ordered by (relationship, role), so the ids come out
  // ascending; with role < 0 a self-relationship's two ends are adjacent
  // and listed once.
  std::vector<RelationshipId> out;
  ForEachRelationshipEnd(obj, assoc, role, [&out](const RelationshipEnd& e) {
    if (out.empty() || out.back() != e.rel) out.push_back(e.rel);
  });
  return out;
}

std::vector<RelationshipId> Database::PatternRelationshipsOf(
    ObjectId obj, AssociationId assoc) const {
  std::vector<RelationshipId> out;
  for (const RelationshipEnd& end : AdjacencyOf(obj)) {
    if (!end.is_pattern) continue;
    if (assoc.valid() &&
        !schema_->IsSameOrSpecializationOf(end.assoc, assoc)) {
      continue;
    }
    if (out.empty() || out.back() != end.rel) out.push_back(end.rel);
  }
  return out;
}

namespace {

std::vector<ObjectId> CollectSubObjects(
    const std::map<ObjectId, ObjectItem>& objects,
    const schema::Schema& schema, const std::vector<ObjectId>& children,
    std::string_view role) {
  std::vector<ObjectId> out;
  for (ObjectId child_id : children) {
    const ObjectItem& child = objects.at(child_id);
    if (child.deleted) continue;
    if (!role.empty()) {
      auto cls = schema.GetClass(child.cls);
      if (!cls.ok() || (*cls)->name != role) continue;
    }
    out.push_back(child_id);
  }
  std::stable_sort(out.begin(), out.end(),
                   [&objects](ObjectId a, ObjectId b) {
                     return objects.at(a).index < objects.at(b).index;
                   });
  return out;
}

}  // namespace

std::vector<ObjectId> Database::SubObjects(ObjectId parent,
                                           std::string_view role) const {
  auto it = objects_.find(parent);
  if (it == objects_.end()) return {};
  return CollectSubObjects(objects_, *schema_, it->second.children, role);
}

std::vector<ObjectId> Database::SubObjects(RelationshipId parent,
                                           std::string_view role) const {
  auto it = relationships_.find(parent);
  if (it == relationships_.end()) return {};
  return CollectSubObjects(objects_, *schema_, it->second.children, role);
}

std::vector<ObjectId> Database::AllIndependentObjects() const {
  std::vector<ObjectId> out;
  for (const auto& [name, id] : name_index_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ObjectId> Database::AllPatternRoots() const {
  std::vector<ObjectId> out;
  for (const auto& [name, id] : pattern_name_index_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

void Database::ForEachObject(
    const std::function<void(const ObjectItem&)>& fn) const {
  for (const auto& [id, obj] : objects_) {
    if (!obj.deleted) fn(obj);
  }
}

void Database::ForEachRelationship(
    const std::function<void(const RelationshipItem&)>& fn) const {
  for (const auto& [id, rel] : relationships_) {
    if (!rel.deleted) fn(rel);
  }
}

}  // namespace seed::core
