#include "schema/schema.h"

#include <algorithm>

#include "common/macros.h"
#include "common/strings.h"

namespace seed::schema {

namespace {
const std::vector<ClassId> kNoClasses;
const std::vector<AssociationId> kNoAssociations;
}  // namespace

Result<const ObjectClass*> Schema::GetClass(ClassId id) const {
  if (!id.valid() || id.raw() > classes_.size()) {
    return Status::NotFound("class id " + std::to_string(id.raw()));
  }
  return &classes_[id.raw() - 1];
}

Result<const Association*> Schema::GetAssociation(AssociationId id) const {
  if (!id.valid() || id.raw() > associations_.size()) {
    return Status::NotFound("association id " + std::to_string(id.raw()));
  }
  return &associations_[id.raw() - 1];
}

Result<ClassId> Schema::FindIndependentClass(std::string_view name) const {
  auto it = independent_by_name_.find(std::string(name));
  if (it == independent_by_name_.end()) {
    return Status::NotFound("no independent class '" + std::string(name) +
                            "'");
  }
  return it->second;
}

Result<AssociationId> Schema::FindAssociation(std::string_view name) const {
  auto it = association_by_name_.find(std::string(name));
  if (it == association_by_name_.end()) {
    return Status::NotFound("no association '" + std::string(name) + "'");
  }
  return it->second;
}

Result<ClassId> Schema::FindClassByPath(std::string_view path) const {
  SEED_ASSIGN_OR_RETURN(auto segments, strings::ParsePath(path));
  for (const PathSegment& seg : segments) {
    if (seg.index.has_value()) {
      return Status::InvalidArgument("schema path '" + std::string(path) +
                                     "' must not contain indexes");
    }
  }
  size_t next = 1;
  ClassId cur;
  auto cls = FindIndependentClass(segments[0].name);
  if (cls.ok()) {
    cur = *cls;
  } else {
    // First segment may name an association owning dependent classes.
    auto assoc = FindAssociation(segments[0].name);
    if (!assoc.ok()) {
      return Status::NotFound("path root '" + segments[0].name +
                              "' is neither a class nor an association");
    }
    if (segments.size() < 2) {
      return Status::InvalidArgument(
          "path '" + std::string(path) +
          "' names an association, not a class");
    }
    SEED_ASSIGN_OR_RETURN(cur,
                          ResolveSubObjectRole(*assoc, segments[1].name));
    next = 2;
  }
  for (size_t i = next; i < segments.size(); ++i) {
    SEED_ASSIGN_OR_RETURN(cur, ResolveSubObjectRole(cur, segments[i].name));
  }
  return cur;
}

std::vector<ClassId> Schema::AllClassIds() const {
  std::vector<ClassId> out;
  out.reserve(classes_.size());
  for (const auto& c : classes_) out.push_back(c.id);
  return out;
}

std::vector<AssociationId> Schema::AllAssociationIds() const {
  std::vector<AssociationId> out;
  out.reserve(associations_.size());
  for (const auto& a : associations_) out.push_back(a.id);
  return out;
}

const std::vector<ClassId>& Schema::DependentClassesOf(
    const StructuralOwner& owner) const {
  auto it = dependents_.find(OwnerKey(owner));
  return it == dependents_.end() ? kNoClasses : it->second;
}

std::vector<ClassId> Schema::EffectiveDependentClassesOf(ClassId cls) const {
  std::vector<ClassId> out;
  for (ClassId c : GeneralizationChain(cls)) {
    const auto& declared = DependentClassesOf(StructuralOwner::OfClass(c));
    out.insert(out.end(), declared.begin(), declared.end());
  }
  return out;
}

Result<ClassId> Schema::ResolveSubObjectRole(ClassId cls,
                                             std::string_view role) const {
  for (ClassId c : GeneralizationChain(cls)) {
    for (ClassId dep : DependentClassesOf(StructuralOwner::OfClass(c))) {
      const ObjectClass& d = classes_[dep.raw() - 1];
      if (d.name == role) return dep;
    }
  }
  auto cls_info = GetClass(cls);
  return Status::NotFound(
      "class '" + (cls_info.ok() ? (*cls_info)->full_name : "?") +
      "' has no sub-object role '" + std::string(role) + "'");
}

Result<ClassId> Schema::ResolveSubObjectRole(AssociationId assoc,
                                             std::string_view role) const {
  for (AssociationId a : GeneralizationChain(assoc)) {
    for (ClassId dep :
         DependentClassesOf(StructuralOwner::OfAssociation(a))) {
      const ObjectClass& d = classes_[dep.raw() - 1];
      if (d.name == role) return dep;
    }
  }
  auto info = GetAssociation(assoc);
  return Status::NotFound("association '" +
                          (info.ok() ? (*info)->name : "?") +
                          "' has no sub-object role '" + std::string(role) +
                          "'");
}

bool Schema::IsSameOrSpecializationOf(ClassId sub, ClassId super) const {
  ClassId cur = sub;
  while (cur.valid()) {
    if (cur == super) return true;
    if (cur.raw() > classes_.size()) return false;
    cur = classes_[cur.raw() - 1].generalizes_into;
  }
  return false;
}

bool Schema::IsSameOrSpecializationOf(AssociationId sub,
                                      AssociationId super) const {
  AssociationId cur = sub;
  while (cur.valid()) {
    if (cur == super) return true;
    if (cur.raw() > associations_.size()) return false;
    cur = associations_[cur.raw() - 1].generalizes_into;
  }
  return false;
}

std::vector<ClassId> Schema::GeneralizationChain(ClassId cls) const {
  std::vector<ClassId> out;
  ClassId cur = cls;
  while (cur.valid() && cur.raw() <= classes_.size()) {
    out.push_back(cur);
    cur = classes_[cur.raw() - 1].generalizes_into;
  }
  return out;
}

std::vector<AssociationId> Schema::GeneralizationChain(
    AssociationId assoc) const {
  std::vector<AssociationId> out;
  AssociationId cur = assoc;
  while (cur.valid() && cur.raw() <= associations_.size()) {
    out.push_back(cur);
    cur = associations_[cur.raw() - 1].generalizes_into;
  }
  return out;
}

const std::vector<ClassId>& Schema::SpecializationsOf(ClassId cls) const {
  auto it = class_specializations_.find(cls.raw());
  return it == class_specializations_.end() ? kNoClasses : it->second;
}

const std::vector<AssociationId>& Schema::SpecializationsOf(
    AssociationId assoc) const {
  auto it = association_specializations_.find(assoc.raw());
  return it == association_specializations_.end() ? kNoAssociations
                                                  : it->second;
}

const std::vector<AssociationId>& Schema::AssociationFamily(
    AssociationId assoc) const {
  if (!assoc.valid() || assoc.raw() > association_families_.size()) {
    return kNoAssociations;
  }
  return association_families_[assoc.raw() - 1];
}

const std::vector<ClassId>& Schema::ClassFamily(ClassId cls) const {
  if (!cls.valid() || cls.raw() > class_families_.size()) return kNoClasses;
  return class_families_[cls.raw() - 1];
}

bool Schema::OnSameGeneralizationPath(ClassId a, ClassId b) const {
  return IsSameOrSpecializationOf(a, b) || IsSameOrSpecializationOf(b, a);
}

bool Schema::OnSameGeneralizationPath(AssociationId a, AssociationId b) const {
  return IsSameOrSpecializationOf(a, b) || IsSameOrSpecializationOf(b, a);
}

namespace {

/// `root` plus all (transitive) specializations, breadth-first. Runs
/// before validation, so a generalization cycle must not loop forever:
/// ids already collected are skipped.
template <typename Id>
std::vector<Id> CollectFamily(
    Id root,
    const std::unordered_map<std::uint64_t, std::vector<Id>>& children) {
  std::vector<Id> out{root};
  for (size_t i = 0; i < out.size(); ++i) {
    auto it = children.find(out[i].raw());
    if (it == children.end()) continue;
    for (Id kid : it->second) {
      if (std::find(out.begin(), out.end(), kid) == out.end()) {
        out.push_back(kid);
      }
    }
  }
  return out;
}

}  // namespace

void Schema::BuildIndexes() {
  independent_by_name_.clear();
  association_by_name_.clear();
  dependents_.clear();
  class_specializations_.clear();
  association_specializations_.clear();
  class_families_.clear();
  association_families_.clear();

  for (const ObjectClass& c : classes_) {
    if (!c.is_dependent()) independent_by_name_[c.name] = c.id;
    if (c.is_dependent()) {
      dependents_[OwnerKey(c.owner)].push_back(c.id);
    }
    if (c.is_specialized()) {
      class_specializations_[c.generalizes_into.raw()].push_back(c.id);
    }
  }
  for (const Association& a : associations_) {
    association_by_name_[a.name] = a.id;
    if (a.is_specialized()) {
      association_specializations_[a.generalizes_into.raw()].push_back(a.id);
    }
  }
  for (const ObjectClass& c : classes_) {
    class_families_.push_back(CollectFamily(c.id, class_specializations_));
  }
  for (const Association& a : associations_) {
    association_families_.push_back(
        CollectFamily(a.id, association_specializations_));
  }
  // Full names: independent classes are their own roots; dependent classes
  // prefix their owner's full name; association-owned classes prefix the
  // association name. Owners always have smaller ids than their dependents
  // (builder invariant), so one pass in id order suffices.
  for (ObjectClass& c : classes_) {
    if (!c.is_dependent()) {
      c.full_name = c.name;
    } else if (c.owner.kind == OwnerKind::kClass) {
      c.full_name =
          classes_[c.owner.class_id().raw() - 1].full_name + "." + c.name;
    } else {
      c.full_name =
          associations_[c.owner.association_id().raw() - 1].name + "." +
          c.name;
    }
  }
}

}  // namespace seed::schema
