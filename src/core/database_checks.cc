// Consistency and completeness checking.
//
// Consistency rules (class membership, maximum cardinalities, ACYCLIC,
// attached procedures, value types, duplicates, names) run incrementally
// inside every mutating operation; AuditConsistency() re-derives all of
// them from scratch for tests, recovery and schema migration, and
// AuditChange() re-derives them over the neighbourhood of one trusted
// ReplaceItems change (the multiuser check-in).
//
// Completeness rules (minimum cardinalities, covering conditions,
// undefined values) are evaluated only by the explicit CheckCompleteness()
// operations and never veto an update.

#include <algorithm>

#include "common/macros.h"
#include "core/database.h"

namespace seed::core {

// --- Incremental consistency helpers -----------------------------------------

Status Database::CheckIndependentName(const std::string& name, bool pattern,
                                      ObjectId ignore) const {
  const auto& idx = pattern ? pattern_name_index_ : name_index_;
  auto it = idx.find(name);
  if (it != idx.end() && it->second != ignore) {
    return Status::ConsistencyViolation(
        "name conflict: " + std::string(pattern ? "pattern" : "object") +
        " '" + name + "' already exists");
  }
  return Status::OK();
}

Status Database::CheckValueConforms(const schema::ObjectClass& cls,
                                    const Value& value) const {
  using schema::ValueType;
  if (!value.defined()) return Status::OK();
  if (cls.value_type == ValueType::kNone) {
    return Status::ConsistencyViolation(
        "value type: class '" + cls.full_name + "' carries no value");
  }
  if (value.type() != cls.value_type) {
    return Status::ConsistencyViolation(
        "value type: class '" + cls.full_name + "' wants " +
        std::string(schema::ValueTypeToString(cls.value_type)) + ", got " +
        std::string(schema::ValueTypeToString(value.type())));
  }
  if (cls.value_type == ValueType::kEnum) {
    const std::string& v = value.as_enum();
    if (std::find(cls.enum_values.begin(), cls.enum_values.end(), v) ==
        cls.enum_values.end()) {
      return Status::ConsistencyViolation(
          "value type: '" + v + "' is not an allowed value of enum class '" +
          cls.full_name + "'");
    }
  }
  return Status::OK();
}

size_t Database::CountChildrenOfClass(const std::vector<ObjectId>& children,
                                      ClassId cls) const {
  size_t n = 0;
  for (ObjectId id : children) {
    const ObjectItem* child = LiveObject(id);
    if (child != nullptr && child->cls == cls) ++n;
  }
  return n;
}

std::uint32_t Database::NextChildIndex(const std::vector<ObjectId>& children,
                                       ClassId cls) const {
  std::uint32_t next = 0;
  for (ObjectId id : children) {
    const ObjectItem* child = LiveObject(id);
    if (child != nullptr && child->cls == cls && child->index >= next) {
      next = child->index + 1;
    }
  }
  return next;
}

size_t Database::CountParticipation(ObjectId obj, AssociationId assoc,
                                    int role) const {
  size_t n = 0;
  ForEachRelationshipEnd(obj, assoc, role, [&n](const RelationshipEnd&) {
    ++n;
  });
  return n;
}

Status Database::CheckParticipationMaxima(AssociationId assoc, ObjectId end0,
                                          ObjectId end1) const {
  // A relationship of `assoc` also counts as a relationship of every
  // generalization ancestor (paper Fig. 3: a Read is an Access), so the
  // maxima of the whole chain apply.
  ObjectId ends[2] = {end0, end1};
  for (AssociationId a : schema_->GeneralizationChain(assoc)) {
    SEED_ASSIGN_OR_RETURN(const schema::Association* info,
                          schema_->GetAssociation(a));
    for (int i = 0; i < 2; ++i) {
      const schema::Role& role = info->roles[i];
      if (role.cardinality.unlimited_max()) continue;
      size_t count = CountParticipation(ends[i], a, i);
      if (count + 1 > role.cardinality.max) {
        return Status::ConsistencyViolation(
            "maximum role participation: '" + FullName(ends[i]) +
            "' already takes part in " + std::to_string(count) +
            " relationships of '" + info->name + "' as '" + role.name +
            "' (max " + role.cardinality.ToString() + ")");
      }
    }
  }
  return Status::OK();
}

bool Database::DuplicateExists(AssociationId assoc, ObjectId end0,
                               ObjectId end1, RelationshipId ignore) const {
  // Scan end0's own relationship list, not the association extent: an
  // object's degree stays small while an association can hold the whole
  // database (creating n relationships used to cost O(n^2) through this
  // check).
  for (const RelationshipEnd& end : AdjacencyOf(end0)) {
    if (end.rel == ignore || end.is_pattern || end.role != 0) continue;
    if (end.assoc == assoc && end.other == end1) return true;
  }
  return false;
}

bool Database::WouldCreateCycle(AssociationId root, ObjectId from,
                                ObjectId to, RelationshipId ignore) const {
  // The new edge is from->to (role 0 -> role 1); it closes a cycle iff
  // `from` is reachable from `to` over existing edges.
  if (from == to) return true;
  std::vector<ObjectId> stack{to};
  std::unordered_set<ObjectId> seen{to};
  bool found = false;
  while (!stack.empty() && !found) {
    ObjectId cur = stack.back();
    stack.pop_back();
    ForEachRelationshipEnd(cur, root, 0, [&](const RelationshipEnd& end) {
      if (end.rel == ignore) return;
      if (end.other == from) found = true;
      if (seen.insert(end.other).second) stack.push_back(end.other);
    });
  }
  return found;
}

Status Database::CheckAcyclicity(AssociationId assoc, ObjectId end0,
                                 ObjectId end1,
                                 RelationshipId ignore) const {
  for (AssociationId a : schema_->GeneralizationChain(assoc)) {
    SEED_ASSIGN_OR_RETURN(const schema::Association* info,
                          schema_->GetAssociation(a));
    if (!info->acyclic) continue;
    if (WouldCreateCycle(a, end0, end1, ignore)) {
      return Status::ConsistencyViolation(
          "ACYCLIC: relationship would close a cycle in association '" +
          info->name + "'");
    }
  }
  return Status::OK();
}

Status Database::RunProcedures(ClassId cls, const UpdateEvent& event) const {
  for (ClassId c : schema_->GeneralizationChain(cls)) {
    auto it = class_procedures_.find(c);
    if (it == class_procedures_.end()) continue;
    for (const AttachedProcedure& proc : it->second) {
      Status s = proc(event);
      if (!s.ok()) {
        return Status::ConsistencyViolation(
            "attached procedure vetoed the update: " + s.message());
      }
    }
  }
  return Status::OK();
}

Status Database::RunProcedures(AssociationId assoc,
                               const UpdateEvent& event) const {
  for (AssociationId a : schema_->GeneralizationChain(assoc)) {
    auto it = assoc_procedures_.find(a);
    if (it == assoc_procedures_.end()) continue;
    for (const AttachedProcedure& proc : it->second) {
      Status s = proc(event);
      if (!s.ok()) {
        return Status::ConsistencyViolation(
            "attached procedure vetoed the update: " + s.message());
      }
    }
  }
  return Status::OK();
}

// --- Consistency audits -----------------------------------------------------

void Database::AuditObject(const ObjectItem& obj, Report* report) const {
  auto add = [&](Rule rule, std::string detail) {
    report->violations.push_back(
        Violation{rule, obj.id, RelationshipId(), std::move(detail)});
  };
  const ObjectId id = obj.id;
  auto cls = schema_->GetClass(obj.cls);
  if (!cls.ok()) {
    add(Rule::kClassMembership, "object '" + FullName(id) +
                                    "' has unknown class id " +
                                    std::to_string(obj.cls.raw()));
    return;
  }
  if (obj.is_independent()) {
    if ((*cls)->is_dependent()) {
      add(Rule::kClassMembership, "independent object '" + obj.name +
                                      "' has dependent class '" +
                                      (*cls)->full_name + "'");
    }
  } else if (obj.parent_kind == ParentKind::kObject) {
    auto parent_it = objects_.find(obj.parent_object);
    if (parent_it == objects_.end() || parent_it->second.deleted) {
      add(Rule::kClassMembership,
          "sub-object '" + FullName(id) + "' has no live parent");
    } else {
      auto resolved = schema_->ResolveSubObjectRole(parent_it->second.cls,
                                                    (*cls)->name);
      if (!resolved.ok() || *resolved != obj.cls) {
        add(Rule::kClassMembership,
            "sub-object '" + FullName(id) +
                "' is not a legal role of its parent's class");
      }
    }
  } else {
    auto parent_it = relationships_.find(obj.parent_relationship);
    if (parent_it == relationships_.end() || parent_it->second.deleted) {
      add(Rule::kClassMembership,
          "attribute '" + FullName(id) + "' has no live relationship");
    } else {
      auto resolved = schema_->ResolveSubObjectRole(parent_it->second.assoc,
                                                    (*cls)->name);
      if (!resolved.ok() || *resolved != obj.cls) {
        add(Rule::kClassMembership,
            "attribute '" + FullName(id) +
                "' is not a legal role of its relationship's association");
      }
    }
  }
  // Maximum cardinality over each dependent role.
  for (ClassId dep : schema_->EffectiveDependentClassesOf(obj.cls)) {
    auto dep_cls = schema_->GetClass(dep);
    if (!(*dep_cls)->cardinality.unlimited_max()) {
      size_t count = CountChildrenOfClass(obj.children, dep);
      if (count > (*dep_cls)->cardinality.max) {
        add(Rule::kMaxCardinality,
            "object '" + FullName(id) + "' has " + std::to_string(count) +
                " sub-objects in role '" + (*dep_cls)->full_name +
                "' (max " + (*dep_cls)->cardinality.ToString() + ")");
      }
    }
  }
  Status vs = CheckValueConforms(**cls, obj.value);
  if (!vs.ok()) add(Rule::kValueType, vs.message());
}

void Database::AuditRelationship(const RelationshipItem& rel,
                                 Report* report) const {
  auto add = [&](Rule rule, std::string detail) {
    report->violations.push_back(
        Violation{rule, ObjectId(), rel.id, std::move(detail)});
  };
  auto assoc = schema_->GetAssociation(rel.assoc);
  if (!assoc.ok()) {
    add(Rule::kClassMembership, "relationship has unknown association id " +
                                    std::to_string(rel.assoc.raw()));
    return;
  }
  for (int i = 0; i < 2; ++i) {
    auto end_it = objects_.find(rel.ends[i]);
    if (end_it == objects_.end() || end_it->second.deleted) {
      add(Rule::kClassMembership,
          "relationship of '" + (*assoc)->name + "' has a dead end");
      continue;
    }
    if (end_it->second.is_pattern) {
      add(Rule::kPatternSeparation, "normal relationship of '" +
                                        (*assoc)->name +
                                        "' connects a pattern object");
    }
    if (!schema_->IsSameOrSpecializationOf(end_it->second.cls,
                                           (*assoc)->roles[i].target)) {
      add(Rule::kClassMembership,
          "participant '" + FullName(rel.ends[i]) +
              "' does not conform to role '" + (*assoc)->roles[i].name +
              "' of '" + (*assoc)->name + "'");
    }
  }
  if (DuplicateExists(rel.assoc, rel.ends[0], rel.ends[1], rel.id)) {
    add(Rule::kDuplicateRelationship,
        "duplicate relationship of '" + (*assoc)->name + "'");
  }
}

void Database::AuditParticipation(ObjectId obj, AssociationId a, int role,
                                  const schema::Association& info,
                                  Report* report) const {
  const schema::Role& r = info.roles[role];
  size_t count = CountParticipation(obj, a, role);
  if (count > r.cardinality.max) {
    report->violations.push_back(Violation{
        Rule::kRoleMaxParticipation, obj, RelationshipId(),
        "object '" + FullName(obj) + "' takes part in " +
            std::to_string(count) + " relationships of '" + info.name +
            "' as '" + r.name + "' (max " + r.cardinality.ToString() + ")"});
  }
}

Report Database::AuditConsistency() const {
  Report report;
  std::unordered_map<std::string, ObjectId> names;
  for (const auto& [id, obj] : objects_) {
    if (obj.deleted || obj.is_pattern) continue;
    AuditObject(obj, &report);
    if (obj.is_independent() && schema_->GetClass(obj.cls).ok() &&
        !names.emplace(obj.name, id).second) {
      report.violations.push_back(
          Violation{Rule::kNameConflict, id, RelationshipId(),
                    "duplicate independent name '" + obj.name + "'"});
    }
  }

  for (const auto& [id, rel] : relationships_) {
    if (rel.deleted || rel.is_pattern) continue;
    AuditRelationship(rel, &report);
  }

  // Maximum role participation, per association and live object.
  for (AssociationId a : schema_->AllAssociationIds()) {
    auto info = schema_->GetAssociation(a);
    for (int i = 0; i < 2; ++i) {
      const schema::Role& role = (*info)->roles[i];
      if (role.cardinality.unlimited_max()) continue;
      for (ObjectId obj : ObjectsOfClass(role.target, true)) {
        AuditParticipation(obj, a, i, **info, &report);
      }
    }
  }

  // ACYCLIC conditions: full graph check per acyclic association family.
  for (AssociationId a : schema_->AllAssociationIds()) {
    auto info = schema_->GetAssociation(a);
    if (!(*info)->acyclic) continue;
    // Kahn's algorithm over the family graph.
    std::unordered_map<ObjectId, size_t> indegree;
    std::unordered_map<ObjectId, std::vector<ObjectId>> adj;
    size_t num_edges = 0;
    for (const auto& [rid, rel] : relationships_) {
      if (rel.deleted || rel.is_pattern) continue;
      if (!schema_->IsSameOrSpecializationOf(rel.assoc, a)) continue;
      adj[rel.ends[0]].push_back(rel.ends[1]);
      ++indegree[rel.ends[1]];
      indegree.emplace(rel.ends[0], indegree[rel.ends[0]]);
      ++num_edges;
    }
    std::vector<ObjectId> queue;
    for (const auto& [node, deg] : indegree) {
      if (deg == 0) queue.push_back(node);
    }
    size_t visited_edges = 0;
    while (!queue.empty()) {
      ObjectId cur = queue.back();
      queue.pop_back();
      auto it = adj.find(cur);
      if (it == adj.end()) continue;
      for (ObjectId next : it->second) {
        ++visited_edges;
        if (--indegree[next] == 0) queue.push_back(next);
      }
    }
    if (visited_edges != num_edges) {
      report.violations.push_back(
          Violation{Rule::kAcyclic, ObjectId(), RelationshipId(),
                    "association '" + (*info)->name + "' contains a cycle"});
    }
  }
  return report;
}

Report Database::AuditChange(const ItemBatch& before) const {
  // The neighbourhood whose rules the change can have broken.
  std::unordered_set<ObjectId> objects;        // object rules
  std::unordered_set<RelationshipId> rels;     // relationship rules
  std::unordered_set<ObjectId> participants;   // role participation
  auto add_family = [&](const ObjectItem& obj) {
    objects.insert(obj.children.begin(), obj.children.end());
    if (obj.parent_kind == ParentKind::kObject) {
      objects.insert(obj.parent_object);
    } else if (obj.parent_kind == ParentKind::kRelationship) {
      rels.insert(obj.parent_relationship);
    }
  };
  for (const ItemBatch::Object& entry : before.objects) {
    objects.insert(entry.id);
    participants.insert(entry.id);
    if (entry.state.has_value()) add_family(*entry.state);
    auto it = objects_.find(entry.id);
    if (it != objects_.end()) add_family(it->second);
    for (const RelationshipEnd& end : AdjacencyOf(entry.id)) {
      rels.insert(end.rel);
    }
  }
  std::vector<const RelationshipItem*> edges;  // for ACYCLIC
  auto add_relationship = [&](const RelationshipItem& rel) {
    objects.insert(rel.children.begin(), rel.children.end());
    participants.insert(rel.ends[0]);
    participants.insert(rel.ends[1]);
  };
  for (const ItemBatch::Relationship& entry : before.relationships) {
    rels.insert(entry.id);
    if (entry.state.has_value()) add_relationship(*entry.state);
    auto it = relationships_.find(entry.id);
    if (it == relationships_.end()) continue;
    add_relationship(it->second);
    if (!it->second.deleted && !it->second.is_pattern) {
      edges.push_back(&it->second);
    }
  }
  // Attributes of every relationship in scope.
  for (RelationshipId rid : rels) {
    auto it = relationships_.find(rid);
    if (it != relationships_.end()) {
      objects.insert(it->second.children.begin(), it->second.children.end());
    }
  }

  Report report;
  for (ObjectId id : objects) {
    auto it = objects_.find(id);
    if (it == objects_.end() || it->second.deleted || it->second.is_pattern) {
      continue;
    }
    const ObjectItem& obj = it->second;
    AuditObject(obj, &report);
    // The name index keeps the first live holder of a name, so any twin
    // finds another id there.
    if (obj.is_independent() && schema_->GetClass(obj.cls).ok()) {
      auto name_it = name_index_.find(obj.name);
      if (name_it == name_index_.end() || name_it->second != id) {
        report.violations.push_back(
            Violation{Rule::kNameConflict, id, RelationshipId(),
                      "duplicate independent name '" + obj.name + "'"});
      }
    }
  }
  for (RelationshipId rid : rels) {
    auto it = relationships_.find(rid);
    if (it != relationships_.end() && !it->second.deleted &&
        !it->second.is_pattern) {
      AuditRelationship(it->second, &report);
    }
  }
  for (ObjectId id : participants) {
    auto it = objects_.find(id);
    if (it == objects_.end() || it->second.deleted || it->second.is_pattern) {
      continue;
    }
    for (AssociationId a : schema_->AllAssociationIds()) {
      auto info = schema_->GetAssociation(a);
      for (int i = 0; i < 2; ++i) {
        const schema::Role& role = (*info)->roles[i];
        if (role.cardinality.unlimited_max() ||
            !schema_->IsSameOrSpecializationOf(it->second.cls, role.target)) {
          continue;
        }
        AuditParticipation(id, a, i, **info, &report);
      }
    }
  }
  // The database was acyclic before the change and removing edges cannot
  // close a cycle, so any cycle now runs through a replaced relationship.
  for (const RelationshipItem* rel : edges) {
    for (AssociationId a : schema_->GeneralizationChain(rel->assoc)) {
      auto info = schema_->GetAssociation(a);
      if (!info.ok() || !(*info)->acyclic) continue;
      if (WouldCreateCycle(a, rel->ends[0], rel->ends[1], rel->id)) {
        report.violations.push_back(
            Violation{Rule::kAcyclic, ObjectId(), rel->id,
                      "association '" + (*info)->name +
                          "' contains a cycle"});
      }
    }
  }
  return report;
}

// --- Completeness ------------------------------------------------------------

void Database::CheckObjectCompleteness(const ObjectItem& obj,
                                       Report* report) const {
  auto cls = schema_->GetClass(obj.cls);
  if (!cls.ok()) return;
  // Minimum cardinalities of every effective dependent role.
  for (ClassId dep : schema_->EffectiveDependentClassesOf(obj.cls)) {
    auto dep_cls = schema_->GetClass(dep);
    if ((*dep_cls)->cardinality.min == 0) continue;
    size_t count = CountChildrenOfClass(obj.children, dep);
    if (count < (*dep_cls)->cardinality.min) {
      report->violations.push_back(Violation{
          Rule::kMinCardinality, obj.id, RelationshipId(),
          "object '" + FullName(obj.id) + "' has " + std::to_string(count) +
              " sub-objects in role '" + (*dep_cls)->full_name + "' (min " +
              (*dep_cls)->cardinality.ToString() + ")"});
    }
  }
  // Covering condition: the instance must finally be specialized.
  if ((*cls)->covering) {
    report->violations.push_back(Violation{
        Rule::kCovering, obj.id, RelationshipId(),
        "object '" + FullName(obj.id) + "' still sits at covering class '" +
            (*cls)->full_name + "' and must be specialized"});
  }
  // Undefined value.
  if ((*cls)->value_type != schema::ValueType::kNone &&
      !obj.value.defined()) {
    report->violations.push_back(Violation{
        Rule::kUndefinedValue, obj.id, RelationshipId(),
        "object '" + FullName(obj.id) + "' of class '" + (*cls)->full_name +
            "' has no value"});
  }
  // Minimum role participation over every association whose role this
  // object's class conforms to.
  for (AssociationId a : schema_->AllAssociationIds()) {
    auto info = schema_->GetAssociation(a);
    for (int i = 0; i < 2; ++i) {
      const schema::Role& role = (*info)->roles[i];
      if (role.cardinality.min == 0) continue;
      if (!schema_->IsSameOrSpecializationOf(obj.cls, role.target)) continue;
      size_t count = CountParticipation(obj.id, a, i);
      if (count < role.cardinality.min) {
        report->violations.push_back(Violation{
            Rule::kRoleMinParticipation, obj.id, RelationshipId(),
            "object '" + FullName(obj.id) + "' takes part in " +
                std::to_string(count) + " relationships of '" +
                (*info)->name + "' as '" + role.name + "' (min " +
                role.cardinality.ToString() + ")"});
      }
    }
  }
}

void Database::CheckRelationshipCompleteness(const RelationshipItem& rel,
                                             Report* report) const {
  auto assoc = schema_->GetAssociation(rel.assoc);
  if (!assoc.ok()) return;
  if ((*assoc)->covering) {
    report->violations.push_back(Violation{
        Rule::kCovering, ObjectId(), rel.id,
        "relationship of covering association '" + (*assoc)->name +
            "' must be specialized"});
  }
  // Minimum cardinalities of attribute roles, over the generalization
  // chain of the association.
  for (AssociationId a : schema_->GeneralizationChain(rel.assoc)) {
    for (ClassId dep : schema_->DependentClassesOf(
             schema::StructuralOwner::OfAssociation(a))) {
      auto dep_cls = schema_->GetClass(dep);
      if ((*dep_cls)->cardinality.min == 0) continue;
      size_t count = CountChildrenOfClass(rel.children, dep);
      if (count < (*dep_cls)->cardinality.min) {
        report->violations.push_back(Violation{
            Rule::kMinCardinality, ObjectId(), rel.id,
            "relationship of '" + (*assoc)->name + "' has " +
                std::to_string(count) + " attributes in role '" +
                (*dep_cls)->full_name + "' (min " +
                (*dep_cls)->cardinality.ToString() + ")"});
      }
    }
  }
}

Report Database::CheckCompleteness() const {
  Report report;
  for (const auto& [id, obj] : objects_) {
    if (obj.deleted || obj.is_pattern) continue;
    CheckObjectCompleteness(obj, &report);
  }
  for (const auto& [id, rel] : relationships_) {
    if (rel.deleted || rel.is_pattern) continue;
    CheckRelationshipCompleteness(rel, &report);
  }
  return report;
}

Report Database::CheckCompleteness(ObjectId root) const {
  Report report;
  auto root_it = objects_.find(root);
  if (root_it == objects_.end() || root_it->second.deleted) return report;
  std::vector<ObjectId> work{root};
  while (!work.empty()) {
    ObjectId oid = work.back();
    work.pop_back();
    const ObjectItem* obj = LiveObject(oid);
    if (obj == nullptr || obj->is_pattern) continue;
    CheckObjectCompleteness(*obj, &report);
    work.insert(work.end(), obj->children.begin(), obj->children.end());
  }
  return report;
}

}  // namespace seed::core
