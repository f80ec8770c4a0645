// Immutable schema: the set of object classes and associations, with
// structural and generalization queries. Built by SchemaBuilder (which
// validates), then frozen. Schema evolution produces a *new* Schema with a
// higher version number (the paper requires schema versions so that old
// database versions stay interpretable).

#ifndef SEED_SCHEMA_SCHEMA_H_
#define SEED_SCHEMA_SCHEMA_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "schema/elements.h"

namespace seed::schema {

class SchemaBuilder;

class Schema {
 public:
  /// Schema name (e.g. "MiniSpec") and monotonically increasing version.
  const std::string& name() const { return name_; }
  std::uint64_t version() const { return version_; }

  // --- Element lookup -----------------------------------------------------

  Result<const ObjectClass*> GetClass(ClassId id) const;
  Result<const Association*> GetAssociation(AssociationId id) const;

  /// Finds a top-level (independent) class by name.
  Result<ClassId> FindIndependentClass(std::string_view name) const;
  /// Finds an association by name.
  Result<AssociationId> FindAssociation(std::string_view name) const;

  /// Resolves a dotted schema path whose first segment is an independent
  /// class or association name and whose remaining segments are role names,
  /// e.g. "Data.Text.Body" or "Write.NumberOfWrites". Role resolution
  /// follows generalization (InputData.Text resolves via Data).
  Result<ClassId> FindClassByPath(std::string_view path) const;

  std::vector<ClassId> AllClassIds() const;
  std::vector<AssociationId> AllAssociationIds() const;
  size_t num_classes() const { return classes_.size(); }
  size_t num_associations() const { return associations_.size(); }

  // --- Structural queries -------------------------------------------------

  /// Dependent classes declared directly on `owner`.
  const std::vector<ClassId>& DependentClassesOf(
      const StructuralOwner& owner) const;

  /// Dependent classes available to instances of `cls`: declared on `cls`
  /// or on any of its generalization ancestors.
  std::vector<ClassId> EffectiveDependentClassesOf(ClassId cls) const;

  /// Resolves a role name on an object of class `cls` (searching the
  /// generalization chain); returns the dependent class.
  Result<ClassId> ResolveSubObjectRole(ClassId cls,
                                       std::string_view role) const;

  /// Resolves a role name on relationships of `assoc` (searching the
  /// association's generalization chain).
  Result<ClassId> ResolveSubObjectRole(AssociationId assoc,
                                       std::string_view role) const;

  // --- Generalization queries ----------------------------------------------

  bool IsSameOrSpecializationOf(ClassId sub, ClassId super) const;
  bool IsSameOrSpecializationOf(AssociationId sub, AssociationId super) const;

  /// `cls` first, then its generalization ancestors up to the root.
  std::vector<ClassId> GeneralizationChain(ClassId cls) const;
  std::vector<AssociationId> GeneralizationChain(AssociationId assoc) const;

  /// Direct specializations.
  const std::vector<ClassId>& SpecializationsOf(ClassId cls) const;
  const std::vector<AssociationId>& SpecializationsOf(
      AssociationId assoc) const;

  /// `assoc` plus all (transitive) specializations, breadth-first.
  /// Computed once when the schema is built; empty for unknown ids.
  const std::vector<AssociationId>& AssociationFamily(
      AssociationId assoc) const;
  /// `cls` plus all (transitive) specializations, breadth-first.
  /// Computed once when the schema is built; empty for unknown ids.
  const std::vector<ClassId>& ClassFamily(ClassId cls) const;

  /// True iff one of `a`, `b` is an ancestor of the other (or equal) in the
  /// generalization hierarchy — the legality condition for re-classification.
  bool OnSameGeneralizationPath(ClassId a, ClassId b) const;
  bool OnSameGeneralizationPath(AssociationId a, AssociationId b) const;

 private:
  friend class SchemaBuilder;
  friend class SchemaCodec;

  Schema() = default;

  /// Computes full names, owner->dependents, specialization indexes and
  /// generalization families.
  void BuildIndexes();

  std::string name_;
  std::uint64_t version_ = 1;
  /// Dense storage; ClassId raw n lives at classes_[n-1].
  std::vector<ObjectClass> classes_;
  std::vector<Association> associations_;

  std::unordered_map<std::string, ClassId> independent_by_name_;
  std::unordered_map<std::string, AssociationId> association_by_name_;
  /// Owner (encoded as kind|id) -> dependent class ids, in declaration order.
  std::unordered_map<std::uint64_t, std::vector<ClassId>> dependents_;
  std::unordered_map<std::uint64_t, std::vector<ClassId>>
      class_specializations_;
  std::unordered_map<std::uint64_t, std::vector<AssociationId>>
      association_specializations_;
  /// Families by dense id: class_families_[raw - 1] is ClassFamily(raw).
  std::vector<std::vector<ClassId>> class_families_;
  std::vector<std::vector<AssociationId>> association_families_;

  static std::uint64_t OwnerKey(const StructuralOwner& owner) {
    return (static_cast<std::uint64_t>(owner.kind) << 56) | owner.id_raw;
  }
};

using SchemaPtr = std::shared_ptr<const Schema>;

}  // namespace seed::schema

#endif  // SEED_SCHEMA_SCHEMA_H_
