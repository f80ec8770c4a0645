// Differential test for the database's maintained retrieval maps (class
// and association extents, per-object adjacency): after every step of a
// random history of creates, cascade deletes, reclassifications both ways
// along the generalization chains, pattern items, self-relationships,
// vetoed updates, trusted restores + RebuildIndexes, version restores and
// persistence reloads, ObjectsOfClass, RelationshipsOfAssociation,
// RelationshipsOf and PatternRelationshipsOf must equal a brute-force scan
// of the raw item tables, and the maps must equal a from-scratch
// RebuildIndexes() of the same items — with no emptied entry left behind.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/random.h"
#include "core/database.h"
#include "core/persistence.h"
#include "schema/schema_builder.h"
#include "storage/kv_store.h"
#include "version/version_manager.h"

namespace seed {
namespace {

using core::CreateOptions;
using core::Database;
using core::ObjectItem;
using core::Persistence;
using core::RelationshipItem;

struct MapWorld {
  schema::SchemaPtr schema;
  // Base <- Spec0 <- Spec1 and Base <- Side; Target stands alone.
  ClassId base, spec0, spec1, side, target, note;
  // Link(Base, Base) <- FastLink; Owns(Base, Target).
  AssociationId link, fast_link, owns;

  std::vector<ClassId> family() const { return {base, spec0, spec1}; }
};

MapWorld BuildMapWorld() {
  schema::SchemaBuilder b("MapWorld");
  MapWorld w;
  w.base = b.AddIndependentClass("Base", schema::ValueType::kInt);
  w.spec0 = b.AddIndependentClass("Spec0", schema::ValueType::kInt);
  b.SetGeneralization(w.spec0, w.base);
  w.spec1 = b.AddIndependentClass("Spec1", schema::ValueType::kInt);
  b.SetGeneralization(w.spec1, w.spec0);
  w.side = b.AddIndependentClass("Side", schema::ValueType::kInt);
  b.SetGeneralization(w.side, w.base);
  w.target = b.AddIndependentClass("Target", schema::ValueType::kNone);
  w.note = b.AddDependentClass(w.base, "Note", schema::Cardinality::Any(),
                               schema::ValueType::kString);
  w.link = b.AddAssociation(
      "Link", schema::Role{"from", w.base, schema::Cardinality::Any()},
      schema::Role{"to", w.base, schema::Cardinality::Any()});
  w.fast_link = b.AddAssociation(
      "FastLink", schema::Role{"from", w.base, schema::Cardinality::Any()},
      schema::Role{"to", w.base, schema::Cardinality::Any()});
  b.SetGeneralization(w.fast_link, w.link);
  w.owns = b.AddAssociation(
      "Owns", schema::Role{"owner", w.base, schema::Cardinality::Any()},
      schema::Role{"owned", w.target, schema::Cardinality::Any()});
  auto schema = b.Build();
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  w.schema = *schema;
  return w;
}

std::vector<ObjectId> BruteObjects(const Database& db, ClassId cls,
                                   bool specializations) {
  std::vector<ObjectId> out;
  for (const auto& [id, obj] : db.objects_raw()) {
    if (obj.deleted || obj.is_pattern) continue;
    if (specializations ? db.schema()->IsSameOrSpecializationOf(obj.cls, cls)
                        : obj.cls == cls) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<RelationshipId> BruteRelationships(const Database& db,
                                               AssociationId assoc,
                                               bool specializations) {
  std::vector<RelationshipId> out;
  for (const auto& [id, rel] : db.relationships_raw()) {
    if (rel.deleted || rel.is_pattern) continue;
    if (specializations
            ? db.schema()->IsSameOrSpecializationOf(rel.assoc, assoc)
            : rel.assoc == assoc) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<RelationshipId> BruteRelationshipsOf(const Database& db,
                                                 ObjectId obj,
                                                 AssociationId assoc,
                                                 int role, bool pattern) {
  std::vector<RelationshipId> out;
  for (const auto& [id, rel] : db.relationships_raw()) {
    if (rel.deleted || rel.is_pattern != pattern) continue;
    if (assoc.valid() &&
        !db.schema()->IsSameOrSpecializationOf(rel.assoc, assoc)) {
      continue;
    }
    bool at = role >= 0 ? rel.ends[role] == obj
                        : rel.ends[0] == obj || rel.ends[1] == obj;
    if (at) out.push_back(id);
  }
  return out;
}

/// A fresh database holding the same items, indexed from scratch.
std::unique_ptr<Database> Rebuilt(const Database& db) {
  auto copy = std::make_unique<Database>(db.schema());
  for (const auto& [id, obj] : db.objects_raw()) copy->RestoreObject(obj);
  for (const auto& [id, rel] : db.relationships_raw()) {
    copy->RestoreRelationship(rel);
  }
  copy->RebuildIndexes();
  return copy;
}

void ExpectMapsExact(const Database& db, const std::string& when) {
  const schema::Schema& schema = *db.schema();
  for (ClassId cls : schema.AllClassIds()) {
    for (bool spec : {false, true}) {
      ASSERT_EQ(db.ObjectsOfClass(cls, spec), BruteObjects(db, cls, spec))
          << "class " << cls.raw() << " spec=" << spec << " " << when;
    }
  }
  std::vector<AssociationId> assocs = schema.AllAssociationIds();
  for (AssociationId assoc : assocs) {
    for (bool spec : {false, true}) {
      ASSERT_EQ(db.RelationshipsOfAssociation(assoc, spec),
                BruteRelationships(db, assoc, spec))
          << "association " << assoc.raw() << " spec=" << spec << " "
          << when;
    }
  }
  assocs.push_back(AssociationId());  // no family restriction
  for (const auto& [id, obj] : db.objects_raw()) {
    for (AssociationId assoc : assocs) {
      for (int role = -1; role <= 1; ++role) {
        ASSERT_EQ(db.RelationshipsOf(id, assoc, role),
                  BruteRelationshipsOf(db, id, assoc, role, false))
            << "object " << id.raw() << " association " << assoc.raw()
            << " role " << role << " " << when;
      }
      ASSERT_EQ(db.PatternRelationshipsOf(id, assoc),
                BruteRelationshipsOf(db, id, assoc, -1, true))
          << "pattern relationships of " << id.raw() << " " << when;
    }
  }

  auto rebuilt = Rebuilt(db);
  ASSERT_EQ(db.retrieval_map_sizes(), rebuilt->retrieval_map_sizes())
      << "emptied entries left behind " << when;
  for (const auto& [id, obj] : db.objects_raw()) {
    auto maintained = db.AdjacencyOf(id);
    auto fresh = rebuilt->AdjacencyOf(id);
    ASSERT_TRUE(std::equal(maintained.begin(), maintained.end(),
                           fresh.begin(), fresh.end()))
        << "adjacency of " << id.raw() << " " << when;
  }
}

TEST(RetrievalMapsTest, MaintainedMapsEqualBruteForceUnderRandomHistories) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Random rng(seed * 7919);
    MapWorld w = BuildMapWorld();
    auto db = std::make_unique<Database>(w.schema);
    version::VersionManager vm(db.get());
    // Vetoes exercise every rollback path: creates, deletes and
    // reclassifications touching Spec1 objects or FastLink relationships
    // with ids divisible by 5 are undone.
    auto veto = [](const core::UpdateEvent& e) {
      if (e.object.raw() % 5 == 0 && e.object.valid()) {
        return Status::FailedPrecondition("veto");
      }
      if (e.relationship.raw() % 5 == 0 && e.relationship.valid()) {
        return Status::FailedPrecondition("veto");
      }
      return Status::OK();
    };
    db->AttachProcedure(w.spec1, veto);
    db->AttachProcedure(w.fast_link, veto);

    const std::vector<ClassId> family = w.family();
    const std::vector<ClassId> roots = {w.base, w.spec0, w.spec1, w.side};
    std::vector<version::VersionId> versions;
    int created = 0;
    size_t most_relationships = 0;

    auto pick_object = [&](bool want_pattern) -> ObjectId {
      std::vector<ObjectId> live;
      for (const auto& [id, obj] : db->objects_raw()) {
        if (!obj.deleted && obj.is_independent() &&
            obj.is_pattern == want_pattern) {
          live.push_back(id);
        }
      }
      return live.empty() ? ObjectId() : rng.Pick(live);
    };
    auto pick_live_rel = [&]() -> RelationshipId {
      std::vector<RelationshipId> live;
      for (const auto& [id, rel] : db->relationships_raw()) {
        if (!rel.deleted) live.push_back(id);
      }
      return live.empty() ? RelationshipId() : rng.Pick(live);
    };

    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          db->CreateObject(w.target, "T" + std::to_string(i)).ok());
    }

    for (int step = 0; step < 700; ++step) {
      const std::string when =
          "at seed " + std::to_string(seed) + " step " + std::to_string(step);
      switch (rng.Uniform(16)) {
        case 0:
        case 1:
        case 2: {  // create an object, sometimes a pattern
          CreateOptions opts;
          opts.pattern = rng.Bernoulli(0.2);
          (void)db->CreateObject(rng.Pick(roots),
                                 "O" + std::to_string(created++), opts);
          break;
        }
        case 3: {  // sub-object (pattern under a pattern parent)
          ObjectId parent = pick_object(rng.Bernoulli(0.2));
          if (parent.valid()) (void)db->CreateSubObject(parent, "Note");
          break;
        }
        case 4:
        case 5:
        case 6:
        case 7: {  // relationship; self-relationships and patterns too
          ObjectId from = pick_object(false);
          if (!from.valid()) break;
          ObjectId to = rng.Bernoulli(0.2) ? from : pick_object(false);
          if (!to.valid()) break;
          CreateOptions opts;
          opts.pattern = rng.Bernoulli(0.2);
          (void)db->CreateRelationship(
              rng.Bernoulli(0.5) ? w.link : w.fast_link, from, to, opts);
          break;
        }
        case 8: {  // pattern relationship between pattern objects
          ObjectId from = pick_object(true);
          ObjectId to = pick_object(true);
          if (!from.valid() || !to.valid()) break;
          (void)db->CreateRelationship(w.link, from, to, {.pattern = true});
          break;
        }
        case 9: {  // cascade delete, or delete one relationship
          if (rng.Bernoulli(0.3)) {
            ObjectId victim = pick_object(rng.Bernoulli(0.2));
            if (victim.valid()) (void)db->DeleteObject(victim);
          } else {
            RelationshipId victim = pick_live_rel();
            if (victim.valid()) (void)db->DeleteRelationship(victim);
          }
          break;
        }
        case 10:
        case 11: {  // reclassify an object up or down the chain
          ObjectId obj = pick_object(rng.Bernoulli(0.2));
          if (obj.valid()) {
            (void)db->Reclassify(obj, rng.Pick(rng.Bernoulli(0.8)
                                                   ? family
                                                   : roots));
          }
          break;
        }
        case 12: {  // reclassify a relationship Link <-> FastLink
          RelationshipId rel = pick_live_rel();
          if (!rel.valid()) break;
          AssociationId cur = db->relationships_raw().at(rel).assoc;
          (void)db->ReclassifyRelationship(
              rel, cur == w.link ? w.fast_link : w.link);
          break;
        }
        case 13: {  // trusted restore of a changed state, then rebuild
          ObjectId obj = pick_object(false);
          if (obj.valid()) {
            ObjectItem item = db->objects_raw().at(obj);
            if (item.cls != w.side) item.cls = rng.Pick(family);
            db->RestoreObject(item);
          }
          RelationshipId rel = pick_live_rel();
          if (rel.valid()) {
            RelationshipItem item = db->relationships_raw().at(rel);
            if (item.assoc != w.owns) {
              item.assoc = item.assoc == w.link ? w.fast_link : w.link;
            }
            db->RestoreRelationship(item);
          }
          db->RebuildIndexes();
          break;
        }
        case 14: {  // relationship to a Target
          ObjectId owner = pick_object(false);
          std::vector<ObjectId> targets = db->ObjectsOfClass(w.target);
          if (owner.valid() && !targets.empty()) {
            (void)db->CreateRelationship(w.owns, owner, rng.Pick(targets));
          }
          break;
        }
        case 15: {  // freeze a version / restore a historical one
          if (versions.empty() || rng.Bernoulli(0.75)) {
            auto v = vm.CreateVersion();
            if (v.ok()) versions.push_back(*v);
          } else {
            ASSERT_TRUE(vm.SelectVersion(rng.Pick(versions)).ok()) << when;
          }
          break;
        }
      }
      ExpectMapsExact(*db, when);
      most_relationships =
          std::max(most_relationships, db->num_live_relationships());
    }
    // The history must actually have built a graph to check.
    ASSERT_GE(most_relationships, 20u) << "seed " << seed;

    // Persistence reload re-derives the maps through RebuildIndexes.
    std::string dir = ::testing::TempDir() + "/retrieval_maps." +
                      std::to_string(::getpid()) + "." +
                      std::to_string(seed);
    std::filesystem::create_directories(dir);
    {
      storage::KvStore kv;
      ASSERT_TRUE(kv.Open(dir).ok());
      ASSERT_TRUE(Persistence::SaveFull(*db, &kv).ok());
      ASSERT_TRUE(kv.Close().ok());
    }
    storage::KvStore kv;
    ASSERT_TRUE(kv.Open(dir).ok());
    auto loaded = Persistence::Load(&kv);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectMapsExact(**loaded, "after reload, seed " + std::to_string(seed));
    EXPECT_EQ((*loaded)->retrieval_map_sizes(), db->retrieval_map_sizes());
    for (ClassId cls : w.schema->AllClassIds()) {
      EXPECT_EQ((*loaded)->ObjectsOfClass(cls), db->ObjectsOfClass(cls));
    }
    ASSERT_TRUE(kv.Close().ok());
    std::filesystem::remove_all(dir);
  }
}

TEST(RetrievalMapsTest, DeletedItemsLeaveNoEntries) {
  MapWorld w = BuildMapWorld();
  Database db(w.schema);
  const Database::RetrievalMapSizes empty = db.retrieval_map_sizes();
  std::vector<ObjectId> objs;
  for (int i = 0; i < 20; ++i) {
    objs.push_back(*db.CreateObject(i % 2 ? w.spec0 : w.base,
                                    "O" + std::to_string(i)));
  }
  for (int i = 0; i + 1 < 20; ++i) {
    ASSERT_TRUE(db.CreateRelationship(w.link, objs[i], objs[i + 1]).ok());
  }
  ASSERT_TRUE(db.CreateRelationship(w.fast_link, objs[0], objs[0]).ok());
  ASSERT_TRUE(db.Reclassify(objs[2], w.spec1).ok());
  EXPECT_NE(db.retrieval_map_sizes(), empty);
  for (ObjectId obj : objs) ASSERT_TRUE(db.DeleteObject(obj).ok());
  EXPECT_EQ(db.retrieval_map_sizes(), empty);
  EXPECT_TRUE(db.ObjectsOfClass(w.base).empty());
  EXPECT_TRUE(db.RelationshipsOfAssociation(w.link).empty());
  EXPECT_TRUE(db.AdjacencyOf(objs[0]).empty());
}

TEST(RetrievalMapsTest, SelfRelationshipIsListedOncePerRole) {
  MapWorld w = BuildMapWorld();
  Database db(w.schema);
  ObjectId x = *db.CreateObject(w.base, "X");
  RelationshipId self = *db.CreateRelationship(w.link, x, x);
  auto ends = db.AdjacencyOf(x);
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends[0].role, 0);
  EXPECT_EQ(ends[1].role, 1);
  EXPECT_EQ(ends[0].other, x);
  EXPECT_EQ(ends[1].rel, self);
  EXPECT_EQ(db.RelationshipsOf(x), std::vector<RelationshipId>{self});
  EXPECT_EQ(db.RelationshipsOf(x, w.link, 0),
            std::vector<RelationshipId>{self});
  EXPECT_EQ(db.RelationshipsOf(x, w.link, 1),
            std::vector<RelationshipId>{self});
  EXPECT_TRUE(db.RelationshipsOf(x, w.fast_link).empty());
}

}  // namespace
}  // namespace seed
