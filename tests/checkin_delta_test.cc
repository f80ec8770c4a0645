// Differential tests for check-in at the cost of its delta.
//
// A check-in applies the client's bundle through Database::ReplaceItems,
// audits it with the scoped Database::AuditChange, rolls a rejected one
// back with the inverse batch, publishes a snapshot by flat copy
// (Database::Clone), and collects a checkout's relationships through
// adjacency. Each shortcut is checked here against the whole-database
// pass it replaces:
//   * after every applied or rejected check-in (random client edits plus
//     crafted bundles: twin names, a name taken outside the checkout, an
//     over-full role), the master's retrieval maps, extent counters and
//     attribute-index entries equal a RebuildIndexes() of its items;
//   * the scoped audit's verdict equals AuditConsistency()'s on the same
//     applied bundle, and the server accepts exactly the bundles both
//     call clean;
//   * a flat-copy snapshot equals the restore-and-rebuild capture in its
//     index contents and its query results;
//   * a checkout bundle equals a walk over every relationship, on a world
//     with self-relationships, deleted relationships and relationship
//     attributes.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "multiuser/client.h"
#include "multiuser/server.h"
#include "query/parser.h"
#include "schema/schema_builder.h"
#include "version/snapshot.h"

namespace seed::multiuser {
namespace {

using core::Database;
using core::ItemBatch;
using core::ObjectItem;
using core::RelationshipItem;
using core::Value;
using schema::Cardinality;
using schema::Role;
using schema::ValueType;

struct World {
  schema::SchemaPtr schema;
  // Node <- Spec; Other stands alone; Node has up to two Notes.
  ClassId node, spec, other, note, weight;
  // Link is ACYCLIC; a Node is the `a` end of at most one Pair (self-pairs
  // allowed); Tag carries a Weight attribute; Boost wants a Spec.
  AssociationId link, pair, tag, boost;
};

World BuildWorld() {
  schema::SchemaBuilder b("CheckinWorld");
  World w;
  w.node = b.AddIndependentClass("Node", ValueType::kInt);
  w.spec = b.AddIndependentClass("Spec", ValueType::kInt);
  b.SetGeneralization(w.spec, w.node);
  w.other = b.AddIndependentClass("Other", ValueType::kNone);
  w.note = b.AddDependentClass(w.node, "Note", Cardinality(0, 2),
                               ValueType::kString);
  w.link = b.AddAssociation("Link", Role{"from", w.node, Cardinality::Any()},
                            Role{"to", w.node, Cardinality::Any()},
                            /*acyclic=*/true);
  w.pair = b.AddAssociation("Pair",
                            Role{"a", w.node, Cardinality::Optional()},
                            Role{"b", w.node, Cardinality::Any()});
  w.tag = b.AddAssociation("Tag", Role{"x", w.node, Cardinality::Any()},
                           Role{"y", w.other, Cardinality::Any()});
  w.weight = b.AddDependentClass(w.tag, "Weight", Cardinality::Optional(),
                                 ValueType::kInt);
  w.boost = b.AddAssociation("Boost", Role{"s", w.spec, Cardinality::Any()},
                             Role{"t", w.node, Cardinality::Any()});
  auto schema = b.Build();
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  w.schema = *schema;
  return w;
}

std::vector<index::IndexSpec> IndexSpecs(const World& w) {
  index::IndexSpec own;
  own.cls = w.node;
  index::IndexSpec note;
  note.cls = w.node;
  note.role = "Note";
  return {own, note, index::IndexSpec::ForAssociation(w.tag, "Weight")};
}

std::string NodeName(int i) { return "N" + std::to_string(i); }

/// A master of Nodes (some Specs) with Notes, Others, an acyclic Link
/// graph, Pairs (self-pairs included), weighted Tags and Boosts, a few
/// deleted relationships and one deleted root, under three indexes.
void Populate(const World& w, Database* db, Random* rng) {
  constexpr int kNodes = 24;
  std::vector<ObjectId> nodes, others;
  for (int i = 0; i < kNodes; ++i) {
    auto n = db->CreateObject(i % 3 == 0 ? w.spec : w.node, NodeName(i));
    ASSERT_TRUE(n.ok());
    nodes.push_back(*n);
    ASSERT_TRUE(db->SetValue(*n, Value::Int(rng->UniformRange(0, 9))).ok());
    for (std::uint64_t k = rng->Uniform(3); k > 0; --k) {
      auto note = db->CreateSubObject(*n, "Note");
      ASSERT_TRUE(note.ok());
      ASSERT_TRUE(db->SetValue(*note, Value::String(
                                          "w" + std::to_string(
                                                    rng->Uniform(5))))
                      .ok());
    }
  }
  for (int i = 0; i < 6; ++i) {
    auto o = db->CreateObject(w.other, "O" + std::to_string(i));
    ASSERT_TRUE(o.ok());
    others.push_back(*o);
  }
  std::vector<RelationshipId> rels;
  for (int e = 0; e < 40; ++e) {
    std::uint64_t i = rng->Uniform(kNodes);
    std::uint64_t j = rng->Uniform(kNodes);
    if (i == j) continue;
    auto r = db->CreateRelationship(w.link, nodes[std::min(i, j)],
                                    nodes[std::max(i, j)]);
    if (r.ok()) rels.push_back(*r);
  }
  for (int i = 0; i < kNodes; i += 2) {
    auto r = db->CreateRelationship(
        w.pair, nodes[i], i % 4 == 0 ? nodes[i] : rng->Pick(nodes));
    if (r.ok()) rels.push_back(*r);
  }
  for (int t = 0; t < 12; ++t) {
    auto r = db->CreateRelationship(w.tag, rng->Pick(nodes),
                                    rng->Pick(others));
    if (!r.ok()) continue;
    rels.push_back(*r);
    auto weight = db->CreateSubObject(*r, "Weight");
    ASSERT_TRUE(weight.ok());
    ASSERT_TRUE(
        db->SetValue(*weight, Value::Int(rng->UniformRange(0, 5))).ok());
  }
  for (int i = 0; i < kNodes; i += 3) {
    auto r = db->CreateRelationship(w.boost, nodes[i], rng->Pick(nodes));
    if (r.ok()) rels.push_back(*r);
  }
  for (int d = 0; d < 4; ++d) (void)db->DeleteRelationship(rng->Pick(rels));
  ASSERT_TRUE(db->DeleteObject(nodes[kNodes - 1]).ok());
  for (const index::IndexSpec& spec : IndexSpecs(w)) {
    ASSERT_TRUE(db->CreateAttributeIndex(spec).ok());
  }
  db->ClearChangeTracking();
}

/// The same items with every derived structure re-derived from scratch:
/// the check-in path's pre-ReplaceItems apply and the snapshot's
/// pre-Clone capture.
std::unique_ptr<Database> Rebuilt(const Database& db) {
  auto copy = std::make_unique<Database>(db.schema());
  for (const auto& [id, obj] : db.objects_raw()) copy->RestoreObject(obj);
  for (const auto& [id, rel] : db.relationships_raw()) {
    copy->RestoreRelationship(rel);
  }
  copy->RebuildIndexes();
  for (const auto& idx : db.attribute_indexes().indexes()) {
    EXPECT_TRUE(copy->CreateAttributeIndex(idx->spec()).ok());
  }
  copy->ClearChangeTracking();
  return copy;
}

using Postings = std::vector<std::pair<std::string, std::uint64_t>>;

Postings PostingsOf(const index::AttributeIndex& idx) {
  Postings out;
  idx.ForEach([&out](const Value& key, ObjectId id) {
    out.emplace_back(key.ToString(), id.raw());
  });
  return out;
}

/// Every derived structure of `db` equals `expected`'s: extents,
/// adjacency, name and child-key resolution, extent counters and
/// attribute-index entries.
void ExpectSameDerived(const Database& db, const Database& expected,
                       const std::string& when) {
  const schema::Schema& schema = *db.schema();
  ASSERT_EQ(db.retrieval_map_sizes(), expected.retrieval_map_sizes())
      << when;
  ASSERT_EQ(db.num_live_objects(), expected.num_live_objects()) << when;
  ASSERT_EQ(db.num_live_relationships(), expected.num_live_relationships())
      << when;
  for (ClassId cls : schema.AllClassIds()) {
    for (bool spec : {false, true}) {
      ASSERT_EQ(db.ObjectsOfClass(cls, spec),
                expected.ObjectsOfClass(cls, spec))
          << "class " << cls.raw() << " " << when;
    }
  }
  for (AssociationId assoc : schema.AllAssociationIds()) {
    for (bool spec : {false, true}) {
      ASSERT_EQ(db.RelationshipsOfAssociation(assoc, spec),
                expected.RelationshipsOfAssociation(assoc, spec))
          << "association " << assoc.raw() << " " << when;
    }
  }
  for (const auto& [id, obj] : expected.objects_raw()) {
    auto mine = db.AdjacencyOf(id);
    auto theirs = expected.AdjacencyOf(id);
    ASSERT_TRUE(
        std::equal(mine.begin(), mine.end(), theirs.begin(), theirs.end()))
        << "adjacency of " << id.raw() << " " << when;
    if (obj.deleted || obj.is_pattern) continue;
    const std::string path = expected.FullName(id);
    auto found = db.FindObjectByName(path);
    auto want = expected.FindObjectByName(path);
    ASSERT_EQ(found.ok(), want.ok()) << path << " " << when;
    if (want.ok()) {
      ASSERT_EQ(*found, *want) << path << " " << when;
    }
  }
  ASSERT_TRUE(db.extent_counters() == expected.extent_counters())
      << "extent counters " << when;
  const auto& mine = db.attribute_indexes().indexes();
  const auto& theirs = expected.attribute_indexes().indexes();
  ASSERT_EQ(mine.size(), theirs.size()) << when;
  for (size_t i = 0; i < mine.size(); ++i) {
    ASSERT_EQ(mine[i]->spec(), theirs[i]->spec()) << when;
    ASSERT_EQ(mine[i]->num_entries(), theirs[i]->num_entries()) << when;
    ASSERT_EQ(mine[i]->num_distinct_keys(), theirs[i]->num_distinct_keys())
        << when;
    ASSERT_EQ(PostingsOf(*mine[i]), PostingsOf(*theirs[i]))
        << "index " << mine[i]->spec().ToString() << " " << when;
  }
}

/// The bundle ClientSession::Checkin ships: the workspace's changed items.
CheckinBundle BundleOf(const Database& local) {
  CheckinBundle bundle;
  for (ObjectId id : local.changed_objects()) {
    auto it = local.objects_raw().find(id);
    if (it != local.objects_raw().end()) bundle.objects.push_back(it->second);
  }
  for (RelationshipId id : local.changed_relationships()) {
    auto it = local.relationships_raw().find(id);
    if (it != local.relationships_raw().end()) {
      bundle.relationships.push_back(it->second);
    }
  }
  return bundle;
}

/// Applies `bundle` to a rebuilt copy of `master` and returns whether the
/// full audit calls the result clean, after checking that the scoped
/// audit agrees and that the apply (when clean) and its inverse keep
/// every derived structure equal to a rebuild.
bool FullVerdict(const Database& master, const CheckinBundle& bundle,
                 const std::string& when) {
  auto copy = Rebuilt(master);
  ItemBatch undo = copy->ReplaceItems(
      ItemBatch::Of(bundle.objects, bundle.relationships));
  const bool full = copy->AuditConsistency().clean();
  EXPECT_EQ(copy->AuditChange(undo).clean(), full)
      << "scoped and full audit disagree " << when << ": "
      << copy->AuditConsistency().ToString();
  // An inconsistent state may hold twin names, whose one index entry
  // need not name the holder a rebuild would pick.
  if (full) ExpectSameDerived(*copy, *Rebuilt(*copy), "after apply " + when);
  copy->ReplaceItems(std::move(undo));
  ExpectSameDerived(*copy, master, "after undo " + when);
  return full;
}

std::vector<ObjectId> LocalRoots(const Database& local, ClassId cls) {
  std::vector<ObjectId> out;
  for (ObjectId id : local.AllIndependentObjects()) {
    if (local.schema()->IsSameOrSpecializationOf(
            local.objects_raw().at(id).cls, cls)) {
      out.push_back(id);
    }
  }
  return out;
}

/// One random edit of the workspace; failures (local vetoes) are fine.
void RandomEdit(const World& w, Database* local, Random* rng, int* fresh) {
  std::vector<ObjectId> nodes = LocalRoots(*local, w.node);
  std::vector<ObjectId> others = LocalRoots(*local, w.other);
  std::vector<RelationshipId> rels;
  local->ForEachRelationship([&rels](const RelationshipItem& rel) {
    if (!rel.deleted) rels.push_back(rel.id);
  });
  if (nodes.empty()) return;
  const ObjectId n = rng->Pick(nodes);
  switch (rng->Uniform(12)) {
    case 0:
      (void)local->SetValue(n, Value::Int(rng->UniformRange(0, 9)));
      break;
    case 1: {
      auto note = local->CreateSubObject(n, "Note");
      if (note.ok()) {
        (void)local->SetValue(
            *note, Value::String("w" + std::to_string(rng->Uniform(5))));
      }
      break;
    }
    case 2: {
      std::vector<ObjectId> notes = local->SubObjects(n, "Note");
      if (notes.empty()) break;
      ObjectId note = rng->Pick(notes);
      switch (rng->Uniform(3)) {
        case 0:
          (void)local->DeleteObject(note);
          break;
        case 1:
          (void)local->ClearValue(note);
          break;
        default:
          (void)local->SetValue(
              note, Value::String("w" + std::to_string(rng->Uniform(5))));
      }
      break;
    }
    case 3: {  // later -> earlier may close a cycle through outside Links
      ObjectId m = rng->Pick(nodes);
      (void)local->CreateRelationship(w.link, std::max(n, m), std::min(n, m));
      break;
    }
    case 4:  // may exceed `a`'s one Pair through one outside the checkout
      (void)local->CreateRelationship(w.pair, n, rng->Pick(nodes));
      break;
    case 5: {
      if (others.empty()) break;
      auto tag = local->CreateRelationship(w.tag, n, rng->Pick(others));
      if (!tag.ok()) break;
      auto weight = local->CreateSubObject(*tag, "Weight");
      if (weight.ok()) {
        (void)local->SetValue(*weight, Value::Int(rng->UniformRange(0, 5)));
      }
      break;
    }
    case 6:
      if (!rels.empty()) (void)local->DeleteRelationship(rng->Pick(rels));
      break;
    case 7:
      if (rng->Bernoulli(0.3)) (void)local->DeleteObject(n);
      break;
    case 8: {  // Spec -> Node strands a Boost outside the checkout
      ClassId cls = local->objects_raw().at(n).cls;
      (void)local->Reclassify(n, cls == w.spec ? w.node : w.spec);
      break;
    }
    case 9: {  // a fresh name, or one a root outside the checkout holds
      std::string name =
          rng->Bernoulli(0.5) ? "F" + std::to_string((*fresh)++)
                              : NodeName(static_cast<int>(rng->Uniform(24)));
      (void)local->Rename(n, name);
      break;
    }
    case 10: {
      std::string name =
          rng->Bernoulli(0.7) ? "F" + std::to_string((*fresh)++)
                              : NodeName(static_cast<int>(rng->Uniform(24)));
      auto created = local->CreateObject(w.node, name);
      if (created.ok()) {
        (void)local->SetValue(*created, Value::Int(rng->UniformRange(0, 9)));
      }
      break;
    }
    default: {
      std::vector<ObjectId> specs = LocalRoots(*local, w.spec);
      if (!specs.empty()) {
        (void)local->CreateRelationship(w.boost, rng->Pick(specs), n);
      }
    }
  }
}

/// Crafted bundles the client API cannot produce, each rejected by the
/// audit: two new roots sharing a name (the serializability harness's
/// poison check-in), a new root taking a name held outside the checkout,
/// a third Note under a checked-out Node, and a Link reversing one of
/// the master's (whose ends the session checks out first).
std::vector<CheckinBundle> CraftedBundles(const World& w, Server* server,
                                          ClientSession* session,
                                          std::uint64_t* next_id) {
  std::vector<CheckinBundle> out;
  CheckinBundle twins;
  for (int k = 0; k < 2; ++k) {
    ObjectItem obj;
    obj.id = ObjectId((*next_id)++);
    obj.cls = w.node;
    obj.name = "PoisonTwin";
    twins.objects.push_back(std::move(obj));
  }
  out.push_back(std::move(twins));

  const Database& master = *server->master();
  for (ObjectId root : master.AllIndependentObjects()) {
    const ObjectItem& held = master.objects_raw().at(root);
    if (server->IsLocked(root)) continue;
    CheckinBundle taken;
    ObjectItem obj;
    obj.id = ObjectId((*next_id)++);
    obj.cls = w.node;
    obj.name = held.name;
    taken.objects.push_back(std::move(obj));
    out.push_back(std::move(taken));
    break;
  }

  for (ObjectId root : session->local()->AllIndependentObjects()) {
    ObjectItem parent = session->local()->objects_raw().at(root);
    if (!master.schema()->IsSameOrSpecializationOf(parent.cls, w.node)) {
      continue;
    }
    CheckinBundle crowded;
    for (std::uint32_t k = 0; k < 3; ++k) {
      ObjectItem note;
      note.id = ObjectId((*next_id)++);
      note.cls = w.note;
      note.parent_kind = core::ParentKind::kObject;
      note.parent_object = root;
      note.index = 100 + k;
      note.value = Value::String("crowd");
      parent.children.push_back(note.id);
      crowded.objects.push_back(std::move(note));
    }
    crowded.objects.push_back(std::move(parent));
    out.push_back(std::move(crowded));
    break;
  }

  for (RelationshipId rid : master.RelationshipsOfAssociation(w.link)) {
    const RelationshipItem& link = master.relationships_raw().at(rid);
    if (link.ends[0] == link.ends[1] ||
        !session->Checkout({link.ends[0], link.ends[1]}).ok()) {
      continue;
    }
    CheckinBundle reversed;
    RelationshipItem back;
    back.id = RelationshipId((*next_id)++);
    back.assoc = w.link;
    back.ends[0] = link.ends[1];
    back.ends[1] = link.ends[0];
    reversed.relationships.push_back(std::move(back));
    out.push_back(std::move(reversed));
    break;
  }
  return out;
}

/// The rule a rejected check-in names ("check-in rejected: <rule>: ...").
std::string RejectedRule(const Status& st) {
  const std::string& msg = st.message();
  const std::string prefix = "check-in rejected: ";
  size_t start = msg.find(prefix);
  if (start == std::string::npos) return msg;
  start += prefix.size();
  return msg.substr(start, msg.find(':', start) - start);
}

TEST(CheckinDeltaTest, ApplyAndScopedAuditMatchRebuildAndFullAudit) {
  std::set<std::string> rules;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    World w = BuildWorld();
    Server server(w.schema);
    const Database& master = *server.master();
    Random rng(seed * 7919 + 13);
    Populate(w, server.master(), &rng);
    ASSERT_TRUE(master.AuditConsistency().clean());
    server.PublishSnapshot();
    auto opened = ClientSession::Open(&server, "client");
    ASSERT_TRUE(opened.ok());
    ClientSession* session = opened->get();
    std::uint64_t crafted_id = *server.IdStripeBase(session->id()) +
                               (1ull << 30);

    int applied = 0, rejected = 0, crafted = 0, fresh = 0;
    for (int step = 0; step < 60; ++step) {
      const std::string when =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      std::vector<ObjectId> live = master.AllIndependentObjects();
      std::vector<ObjectId> roots;
      for (std::uint64_t k = 1 + rng.Uniform(3); k > 0; --k) {
        ObjectId root = rng.Pick(live);
        if (std::find(roots.begin(), roots.end(), root) == roots.end()) {
          roots.push_back(root);
        }
      }
      ASSERT_TRUE(session->Checkout(roots).ok()) << when;

      if (step % 10 == 9) {
        for (const CheckinBundle& bundle :
             CraftedBundles(w, &server, session, &crafted_id)) {
          ASSERT_FALSE(FullVerdict(master, bundle, when)) << when;
          Status st = server.Checkin(session->id(), bundle);
          ASSERT_TRUE(st.IsConsistencyViolation()) << st.ToString();
          rules.insert(RejectedRule(st));
          ++crafted;
          ExpectSameDerived(master, *Rebuilt(master), "after crafted " + when);
        }
      }

      for (std::uint64_t e = 1 + rng.Uniform(4); e > 0; --e) {
        RandomEdit(w, session->local(), &rng, &fresh);
      }
      const bool clean =
          FullVerdict(master, BundleOf(*session->local()), when);
      Status st = session->Checkin();
      ASSERT_EQ(st.ok(), clean) << when << ": " << st.ToString();
      if (st.ok()) {
        ++applied;
      } else {
        ASSERT_TRUE(st.IsConsistencyViolation()) << st.ToString();
        rules.insert(RejectedRule(st));
        ++rejected;
        ASSERT_TRUE(session->Abandon().ok());
      }
      ExpectSameDerived(master, *Rebuilt(master), when);
      ASSERT_TRUE(master.AuditConsistency().clean()) << when;
    }
    EXPECT_GE(applied, 10) << "seed " << seed;
    EXPECT_GE(rejected, 3) << "seed " << seed;
    EXPECT_GE(crafted, 18) << "seed " << seed;
    EXPECT_EQ(server.checkins_rejected(),
              static_cast<std::uint64_t>(rejected + crafted));
  }
  // Rejections came from every rule the scoped audit can miss by scoping
  // too narrowly.
  for (const char* rule :
       {"name conflict", "class membership", "maximum cardinality",
        "maximum role participation", "ACYCLIC"}) {
    EXPECT_EQ(rules.count(rule), 1u) << "no check-in was rejected for "
                                     << rule;
  }
}

std::set<std::uint64_t> ObjectIdsOf(const std::vector<ObjectItem>& objects) {
  std::set<std::uint64_t> out;
  for (const ObjectItem& obj : objects) out.insert(obj.id.raw());
  return out;
}

TEST(CheckinDeltaTest, FlatCopySnapshotEqualsRebuiltCapture) {
  World w = BuildWorld();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Database db(w.schema);
    Random rng(seed * 104729 + 5);
    Populate(w, &db, &rng);
    version::SnapshotPtr snap = version::Snapshot::Capture(db, 1);
    auto rebuilt = Rebuilt(db);
    const Database& flat = snap->database();
    ExpectSameDerived(flat, *rebuilt, "seed " + std::to_string(seed));
    EXPECT_EQ(flat.objects_raw().size(), db.objects_raw().size());
    EXPECT_EQ(flat.relationships_raw().size(), db.relationships_raw().size());
    EXPECT_TRUE(flat.changed_objects().empty());
    for (const char* text :
         {"find Node where value > 4", "find Node where Note is w1",
          "find Spec where Note contains w", "find Node where name is N3",
          "find Other"}) {
      std::string flat_plan, rebuilt_plan;
      auto a = query::RunQuery(flat, text, &flat_plan);
      auto b = query::RunQuery(*rebuilt, text, &rebuilt_plan);
      ASSERT_TRUE(a.ok() && b.ok()) << text;
      EXPECT_EQ(*a, *b) << text;
      EXPECT_EQ(flat_plan, rebuilt_plan) << text;
    }
    auto a = query::RunRelationshipQuery(flat, "find rel Tag where Weight > 2");
    auto b =
        query::RunRelationshipQuery(*rebuilt, "find rel Tag where Weight > 2");
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
    const char* chain = "find Node n join via Link to Node m";
    auto ca = query::RunJoinChainQuery(flat, chain);
    auto cb = query::RunJoinChainQuery(*rebuilt, chain);
    ASSERT_TRUE(ca.ok() && cb.ok());
    EXPECT_EQ(ca->tuples, cb->tuples);
  }
}

TEST(CheckinDeltaTest, CheckoutThroughAdjacencyEqualsRelationshipWalk) {
  World w = BuildWorld();
  Server server(w.schema);
  Random rng(99);
  Populate(w, server.master(), &rng);
  const Database& master = *server.master();
  auto client = server.Connect("client");
  ASSERT_TRUE(client.ok());
  std::vector<ObjectId> live = master.AllIndependentObjects();
  for (int round = 0; round < 40; ++round) {
    std::vector<ObjectId> roots;
    for (std::uint64_t k = 1 + rng.Uniform(4); k > 0; --k) {
      ObjectId root = rng.Pick(live);
      if (std::find(roots.begin(), roots.end(), root) == roots.end()) {
        roots.push_back(root);
      }
    }
    auto bundle = server.Checkout(*client, roots);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

    // Brute force: the subtrees, then every live relationship with both
    // ends in them, in id order, with its attribute subtree.
    std::set<std::uint64_t> objects;
    std::vector<ObjectId> work = roots;
    auto walk = [&] {
      while (!work.empty()) {
        const ObjectItem& obj = master.objects_raw().at(work.back());
        work.pop_back();
        if (obj.deleted || !objects.insert(obj.id.raw()).second) continue;
        work.insert(work.end(), obj.children.begin(), obj.children.end());
      }
    };
    walk();
    const std::set<std::uint64_t> subtrees = objects;
    std::vector<std::uint64_t> rels;
    for (const auto& [id, rel] : master.relationships_raw()) {
      if (rel.deleted || subtrees.count(rel.ends[0].raw()) == 0 ||
          subtrees.count(rel.ends[1].raw()) == 0) {
        continue;
      }
      rels.push_back(id.raw());
      work.assign(rel.children.begin(), rel.children.end());
      walk();
    }
    std::vector<std::uint64_t> got;
    for (const RelationshipItem& rel : bundle->relationships) {
      got.push_back(rel.id.raw());
    }
    EXPECT_EQ(got, rels) << "round " << round;
    EXPECT_EQ(ObjectIdsOf(bundle->objects), objects) << "round " << round;
    EXPECT_EQ(bundle->objects.size(), objects.size()) << "round " << round;
    ASSERT_TRUE(server.ReleaseLocks(*client, roots).ok());
  }
  // The world exercises what the adjacency walk must get right.
  bool any_deleted = false, any_self = false, any_attribute = false;
  for (const auto& [id, rel] : master.relationships_raw()) {
    any_deleted = any_deleted || rel.deleted;
    any_self = any_self || (!rel.deleted && rel.ends[0] == rel.ends[1]);
    any_attribute = any_attribute || (!rel.deleted && !rel.children.empty());
  }
  EXPECT_TRUE(any_deleted && any_self && any_attribute);
}

}  // namespace
}  // namespace seed::multiuser
