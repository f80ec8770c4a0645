// Version layer tests: decimal ids, delta snapshots, version views
// (the paper's Fig. 4 scenario), alternatives, history navigation,
// deletion rules, schema versioning, persistence of the version store.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/persistence.h"
#include "schema/schema_builder.h"
#include "spades/spec_schema.h"
#include "version/version_io.h"
#include "version/version_manager.h"

namespace seed::version {
namespace {

using core::Database;
using core::Value;
using spades::BuildFig3Schema;

// --- VersionId ---------------------------------------------------------------

TEST(VersionIdTest, ParseAndPrint) {
  auto v = VersionId::Parse("2.0");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->components().size(), 2u);
  EXPECT_EQ(v->ToString(), "2.0");
  EXPECT_EQ(VersionId::Parse("1.0.1")->ToString(), "1.0.1");
  EXPECT_EQ(VersionId().ToString(), "<none>");
}

TEST(VersionIdTest, ParseErrors) {
  EXPECT_FALSE(VersionId::Parse("").ok());
  EXPECT_FALSE(VersionId::Parse("1..0").ok());
  EXPECT_FALSE(VersionId::Parse("1.a").ok());
  EXPECT_FALSE(VersionId::Parse(".1").ok());
  EXPECT_FALSE(VersionId::Parse("99999999999").ok());
}

TEST(VersionIdTest, OrderingIsLexicographic) {
  EXPECT_LT(*VersionId::Parse("1.0"), *VersionId::Parse("1.1"));
  EXPECT_LT(*VersionId::Parse("1.1"), *VersionId::Parse("2.0"));
  EXPECT_LT(*VersionId::Parse("1.0"), *VersionId::Parse("1.0.1"));
}

TEST(VersionIdTest, SuccessorsAndChildren) {
  VersionId v = *VersionId::Parse("1.0");
  EXPECT_EQ(v.IncrementLast().ToString(), "1.1");
  EXPECT_EQ(v.Child(1).ToString(), "1.0.1");
}

TEST(VersionIdTest, CodecRoundTrip) {
  VersionId v = *VersionId::Parse("3.1.4");
  Encoder enc;
  v.EncodeTo(&enc);
  Decoder dec(enc.bytes());
  auto decoded = VersionId::Decode(&dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, v);
}

// --- VersionManager ----------------------------------------------------------

class VersionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fig3 = BuildFig3Schema();
    ASSERT_TRUE(fig3.ok());
    ids_ = fig3->ids;
    db_ = std::make_unique<Database>(fig3->schema);
    vm_ = std::make_unique<VersionManager>(db_.get());
  }

  spades::Fig3Ids ids_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<VersionManager> vm_;
};

TEST_F(VersionTest, FirstAutoVersionIsOneDotZero) {
  (void)*db_->CreateObject(ids_.action, "AlarmHandler");
  auto v = vm_->CreateVersion();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->ToString(), "1.0");
  EXPECT_EQ(vm_->current_basis(), *v);
  EXPECT_EQ(vm_->num_versions(), 1u);
}

TEST_F(VersionTest, ExplicitPaperStyleNumbering) {
  (void)*db_->CreateObject(ids_.action, "AlarmHandler");
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("1.0")).ok());
  (void)*db_->CreateObject(ids_.action, "OperatorAlert");
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("2.0")).ok());
  EXPECT_EQ(*vm_->ParentOf(*VersionId::Parse("2.0")),
            *VersionId::Parse("1.0"));
}

TEST_F(VersionTest, DuplicateVersionIdRejected) {
  (void)*db_->CreateObject(ids_.action, "A");
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("1.0")).ok());
  EXPECT_TRUE(
      vm_->CreateVersion(*VersionId::Parse("1.0")).IsAlreadyExists());
}

TEST_F(VersionTest, DeltaContainsOnlyChangedItems) {
  ObjectId a = *db_->CreateObject(ids_.action, "A");
  ObjectId b = *db_->CreateObject(ids_.action, "B");
  (void)b;
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("1.0")).ok());
  // Only touch A.
  ASSERT_TRUE(db_->Rename(a, "A2").ok());
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("2.0")).ok());

  const VersionRecord* rec = *vm_->GetRecord(*VersionId::Parse("2.0"));
  EXPECT_EQ(rec->changes.size(), 1u);
  const VersionRecord* first = *vm_->GetRecord(*VersionId::Parse("1.0"));
  EXPECT_EQ(first->changes.size(), 2u);
}

TEST_F(VersionTest, Fig4Scenario) {
  // Version 1.0: AlarmHandler with description "Handles alarms".
  ObjectId handler = *db_->CreateObject(ids_.action, "AlarmHandler");
  ObjectId desc = *db_->CreateSubObject(handler, "Description");
  ASSERT_TRUE(db_->SetValue(desc, Value::String("Handles alarms")).ok());
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("1.0")).ok());

  // Version 2.0: refined description.
  ASSERT_TRUE(db_->SetValue(
                     desc, Value::String(
                               "Handles alarms derived from ProcessData"))
                  .ok());
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("2.0")).ok());

  // Current: refined again, plus a new relationship.
  ASSERT_TRUE(
      db_->SetValue(desc, Value::String("Generates alarms from process "
                                        "data, triggers Operator Alert"))
          .ok());
  ObjectId alarms = *db_->CreateObject(ids_.input_data, "Alarms");
  (void)*db_->CreateRelationship(ids_.read, alarms, handler);

  // Views reconstruct each historical description (Fig. 4b/4c).
  auto v1 = vm_->MaterializeView(*VersionId::Parse("1.0"));
  ASSERT_TRUE(v1.ok());
  ObjectId v1desc = *(*v1)->FindObjectByName("AlarmHandler.Description");
  EXPECT_EQ((*(*v1)->GetObject(v1desc))->value.as_string(),
            "Handles alarms");
  EXPECT_TRUE((*v1)->FindObjectByName("Alarms").status().IsNotFound());

  auto v2 = vm_->MaterializeView(*VersionId::Parse("2.0"));
  ASSERT_TRUE(v2.ok());
  ObjectId v2desc = *(*v2)->FindObjectByName("AlarmHandler.Description");
  EXPECT_EQ((*(*v2)->GetObject(v2desc))->value.as_string(),
            "Handles alarms derived from ProcessData");

  // The current working state is the mutable database itself.
  EXPECT_EQ((*db_->GetObject(desc))->value.as_string(),
            "Generates alarms from process data, triggers Operator Alert");
  EXPECT_TRUE(db_->FindObjectByName("Alarms").ok());

  // Views are consistent databases.
  EXPECT_TRUE((*v1)->AuditConsistency().clean());
  EXPECT_TRUE((*v2)->AuditConsistency().clean());
}

TEST_F(VersionTest, DeletionIsTombstonedInVersions) {
  ObjectId a = *db_->CreateObject(ids_.action, "Doomed");
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("1.0")).ok());
  ASSERT_TRUE(db_->DeleteObject(a).ok());
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("2.0")).ok());

  auto v1 = vm_->MaterializeView(*VersionId::Parse("1.0"));
  EXPECT_TRUE((*v1)->FindObjectByName("Doomed").ok());
  auto v2 = vm_->MaterializeView(*VersionId::Parse("2.0"));
  EXPECT_TRUE((*v2)->FindObjectByName("Doomed").status().IsNotFound());
}

TEST_F(VersionTest, AlternativesBranchFromHistoricalVersion) {
  ObjectId a = *db_->CreateObject(ids_.action, "A");
  ObjectId desc = *db_->CreateSubObject(a, "Description");
  ASSERT_TRUE(db_->SetValue(desc, Value::String("v1")).ok());
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("1.0")).ok());
  ASSERT_TRUE(db_->SetValue(desc, Value::String("v2")).ok());
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("2.0")).ok());

  // Select 1.0 as the working basis, branch off an alternative.
  ASSERT_TRUE(vm_->SelectVersion(*VersionId::Parse("1.0")).ok());
  ObjectId desc_again = *db_->FindObjectByName("A.Description");
  EXPECT_EQ((*db_->GetObject(desc_again))->value.as_string(), "v1");
  ASSERT_TRUE(db_->SetValue(desc_again, Value::String("v1-alt")).ok());
  auto branch = vm_->CreateVersion();
  ASSERT_TRUE(branch.ok());
  // Auto numbering branches under 1.0 because 1.1... is derived from the
  // basis; the id must be fresh and parented at 1.0.
  EXPECT_EQ(*vm_->ParentOf(*branch), *VersionId::Parse("1.0"));

  // Switch back to 2.0: the original line is untouched.
  ASSERT_TRUE(vm_->SelectVersion(*VersionId::Parse("2.0")).ok());
  EXPECT_EQ((*db_->GetObject(*db_->FindObjectByName("A.Description")))
                ->value.as_string(),
            "v2");
  // And the alternative still materializes.
  auto alt = vm_->MaterializeView(*branch);
  ASSERT_TRUE(alt.ok());
  EXPECT_EQ((*(*alt)->GetObject(*(*alt)->FindObjectByName("A.Description")))
                ->value.as_string(),
            "v1-alt");
}

TEST_F(VersionTest, SelectVersionDiscardsUnsavedChanges) {
  ObjectId a = *db_->CreateObject(ids_.action, "A");
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("1.0")).ok());
  (void)a;
  (void)*db_->CreateObject(ids_.action, "Unsaved");
  ASSERT_TRUE(vm_->SelectVersion(*VersionId::Parse("1.0")).ok());
  EXPECT_TRUE(db_->FindObjectByName("Unsaved").status().IsNotFound());
  EXPECT_TRUE(db_->FindObjectByName("A").ok());
}

TEST_F(VersionTest, IdsNeverReusedAcrossSelection) {
  ObjectId a = *db_->CreateObject(ids_.action, "A");
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("1.0")).ok());
  ObjectId b = *db_->CreateObject(ids_.action, "B");
  ASSERT_TRUE(vm_->SelectVersion(*VersionId::Parse("1.0")).ok());
  ObjectId c = *db_->CreateObject(ids_.action, "C");
  EXPECT_GT(c.raw(), b.raw());
  EXPECT_GT(c.raw(), a.raw());
}

TEST_F(VersionTest, HistoryRetrievalByName) {
  // Paper: "find all versions of object 'AlarmHandler', beginning with
  // version 2.0".
  ObjectId handler = *db_->CreateObject(ids_.action, "AlarmHandler");
  ObjectId desc = *db_->CreateSubObject(handler, "Description");
  ASSERT_TRUE(db_->SetValue(desc, Value::String("a")).ok());
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("1.0")).ok());
  ASSERT_TRUE(db_->Rename(handler, "AlarmHandler2").ok());
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("2.0")).ok());
  ASSERT_TRUE(db_->Rename(handler, "AlarmHandler").ok());
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("3.0")).ok());

  auto all = vm_->VersionsOfObject("AlarmHandler");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);

  auto from2 = vm_->VersionsOfObject("AlarmHandler",
                                     *VersionId::Parse("2.0"));
  ASSERT_TRUE(from2.ok());
  ASSERT_EQ(from2->size(), 2u);
  EXPECT_EQ((*from2)[0].version.ToString(), "2.0");
  EXPECT_EQ((*from2)[1].version.ToString(), "3.0");
}

TEST_F(VersionTest, HistoryOfDeletedObjectFoundThroughOldVersions) {
  ObjectId a = *db_->CreateObject(ids_.action, "Gone");
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("1.0")).ok());
  ASSERT_TRUE(db_->DeleteObject(a).ok());
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("2.0")).ok());
  auto hits = vm_->VersionsOfObject("Gone");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 2u);
  EXPECT_FALSE((*hits)[0].deleted);
  EXPECT_TRUE((*hits)[1].deleted);
}

TEST_F(VersionTest, VersionsAreImmutableExceptDeletion) {
  (void)*db_->CreateObject(ids_.action, "A");
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("1.0")).ok());
  (void)*db_->CreateObject(ids_.action, "B");
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("2.0")).ok());

  // 1.0 has a successor: refuse deletion.
  EXPECT_TRUE(
      vm_->DeleteVersion(*VersionId::Parse("1.0")).IsFailedPrecondition());
  // 2.0 is the current basis: refuse deletion.
  EXPECT_TRUE(
      vm_->DeleteVersion(*VersionId::Parse("2.0")).IsFailedPrecondition());
  // After moving the basis, the leaf 2.0... is still basis; create 3.0 and
  // delete 2.0? 2.0 then has child 3.0. Instead branch from 1.0.
  ASSERT_TRUE(vm_->SelectVersion(*VersionId::Parse("1.0")).ok());
  (void)*db_->CreateObject(ids_.action, "C");
  auto branch = vm_->CreateVersion();
  ASSERT_TRUE(branch.ok());
  ASSERT_TRUE(vm_->SelectVersion(*VersionId::Parse("2.0")).ok());
  EXPECT_TRUE(vm_->DeleteVersion(*branch).ok());
  EXPECT_FALSE(vm_->HasVersion(*branch));
  EXPECT_TRUE(vm_->DeleteVersion(*branch).IsNotFound());
}

TEST_F(VersionTest, SchemaVersionRecordedPerVersion) {
  (void)*db_->CreateObject(ids_.action, "A");
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("1.0")).ok());

  // Evolve the schema: add a brand-new independent class.
  schema::SchemaBuilder b = schema::SchemaBuilder::Evolve(*db_->schema());
  ClassId module = b.AddIndependentClass("Module");
  auto evolved = b.Build();
  ASSERT_TRUE(evolved.ok());
  ASSERT_TRUE(db_->MigrateToSchema(*evolved).ok());
  (void)*db_->CreateObject(module, "Kernel");
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("2.0")).ok());

  // The 1.0 view decodes under schema version 1 (no Module class).
  auto v1 = vm_->MaterializeView(*VersionId::Parse("1.0"));
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ((*v1)->schema()->version(), 1u);
  EXPECT_TRUE(
      (*v1)->schema()->FindIndependentClass("Module").status().IsNotFound());
  auto v2 = vm_->MaterializeView(*VersionId::Parse("2.0"));
  EXPECT_EQ((*v2)->schema()->version(), 2u);
  EXPECT_TRUE((*v2)->FindObjectByName("Kernel").ok());
}

TEST_F(VersionTest, StoredBytesGrowWithChanges) {
  (void)*db_->CreateObject(ids_.action, "A");
  ASSERT_TRUE(vm_->CreateVersion().ok());
  std::uint64_t after_first = vm_->StoredBytes();
  EXPECT_GT(after_first, 0u);
  (void)*db_->CreateObject(ids_.action, "B");
  ASSERT_TRUE(vm_->CreateVersion().ok());
  EXPECT_GT(vm_->StoredBytes(), after_first);
}

TEST_F(VersionTest, PersistenceRoundTrip) {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "/vio." +
                    std::to_string(::getpid()) + "." +
                    std::to_string(counter++);
  std::filesystem::create_directories(dir);

  ObjectId a = *db_->CreateObject(ids_.action, "A");
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("1.0")).ok());
  ASSERT_TRUE(db_->Rename(a, "A2").ok());
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("2.0")).ok());

  {
    storage::KvStore kv;
    ASSERT_TRUE(kv.Open(dir).ok());
    ASSERT_TRUE(core::Persistence::SaveFull(*db_, &kv).ok());
    ASSERT_TRUE(VersionPersistence::Save(*vm_, &kv).ok());
    ASSERT_TRUE(kv.Close().ok());
  }

  storage::KvStore kv;
  ASSERT_TRUE(kv.Open(dir).ok());
  auto loaded_db = core::Persistence::Load(&kv);
  ASSERT_TRUE(loaded_db.ok());
  VersionManager loaded_vm(loaded_db->get());
  ASSERT_TRUE(VersionPersistence::Load(&loaded_vm, &kv).ok());

  EXPECT_EQ(loaded_vm.num_versions(), 2u);
  EXPECT_EQ(loaded_vm.current_basis().ToString(), "2.0");
  auto v1 = loaded_vm.MaterializeView(*VersionId::Parse("1.0"));
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_TRUE((*v1)->FindObjectByName("A").ok());
  std::filesystem::remove_all(dir);
}

// SelectVersion decodes every payload of the target view before it
// touches the working state: a version whose last item no longer decodes
// fails with Corruption and leaves the working database, its derived
// state and the basis exactly as they were.
TEST_F(VersionTest, CorruptPayloadLeavesWorkingStateUntouched) {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "/vcorrupt." +
                    std::to_string(::getpid()) + "." +
                    std::to_string(counter++);
  std::filesystem::create_directories(dir);

  ObjectId a = *db_->CreateObject(ids_.action, "A");
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("1.0")).ok());
  ASSERT_TRUE(db_->Rename(a, "A2").ok());
  ASSERT_TRUE(db_->CreateObject(ids_.action, "B").ok());
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("2.0")).ok());

  storage::KvStore kv;
  ASSERT_TRUE(kv.Open(dir).ok());
  ASSERT_TRUE(VersionPersistence::Save(*vm_, &kv).ok());
  // Rewrite 2.0's record (same layout as the version store's encoder)
  // with its last payload replaced by bytes no item decodes from; the
  // payloads before it stay valid.
  const VersionRecord* rec = *vm_->GetRecord(*VersionId::Parse("2.0"));
  ASSERT_GE(rec->changes.size(), 2u);
  Encoder enc;
  rec->id.EncodeTo(&enc);
  rec->parent.EncodeTo(&enc);
  enc.PutU64(rec->sequence);
  enc.PutU64(rec->schema_version);
  enc.PutVarint(rec->changes.size());
  for (const auto& [key, payload] : rec->changes) {
    enc.PutU64(key.packed);
    enc.PutString(key == rec->changes.rbegin()->first ? "\xff" : payload);
  }
  const std::string bytes(reinterpret_cast<const char*>(enc.bytes().data()),
                          enc.size());
  ASSERT_TRUE(kv.Put(VersionPersistence::RecordKey(rec->sequence), bytes).ok());
  VersionManager corrupt_vm(db_.get());
  ASSERT_TRUE(VersionPersistence::Load(&corrupt_vm, &kv).ok());
  ASSERT_TRUE(kv.Close().ok());

  // Unsaved working edits the failed selection must not discard.
  ASSERT_TRUE(db_->Rename(a, "Working").ok());
  const std::size_t live = db_->num_live_objects();
  const VersionId basis = corrupt_vm.current_basis();

  Status s = corrupt_vm.SelectVersion(*VersionId::Parse("2.0"));
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE(corrupt_vm.MaterializeView(*VersionId::Parse("2.0"))
                  .status()
                  .IsCorruption());
  EXPECT_EQ(corrupt_vm.current_basis(), basis);
  EXPECT_EQ(db_->num_live_objects(), live);
  EXPECT_EQ(*db_->FindObjectByName("Working"), a);
  EXPECT_TRUE(db_->FindObjectByName("B").ok());
  EXPECT_EQ(db_->ObjectsOfClass(ids_.action).size(), 2u);
  EXPECT_FALSE(db_->changed_objects().empty());
  // The intact version still selects.
  EXPECT_TRUE(corrupt_vm.SelectVersion(*VersionId::Parse("1.0")).ok());
  EXPECT_EQ(*db_->FindObjectByName("A"), a);
  std::filesystem::remove_all(dir);
}

// PinView is the refcounted sibling of MaterializeView: repeated pins of
// a live version share one materialization, dropping every pin frees it,
// and DeleteVersion invalidates the cache slot.
TEST_F(VersionTest, PinViewSharesOneMaterialization) {
  ObjectId a = *db_->CreateObject(ids_.action, "A");
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("1.0")).ok());
  ASSERT_TRUE(db_->Rename(a, "A2").ok());
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("2.0")).ok());

  auto first = vm_->PinView(*VersionId::Parse("1.0"));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE((*first)->FindObjectByName("A").ok());

  // A second pin while the first is live is the same object, not a
  // second clone.
  auto second = vm_->PinView(*VersionId::Parse("1.0"));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());

  // Once every pin drops, the weak cache empties and the next pin
  // materializes afresh (a different allocation serving equal bytes).
  const core::Database* old_ptr = first->get();
  first->reset();
  second->reset();
  auto third = vm_->PinView(*VersionId::Parse("1.0"));
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE((*third)->FindObjectByName("A").ok());
  (void)old_ptr;  // may or may not be reused by the allocator
}

TEST_F(VersionTest, PinViewAfterDeleteVersionFails) {
  ObjectId a = *db_->CreateObject(ids_.action, "A");
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("1.0")).ok());
  ASSERT_TRUE(db_->CreateObject(ids_.action, "B").ok());
  ASSERT_TRUE(vm_->CreateVersion(*VersionId::Parse("2.0")).ok());
  // Branch off 1.0 so 2.0 becomes a deletable leaf (not the basis).
  ASSERT_TRUE(vm_->SelectVersion(*VersionId::Parse("1.0")).ok());
  ASSERT_TRUE(db_->Rename(a, "ABranch").ok());
  ASSERT_TRUE(vm_->CreateVersion().ok());

  auto pin = vm_->PinView(*VersionId::Parse("2.0"));
  ASSERT_TRUE(pin.ok());
  ASSERT_TRUE(vm_->DeleteVersion(*VersionId::Parse("2.0")).ok());

  // The held pin stays valid — deletion only unlinks the version — but
  // new pins of the deleted id must fail, not resurrect the cache slot.
  EXPECT_TRUE((*pin)->FindObjectByName("B").ok());
  EXPECT_TRUE(
      vm_->PinView(*VersionId::Parse("2.0")).status().IsNotFound());
}

}  // namespace
}  // namespace seed::version
