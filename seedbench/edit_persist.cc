// edit_persist: one tool session (one thread, closed loop) editing a
// growing Fig. 3 database, the paper's main use.
//
// It starts from a seeded base of about 90k items and grows to about
// 100k, then holds that size (root deletions balance new entries), so
// the store and the memory it ends with do not depend on how fast the
// session ran. The stream: vague entries (Thing), reclassification along
// Thing -> Data ->
// InputData/OutputData (and Thing -> Action), values, sub-objects and
// relationships created and deleted, per-root CheckCompleteness, and
// about 10% textual look-ups by description. Flush policy: KvStore with
// sync_on_append=false and the default 256-page (2 MiB) buffer pool;
// Persistence::SaveChanges every kSaveEvery mutations, Checkpoint every
// kCheckpointEvery saves, VersionManager::CreateVersion every
// kVersionEvery mutations, and a SelectVersion round trip to an older
// version and back every kVersionsPerCycle versions. Such a round trip
// ends a cycle. The run ends by closing the store, reopening it and
// running Persistence::Load.
//
// The session is not stationary: every cycle adds versions (a
// SelectVersion walks the whole history), dead store records and heap
// growth, so later cycles cost more. A run therefore measures a fixed
// number of whole cycles, one per kSecondsPerCycle of --seconds (about
// that long on a 4-core 2 GHz machine today): every run and every commit
// measures the same work, and a faster engine finishes it sooner instead
// of running further into a longer history.
//
// Why: the mutation path (with incremental index and extent
// maintenance), storage and delta versions do the work; joins and
// multiuser do none. The store ends several times larger than the buffer
// pool, so Load and Checkpoint evict. It maintains the same indexes
// query_mix reads.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "common.h"
#include "core/item_codec.h"
#include "core/persistence.h"
#include "exec/exec_policy.h"
#include "storage/kv_store.h"
#include "version/version_manager.h"

namespace seedbench {

namespace {

using seed::AssociationId;
using seed::ClassId;
using seed::ObjectId;
using seed::RelationshipId;
using seed::Status;
using seed::core::Database;
using seed::core::ItemCodec;
using seed::core::Persistence;
using seed::core::Value;

constexpr int kSetupReps = 3;
constexpr long kDefaultBaseItems = 90000;
constexpr double kGrowth = 1.1;       // size cap over the base size
constexpr int kSaveEvery = 512;       // mutations per SaveChanges
constexpr int kCheckpointEvery = 8;   // saves per Checkpoint
constexpr int kVersionEvery = 4096;   // mutations per CreateVersion
constexpr int kVersionsPerCycle = 8;  // versions per SelectVersion trip
constexpr double kSecondsPerCycle = 6;
constexpr int kWarmupOps = 3000;
constexpr std::uint64_t kTraceBlockNs = 250'000'000;

/// Bytes this process passed to write()/pwrite() so far (/proc/self/io
/// wchar): the storage writes, since nothing else in the loop writes.
std::uint64_t BytesWritten() {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

/// The session's view of its roots by class, kept in step with the
/// database so every generated mutation is one the engine accepts.
struct Roots {
  std::vector<ObjectId> thing, data, input, output, action;

  std::vector<ObjectId>* Of(ClassId cls) {
    const auto& ids = Spec().ids;
    if (cls == ids.thing) return &thing;
    if (cls == ids.data) return &data;
    if (cls == ids.input_data) return &input;
    if (cls == ids.output_data) return &output;
    return &action;
  }
  std::size_t size() const {
    return thing.size() + data.size() + input.size() + output.size() +
           action.size();
  }
  ObjectId Any(Rng& rng) const {
    std::size_t i = rng.Uniform(size());
    for (const std::vector<ObjectId>* v :
         {&thing, &data, &input, &output, &action}) {
      if (i < v->size()) return (*v)[i];
      i -= v->size();
    }
    return ObjectId();
  }
  static void Remove(std::vector<ObjectId>* v, ObjectId id) {
    auto it = std::find(v->begin(), v->end(), id);
    if (it != v->end()) {
      *it = v->back();
      v->pop_back();
    }
  }
};

void RememberChanges(const Database& db, std::set<ObjectId>* objects,
                     std::set<RelationshipId>* relationships) {
  objects->insert(db.changed_objects().begin(), db.changed_objects().end());
  relationships->insert(db.changed_relationships().begin(),
                        db.changed_relationships().end());
}

/// Everything set up before the timed loop.
struct Session {
  SpecWorld world;
  std::unique_ptr<seed::storage::KvStore> kv;
  std::unique_ptr<seed::version::VersionManager> versions;
  std::string dir;
  Roots roots;
};

Status OpenStore(const std::string& dir, seed::storage::KvStore* kv) {
  seed::storage::KvStoreOptions options;  // 256 pages, no sync on append
  options.sync_on_append = false;
  return kv->Open(dir, options);
}

Session SetUp(const Options& opts, long base_items, int rep, Report* report) {
  Session s;
  s.world = BuildSpecWorld(base_items, opts.seed);
  CreateSpecIndexes(s.world.db.get(), report);
  for (ObjectId a : s.world.actions) s.roots.action.push_back(a);
  for (ObjectId d : s.world.inputs) s.roots.input.push_back(d);
  for (ObjectId d : s.world.outputs) s.roots.output.push_back(d);
  Database* db = s.world.db.get();
  // The base version holds every item, so a SelectVersion round trip
  // restores the whole database. BuildSpecWorld cleared the change
  // tracking; re-mark every item so CreateVersion records it.
  for (const auto& [id, obj] : db->objects_raw()) db->RestoreObject(obj);
  for (const auto& [id, rel] : db->relationships_raw()) {
    db->RestoreRelationship(rel);
  }
  s.versions = std::make_unique<seed::version::VersionManager>(db);
  auto base = s.versions->CreateVersion();
  if (!base.ok()) {
    report->Fail("base CreateVersion: " + base.status().ToString());
  }

  s.dir = opts.work_dir + "/edit_persist-" + std::to_string(getpid()) + "-" +
          std::to_string(rep);
  std::error_code ec;
  std::filesystem::remove_all(s.dir, ec);
  std::filesystem::create_directories(s.dir, ec);
  s.kv = std::make_unique<seed::storage::KvStore>();
  Status st = OpenStore(s.dir, s.kv.get());
  if (st.ok()) st = Persistence::SaveFull(*db, s.kv.get());
  if (!st.ok()) report->Fail("store set-up: " + st.ToString());
  db->ClearChangeTracking();
  return s;
}

void TearDown(Session* s) {
  if (s->kv) (void)s->kv->Close();
  s->kv.reset();
  std::error_code ec;
  if (!s->dir.empty()) std::filesystem::remove_all(s->dir, ec);
}

/// Per-kind mutation latencies and the other timed calls of the loop.
struct Timings {
  Samples writes, create_object, set_value, reclassify, create_relationship,
      delete_object, completeness, reads, saves,
      checkpoints, version_create, version_select;
  /// Reads and writes split by untraced [0] / traced [1] block.
  Samples reads_in_block[2], writes_in_block[2];
};

class Stream {
 public:
  Stream(Session* s, const Options& opts, Report* report, Timings* t)
      : s_(s),
        db_(s->world.db.get()),
        report_(report),
        t_(t),
        rng_(opts.seed * 0xED17 + 5),
        words_(s->world.vocabulary, 1.0),
        prio_(s->world.priorities, 0.9),
        queries_(s->world.vocabulary, s->world.priorities,
                 s->world.inputs.size(), QueryGen::Mix::kLookups,
                 opts.seed * 0x51ED + 9),
        cap_(static_cast<std::size_t>(static_cast<double>(LiveItems(*db_)) *
                                      kGrowth)) {}

  /// One step of the stream: a query (about 10%), a completeness check,
  /// or a mutation; saves, checkpoints and versions fall due by count.
  void Step(bool traced) {
    ++steps;
    std::uint64_t pick = rng_.Uniform(100);
    if (pick < 10) {
      Query q = queries_.Next();
      Fingerprint(&report_->input_fingerprint, q.Text());
      seed::query::QueryTrace trace;
      ScopedSpan span("query.run");
      std::uint64_t start = NowNs();
      QueryResult r = RunTextual(*db_, q, traced ? &trace : nullptr);
      std::uint64_t ns = NowNs() - start;
      t_->reads.Add(ns);
      t_->reads_in_block[traced].Add(ns);
      if (traced) query_layers.Add(trace, start, ns);
      rows_returned += r.rows;
      ++queries;
      Check(r.status, "query " + q.Text());
      return;
    }
    if (pick < 16) {
      ObjectId root = s_->roots.Any(rng_);
      ScopedSpan span("core.check_completeness");
      std::uint64_t start = NowNs();
      seed::core::Report rep = db_->CheckCompleteness(root);
      t_->completeness.Add(NowNs() - start);
      ++report_->attempted;
      return;
    }
    Mutate(pick);
  }

  /// Saves, checkpoints and versions that fall due after a step. With
  /// `end_cycle` it closes the cycle now. Returns true when a cycle ended
  /// (a SelectVersion round trip just happened).
  bool Flush(bool end_cycle);
  Status FinalSave();

  std::uint64_t steps = 0, mutations = 0, queries = 0, rows_returned = 0,
                saves = 0, items_saved = 0,
                item_bytes_saved = 0, storage_bytes_written = 0,
                versions = 0, version_bytes = 0;
  QueryLayerStats query_layers;

 private:
  void Check(const Status& st, const std::string& what) {
    ++report_->attempted;
    if (!st.ok()) {
      ++report_->failed;
      report_->Fail(what + ": " + st.ToString());
    }
  }

  template <typename F>
  Status Write(Samples* kind, const char* span_name, F&& call) {
    ScopedSpan span(span_name);
    std::uint64_t start = NowNs();
    Status st = call();
    std::uint64_t ns = NowNs() - start;
    if (kind != nullptr) kind->Add(ns);
    t_->writes.Add(ns);
    t_->writes_in_block[Tracer::Get().on()].Add(ns);
    ++mutations;
    ++since_save_;
    return st;
  }

  std::string Word() { return "w" + std::to_string(words_.Sample(rng_)); }

  void Mutate(std::uint64_t pick);
  void SetAttribute(ObjectId root, const char* role, Value value);

  Session* s_;
  Database* db_;
  Report* report_;
  Timings* t_;
  Rng rng_;
  Zipf words_, prio_;
  QueryGen queries_;
  std::size_t cap_;
  std::uint64_t next_thing_ = 0;
  int since_save_ = 0, saves_since_checkpoint_ = 0,
      mutations_since_version_ = 0, versions_in_cycle_ = 0;
  /// Ids changed since the last version. Persistence::SaveChanges and
  /// VersionManager::CreateVersion both consume the database's one
  /// change set, so the session remembers what it saved in between and
  /// marks it changed again (RestoreObject of the unchanged item) just
  /// before each version.
  std::set<ObjectId> unversioned_objects_;
  std::set<RelationshipId> unversioned_relationships_;
};

void Stream::SetAttribute(ObjectId root, const char* role, Value value) {
  std::vector<ObjectId> subs = db_->SubObjects(root, role);
  ObjectId target;
  if (subs.empty()) {
    Status st = Write(&t_->create_object, "core.create_object", [&] {
      auto sub = db_->CreateSubObject(root, role);
      if (sub.ok()) target = *sub;
      return sub.status();
    });
    Check(st, "CreateSubObject");
    if (!st.ok()) return;
  } else {
    target = subs[0];
  }
  Check(Write(&t_->set_value, "core.set_value",
              [&] { return db_->SetValue(target, std::move(value)); }),
        "SetValue");
}

void Stream::Mutate(std::uint64_t pick) {
  const auto& ids = Spec().ids;
  Roots& roots = s_->roots;
  const bool grow = LiveItems(*db_) < cap_;
  Fingerprint(&report_->input_fingerprint, std::to_string(pick));
  if (pick < 36) {
    // A vague entry: a Thing, usually with a description. Past the size
    // cap the stream deletes a root instead.
    if (grow) {
      ObjectId created;
      std::string name = "T" + std::to_string(next_thing_++);
      Status st = Write(&t_->create_object, "core.create_object", [&] {
        auto r = db_->CreateObject(ids.thing, name);
        if (r.ok()) created = *r;
        return r.status();
      });
      Check(st, "CreateObject");
      if (!st.ok()) return;
      roots.thing.push_back(created);
      if (rng_.Chance(0.8)) {
        SetAttribute(created, "Description", Value::String(Word()));
      }
      return;
    }
    ObjectId victim = roots.Any(rng_);
    auto obj = db_->GetObject(victim);
    if (!obj.ok()) return;
    ClassId cls = (*obj)->cls;
    Check(Write(&t_->delete_object, "core.delete_object",
                [&] { return db_->DeleteObject(victim); }),
          "DeleteObject");
    Roots::Remove(roots.Of(cls), victim);
    return;
  }
  if (pick < 50) {
    // Reclassification along the generalization paths: Thing refined to
    // Data (or Action), Data to InputData/OutputData, and sometimes a
    // specialized datum with no relationships moved back up to Data.
    std::uint64_t r = rng_.Uniform(10);
    std::vector<ObjectId>* from;
    ClassId to;
    if (r < 5 && !roots.thing.empty()) {
      from = &roots.thing;
      to = rng_.Chance(0.75) ? ids.data : ids.action;
    } else if (r < 8 && !roots.data.empty()) {
      from = &roots.data;
      to = rng_.Chance(0.5) ? ids.input_data : ids.output_data;
    } else {
      from = rng_.Chance(0.5) ? &roots.input : &roots.output;
      to = ids.data;
    }
    if (from->empty()) return;
    ObjectId obj = (*from)[rng_.Uniform(from->size())];
    if (to == ids.data && from != &roots.thing &&
        !db_->RelationshipsOf(obj).empty()) {
      return;  // a Read/Write end cannot leave InputData/OutputData
    }
    Check(Write(&t_->reclassify, "core.reclassify",
                [&] { return db_->Reclassify(obj, to); }),
          "Reclassify");
    Roots::Remove(from, obj);
    roots.Of(to)->push_back(obj);
    return;
  }
  if (pick < 66) {
    SetAttribute(roots.Any(rng_), "Description", Value::String(Word()));
    return;
  }
  if (pick < 74) {
    SetAttribute(roots.Any(rng_), "Priority",
                 Value::Int(static_cast<std::int64_t>(prio_.Sample(rng_))));
    return;
  }
  if (pick < 79) {
    ObjectId root = roots.Any(rng_);
    std::vector<ObjectId> subs = db_->SubObjects(root);
    if (subs.empty()) return;
    ObjectId sub = subs[rng_.Uniform(subs.size())];
    Check(Write(&t_->delete_object, "core.delete_object",
                [&] { return db_->DeleteObject(sub); }),
          "DeleteObject(sub)");
    return;
  }
  if (pick < 88 && grow) {
    // A Read or a Write (with its NumberOfWrites) between existing roots.
    if (roots.action.empty()) return;
    ObjectId action = roots.action[rng_.Uniform(roots.action.size())];
    const bool read = rng_.Chance(0.6);
    const std::vector<ObjectId>& data = read ? roots.input : roots.output;
    if (data.empty()) return;
    ObjectId datum = data[rng_.Uniform(data.size())];
    AssociationId assoc = read ? ids.read : ids.write;
    for (RelationshipId rid : db_->RelationshipsOf(datum, assoc)) {
      auto rel = db_->GetRelationship(rid);
      if (rel.ok() && (*rel)->ends[1] == action) return;  // no duplicates
    }
    RelationshipId created;
    Status st = Write(&t_->create_relationship, "core.create_relationship",
                      [&] {
                        auto r = db_->CreateRelationship(assoc, datum, action);
                        if (r.ok()) created = *r;
                        return r.status();
                      });
    Check(st, "CreateRelationship");
    if (!st.ok() || read) return;
    ObjectId n;
    st = Write(&t_->create_object, "core.create_object", [&] {
      auto r = db_->CreateSubObject(created, "NumberOfWrites");
      if (r.ok()) n = *r;
      return r.status();
    });
    Check(st, "CreateSubObject(NumberOfWrites)");
    if (!st.ok()) return;
    Check(Write(&t_->set_value, "core.set_value",
                [&] {
                  return db_->SetValue(
                      n, Value::Int(1 + static_cast<std::int64_t>(
                                            rng_.Uniform(50))));
                }),
          "SetValue(NumberOfWrites)");
    return;
  }
  // Drop one relationship of a random action.
  if (roots.action.empty()) return;
  ObjectId action = roots.action[rng_.Uniform(roots.action.size())];
  std::vector<RelationshipId> rels = db_->RelationshipsOf(action);
  if (rels.empty()) return;
  RelationshipId victim = rels[rng_.Uniform(rels.size())];
  Check(Write(nullptr, "core.delete_relationship",
              [&] { return db_->DeleteRelationship(victim); }),
        "DeleteRelationship");
}

bool Stream::Flush(bool end_cycle) {
  if (since_save_ < kSaveEvery && !end_cycle) return false;
  mutations_since_version_ += since_save_;
  since_save_ = 0;

  // Bytes of the encoded user items this save writes.
  std::uint64_t items = 0, bytes = 0;
  for (ObjectId id : db_->changed_objects()) {
    auto it = db_->objects_raw().find(id);
    if (it == db_->objects_raw().end()) continue;
    ++items;
    bytes += ItemCodec::EncodeObjectToString(it->second).size();
  }
  for (RelationshipId id : db_->changed_relationships()) {
    auto it = db_->relationships_raw().find(id);
    if (it == db_->relationships_raw().end()) continue;
    ++items;
    bytes += ItemCodec::EncodeRelationshipToString(it->second).size();
  }
  RememberChanges(*db_, &unversioned_objects_, &unversioned_relationships_);
  {
    std::uint64_t written0 = BytesWritten();
    ScopedSpan span("core.save_changes");
    std::uint64_t start = NowNs();
    Status st = Persistence::SaveChanges(db_, s_->kv.get());
    t_->saves.Add(NowNs() - start);
    storage_bytes_written += BytesWritten() - written0;
    Check(st, "SaveChanges");
  }
  ++saves;
  items_saved += items;
  item_bytes_saved += bytes;
  if (++saves_since_checkpoint_ == kCheckpointEvery) {
    saves_since_checkpoint_ = 0;
    std::uint64_t written0 = BytesWritten();
    ScopedSpan span("storage.checkpoint");
    std::uint64_t start = NowNs();
    Status st = s_->kv->Checkpoint();
    t_->checkpoints.Add(NowNs() - start);
    storage_bytes_written += BytesWritten() - written0;
    Check(st, "Checkpoint");
  }
  if (mutations_since_version_ < kVersionEvery && !end_cycle) return false;
  mutations_since_version_ = 0;

  for (ObjectId id : unversioned_objects_) {
    auto it = db_->objects_raw().find(id);
    if (it != db_->objects_raw().end()) db_->RestoreObject(it->second);
  }
  for (RelationshipId id : unversioned_relationships_) {
    auto it = db_->relationships_raw().find(id);
    if (it != db_->relationships_raw().end()) {
      db_->RestoreRelationship(it->second);
    }
  }
  unversioned_objects_.clear();
  unversioned_relationships_.clear();
  seed::version::VersionManager* vm = s_->versions.get();
  const std::uint64_t stored0 = vm->StoredBytes();
  seed::Result<seed::version::VersionId> created = seed::version::VersionId();
  {
    ScopedSpan span("version.create");
    std::uint64_t start = NowNs();
    created = vm->CreateVersion();
    t_->version_create.Add(NowNs() - start);
  }
  Check(created.status(), "CreateVersion");
  if (!created.ok()) return false;
  ++versions;
  version_bytes += vm->StoredBytes() - stored0;
  if (++versions_in_cycle_ < kVersionsPerCycle && !end_cycle) return false;
  versions_in_cycle_ = 0;
  // Look at an older version, then come back to the latest one.
  std::vector<seed::version::VersionId> all = vm->AllVersions();
  seed::version::VersionId older = all[rng_.Uniform(all.size() - 1)];
  for (const seed::version::VersionId& target : {older, *created}) {
    ScopedSpan span("version.select");
    std::uint64_t start = NowNs();
    Status st = vm->SelectVersion(target);
    t_->version_select.Add(NowNs() - start);
    Check(st, "SelectVersion");
  }
  return true;
}

Status Stream::FinalSave() {
  Status st = Persistence::SaveChanges(db_, s_->kv.get());
  return st.ok() ? s_->kv->Close() : st;
}

/// Live items of `a` and `b` must match one for one, byte for byte.
std::string CompareLive(const Database& a, const Database& b) {
  std::size_t compared = 0;
  for (const auto& [id, obj] : a.objects_raw()) {
    if (obj.deleted) continue;
    auto other = b.GetObject(id);
    if (!other.ok() || (*other)->deleted ||
        ItemCodec::EncodeObjectToString(obj) !=
            ItemCodec::EncodeObjectToString(**other)) {
      return "object " + std::to_string(id.raw()) + " differs";
    }
    ++compared;
  }
  for (const auto& [id, rel] : a.relationships_raw()) {
    if (rel.deleted) continue;
    auto other = b.GetRelationship(id);
    if (!other.ok() || (*other)->deleted ||
        ItemCodec::EncodeRelationshipToString(rel) !=
            ItemCodec::EncodeRelationshipToString(**other)) {
      return "relationship " + std::to_string(id.raw()) + " differs";
    }
    ++compared;
  }
  if (compared != LiveItems(b) || LiveItems(a) != LiveItems(b)) {
    return "live item counts differ: " + std::to_string(LiveItems(a)) +
           " vs " + std::to_string(LiveItems(b));
  }
  return "";
}

}  // namespace

void RunEditPersist(const Options& opts, Report* report) {
  const long base_items = opts.items > 0 ? opts.items : kDefaultBaseItems;
  seed::exec::SetDefaultThreads(BenchThreads());

  Session s;
  std::vector<double> setup_s;
  // The traced run also traces set-up, where the attribute indexes
  // are built (the index layer's public calls).
  Tracer::Get().SetOn(opts.trace);
  const int reps = opts.setup_reps > 0 ? opts.setup_reps : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    TearDown(&s);
    s = Session{};
    std::uint64_t start = NowNs();
    s = SetUp(opts, base_items, rep, report);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  Tracer::Get().SetOn(false);
  if (!report->correct()) {
    TearDown(&s);
    return;
  }
  const std::size_t base_live = LiveItems(*s.world.db);

  Timings t;
  Stream stream(&s, opts, report, &t);
  for (int i = 0; i < kWarmupOps; ++i) {
    stream.Step(false);
    stream.Flush(false);
  }
  stream.Flush(/*end_cycle=*/true);  // the timed loop starts a cycle
  Timings warm;
  t = warm;  // the loop's samples only

  const CounterSnapshot before = CounterSnapshot::Take();
  const std::uint64_t steps0 = stream.steps, queries0 = stream.queries,
                      rows0 = stream.rows_returned,
                      mutations0 = stream.mutations, saves0 = stream.saves,
                      items0 = stream.items_saved,
                      bytes0 = stream.item_bytes_saved,
                      written0 = stream.storage_bytes_written,
                      versions0 = stream.versions,
                      vbytes0 = stream.version_bytes;
  const std::uint64_t t0 = NowNs();
  const int cycles = std::max(
      1, static_cast<int>(std::lround(opts.seconds / kSecondsPerCycle)));
  int cycles_done = 0;
  std::uint64_t now = t0;
  while (opts.max_ops == 0 ||
         stream.steps - steps0 < static_cast<std::uint64_t>(opts.max_ops)) {
    const bool traced = opts.trace && ((now - t0) / kTraceBlockNs) % 2 == 1;
    Tracer::Get().SetOn(traced);
    stream.Step(traced);
    cycles_done += stream.Flush(false) ? 1 : 0;
    now = NowNs();
    if (opts.max_ops == 0 && cycles_done == cycles) break;
  }
  const double elapsed_s = static_cast<double>(now - t0) / 1e9;
  Tracer::Get().SetOn(false);
  const CounterSnapshot after = CounterSnapshot::Take();
  const std::uint64_t steps = stream.steps - steps0;
  const std::uint64_t mutations = stream.mutations - mutations0;
  const std::uint64_t saves = stream.saves - saves0;

  // --- End: flush, close, reopen, Load; compare item for item ---
  Status st = stream.FinalSave();
  if (!st.ok()) report->Fail("final save/close: " + st.ToString());
  const std::uint64_t store_bytes = DirBytes(s.dir);
  const std::size_t final_live = LiveItems(*s.world.db);
  seed::storage::KvStore reopened;
  std::uint64_t load_start = NowNs();
  st = OpenStore(s.dir, &reopened);
  auto loaded = st.ok() ? Persistence::Load(&reopened)
                        : seed::Result<std::unique_ptr<Database>>(st);
  const double load_s = static_cast<double>(NowNs() - load_start) / 1e9;
  const seed::storage::BufferPool* pool = reopened.buffer_pool();
  const double pool_hits =
      pool != nullptr ? static_cast<double>(pool->hit_count()) : 0.0;
  const double pool_misses =
      pool != nullptr ? static_cast<double>(pool->miss_count()) : 0.0;
  const double pool_evictions =
      pool != nullptr ? static_cast<double>(pool->eviction_count()) : 0.0;
  if (!loaded.ok()) {
    report->Fail("reopen + Load: " + loaded.status().ToString());
  } else {
    std::string diff = CompareLive(*s.world.db, **loaded);
    if (!diff.empty()) report->Fail("reloaded database differs: " + diff);
  }
  (void)reopened.Close();
  TearDown(&s);
  report->Note("base " + std::to_string(base_live) + " live items, final " +
               std::to_string(final_live) + "; store " +
               std::to_string(store_bytes) + " bytes vs buffer pool " +
               std::to_string(256 * 8192) + " bytes");
  report->Note("ops = stream steps (mutations, queries, completeness checks);"
               " op = one Database mutation call; " +
               std::to_string(mutations) + " mutations, " +
               std::to_string(stream.queries - queries0) + " queries, " +
               std::to_string(saves) + " saves, " +
               std::to_string(stream.versions - versions0) + " versions, " +
               std::to_string(cycles_done) + " cycles");

  // --- Metrics ---
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("ops_per_s", static_cast<double>(steps) / elapsed_s, "1/s");
  report->Metric("error_rate",
                 Per(static_cast<double>(report->failed), report->attempted),
                 "ratio");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  report->Metric("read_p50_us", t.reads.QuantileUs(0.5), "us");
  report->Metric("read_p99_us", t.reads.QuantileUs(0.99), "us");
  report->Metric("op_p50_us", t.writes.QuantileUs(0.5), "us");
  report->Metric("op_p90_us", t.writes.QuantileUs(0.9), "us");
  report->Metric("write_p50_us", t.writes.QuantileUs(0.5), "us");
  report->Metric("write_p99_us", t.writes.QuantileUs(0.99), "us");
  report->Metric("save_p50_us", t.saves.QuantileUs(0.5), "us");
  report->Metric("version_select_p50_us", t.version_select.QuantileUs(0.5),
                 "us");
  report->Metric("load_s", load_s, "s");
  const double item_bytes =
      static_cast<double>(stream.item_bytes_saved - bytes0);
  report->Metric("write_amp",
                 item_bytes > 0
                     ? static_cast<double>(stream.storage_bytes_written -
                                           written0) /
                           item_bytes
                     : 0.0,
                 "ratio");
  report->Metric("store_bytes_per_item",
                 static_cast<double>(store_bytes) /
                     static_cast<double>(std::max<std::size_t>(final_live, 1)),
                 "B");

  auto delta = [&](const char* counter) {
    return after.Delta(before, counter);
  };
  report->Count("steps", steps);
  report->Count("mutations", mutations);
  report->Count("rows_visited", delta("query.rows.visited.total"));
  report->Count("index_probes", delta("index.probes.total"));
  report->Count("index_refreshes", delta("index.refreshes.total"));
  report->Count("wal_bytes", delta("storage.wal.appended.bytes"));
  report->Count("items_saved", stream.items_saved - items0);
  report->Count("final_live_items", final_live);

  if (!opts.trace) return;
  const std::string w = " on edit_persist";
  const std::string to_save = "save_p50_us and write_amp" + w;
  report->Layer("core.create_object_us", t.create_object.MeanUs(), "us",
                "write_p50_us" + w);
  report->Layer("core.set_value_us", t.set_value.MeanUs(), "us",
                "write_p50_us" + w);
  report->Layer("core.reclassify_us", t.reclassify.MeanUs(), "us",
                "write_p50_us" + w);
  report->Layer("core.create_relationship_us", t.create_relationship.MeanUs(),
                "us", "write_p50_us" + w);
  report->Layer("core.delete_object_us", t.delete_object.MeanUs(), "us",
                "write_p99_us" + w);
  report->Layer("core.cascade_items_per_delete",
                Per(static_cast<double>(delta("core.cascade.items.total")),
                    delta("core.deletes.total")),
                "ratio", "write_p99_us" + w);
  report->Layer("core.completeness_check_us", t.completeness.MeanUs(), "us",
                "ops_per_s" + w);
  report->Layer("core.items_per_save",
                Per(static_cast<double>(stream.items_saved - items0), saves),
                "count", to_save);
  report->Layer("index.refreshes_per_write",
                Per(static_cast<double>(delta("index.refreshes.total")),
                    mutations),
                "ratio", "write_p50_us" + w);
  report->Layer("version.create_us", t.version_create.MeanUs(), "us",
                "ops_per_s" + w);
  report->Layer("version.stored_bytes_per_version",
                Per(static_cast<double>(stream.version_bytes - vbytes0),
                    stream.versions - versions0),
                "B", "peak_rss_mb" + w);
  report->Layer("storage.wal_bytes_per_save",
                Per(static_cast<double>(delta("storage.wal.appended.bytes")),
                    saves),
                "B", to_save);
  report->Layer("storage.wal_appends_per_save",
                Per(static_cast<double>(delta("storage.wal.appends.total")),
                    saves),
                "count", to_save);
  report->Layer("storage.wal_syncs",
                static_cast<double>(delta("storage.wal.syncs.total")), "count",
                to_save);
  report->Layer("storage.checkpoint_ms", t.checkpoints.MeanUs() / 1e3, "ms",
                "ops_per_s" + w);
  report->Layer("storage.bufferpool_hit_ratio",
                pool_hits + pool_misses > 0
                    ? pool_hits / (pool_hits + pool_misses)
                    : 0.0,
                "ratio", "load_s" + w);
  report->Layer("storage.bufferpool_evictions", pool_evictions, "count",
                "load_s" + w);
  stream.query_layers.ReportTo(report, "read_p50_us" + w, "read_p99_us" + w);
  ReportQueryCounters(report, before, after, stream.queries - queries0,
                      stream.rows_returned - rows0, "edit_persist");
  ReportWholeDbPasses(report, TimeWholeDbPasses(s.world.db.get()),
                      "checkin_p50_us on checkin_cycle (passes timed on this "
                      "database)");
  ReportTraceOverhead(report, t.reads_in_block[0], t.reads_in_block[1],
                      "trace.overhead",
                      "read_p50_us" + w + " (traced vs untraced blocks)");
  ReportTraceOverhead(report, t.writes_in_block[0], t.writes_in_block[1],
                      "trace.overhead_write",
                      "write_p50_us" + w + " (traced vs untraced blocks)");
  ReportSpanTable(report);
}

}  // namespace seedbench
