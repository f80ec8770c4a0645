// seed_shell: an interactive command shell over a SEED database running
// the paper's Fig. 3 schema — the closest thing to sitting at the 1986
// prototype. Reads commands from stdin (pipe a script for batch use).
//
//   $ ./build/examples/seed_shell
//   seed> create Thing Alarms
//   seed> reclass Alarms Data
//   seed> link Access Alarms Sensor
//   seed> check
//
// Commands: help, find <Class> [exact] [where ...], find rel <Assoc>
// [exact] [where ...], find <Class> <b1> join [reverse] via <Assoc> to
// <Class> <b2> [join ... up to 6 hops] [where <b> ...] (relationship
// joins and join chains; conditions name the side they constrain by its
// binder), explain find ... (prints the chosen plan — access path, or
// the DP-chosen join plan tree — with estimated vs. actual rows),
// explain analyze find ... (the plan with per-node wall-clock and
// per-phase timings), metrics (engine metrics registry as JSON),
// schema, show [path], create <Class> <Name>,
// sub <path> <role>, set <path> <value>, link <Assoc> <path0> <path1>,
// refine <path> <Class>, refinerel <Assoc> <path0> <path1> <NewAssoc>,
// rels <path>, delete <path>, rename <path> <new>, check [path], audit,
// version [id], versions, select <id>, history <path>,
// index <Class> [role] / index rel <Assoc> <role>, unindex likewise,
// indexes, save <dir>, load <dir>, stats, dot [schema], quit.
//
// Script transport (the multiuser server's test vehicle):
//
//   seed_shell --script a.seed [b.seed ...]
//       runs the scripts in order through one standalone shell, then
//       exits (same as piping them to stdin, but named on the command
//       line). Lines starting with '#' are comments.
//
//   seed_shell --serve [--setup setup.seed] c1.seed c2.seed ...
//       starts an in-process multiuser::Server, runs the optional setup
//       script single-threaded against the master, publishes the first
//       snapshot, then replays each client script in its OWN THREAD
//       through its own ClientSession. Client scripts get the session
//       command set on top of the regular one: checkout <Name>...,
//       checkin, abandon, refresh, locks, view, workspace. Retrieval
//       (find / explain) runs against the session's pinned snapshot;
//       mutation commands edit the local workspace until `checkin` ships
//       them. Per-client output is buffered and printed after all
//       clients join, followed by a server summary line.

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/export.h"
#include "core/persistence.h"
#include "core/printer.h"
#include "core/stats.h"
#include "exec/exec_policy.h"
#include "multiuser/client.h"
#include "multiuser/server.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "spades/spec_schema.h"
#include "version/snapshot.h"
#include "version/version_io.h"
#include "version/version_manager.h"

namespace {

using seed::core::Database;
using seed::core::Printer;
using seed::core::Value;
using seed::multiuser::ClientSession;
using seed::multiuser::Server;
using seed::ObjectId;
using seed::Result;
using seed::Status;
using seed::version::VersionId;
using seed::version::VersionManager;

class Shell {
 public:
  /// Standalone: owns its database and version manager.
  Shell() {
    auto fig3 = seed::spades::BuildFig3Schema();
    owned_db_ = std::make_unique<Database>(fig3->schema);
    owned_vm_ = std::make_unique<VersionManager>(owned_db_.get());
    db_ = owned_db_.get();
    vm_ = owned_vm_.get();
  }

  /// Master mode: drives a borrowed database/version manager (the
  /// server's master, for single-threaded setup scripts).
  Shell(Database* db, VersionManager* vm) : db_(db), vm_(vm) {}

  /// Client mode: drives a ClientSession. Mutations edit the local
  /// workspace; find/explain read the session snapshot; the session
  /// command set (checkout/checkin/...) is enabled. Output goes to
  /// `sink` so concurrent clients don't interleave on stdout.
  Shell(ClientSession* session, std::string* sink)
      : db_(session->local()),
        vm_(session->local_versions()),
        session_(session),
        sink_(sink) {}

  int Run() {
    std::string line;
    bool tty = isatty(fileno(stdin));
    while (true) {
      if (tty) Printf("seed> ");
      if (!std::getline(std::cin, line)) break;
      if (!Dispatch(line)) break;
    }
    return 0;
  }

  /// Runs every line of `path`; stops early on `quit`.
  Status RunFile(const std::string& path) {
    std::ifstream in(path);
    if (!in.is_open()) {
      return Status::NotFound("cannot open script '" + path + "'");
    }
    std::string line;
    while (std::getline(in, line)) {
      if (!Dispatch(line)) break;
    }
    return Status::OK();
  }

 private:
  static std::vector<std::string> Tokenize(const std::string& line) {
    std::istringstream in(line);
    std::vector<std::string> tokens;
    std::string token;
    bool in_quote = false;
    std::string quoted;
    while (in >> token) {
      if (!in_quote && token.front() == '"') {
        if (token.size() > 1 && token.back() == '"') {
          tokens.push_back(token.substr(1, token.size() - 2));
        } else {
          in_quote = true;
          quoted = token.substr(1);
        }
      } else if (in_quote) {
        quoted += " " + token;
        if (token.back() == '"') {
          quoted.pop_back();
          tokens.push_back(quoted);
          in_quote = false;
        }
      } else {
        tokens.push_back(token);
      }
    }
    return tokens;
  }

  /// stdout, or the client-mode buffer so threads don't interleave.
  void Printf(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    va_list args;
    va_start(args, fmt);
    if (sink_ == nullptr) {
      std::vprintf(fmt, args);
    } else {
      va_list measure;
      va_copy(measure, args);
      int n = std::vsnprintf(nullptr, 0, fmt, measure);
      va_end(measure);
      if (n > 0) {
        size_t old = sink_->size();
        sink_->resize(old + static_cast<size_t>(n) + 1);
        std::vsnprintf(sink_->data() + old, static_cast<size_t>(n) + 1, fmt,
                       args);
        sink_->resize(old + static_cast<size_t>(n));
      }
    }
    va_end(args);
  }

  void Print(const Status& s) {
    Printf("%s\n", s.ok() ? "ok" : s.ToString().c_str());
  }

  /// The snapshot retrieval reads in client mode: the session's pinned
  /// snapshot. Null in the other modes, which read the working database.
  Result<seed::version::SnapshotPtr> QuerySnapshot() {
    if (session_ == nullptr) return seed::version::SnapshotPtr();
    return session_->View();
  }

  Result<ObjectId> Find(const std::string& path) {
    auto id = db_->FindObjectByName(path);
    if (id.ok()) return id;
    return db_->FindPatternByName(path);
  }

  /// Parses a value according to the target object's class.
  Result<Value> ParseValue(ObjectId obj, const std::string& text) {
    auto item = db_->GetObject(obj);
    if (!item.ok()) return item.status();
    auto cls = db_->schema()->GetClass((*item)->cls);
    if (!cls.ok()) return cls.status();
    using seed::schema::ValueType;
    switch ((*cls)->value_type) {
      case ValueType::kString:
        return Value::String(text);
      case ValueType::kInt: {
        errno = 0;
        char* end = nullptr;
        long long v = std::strtoll(text.c_str(), &end, 10);
        if (end == text.c_str() || *end != '\0') {
          return Status::InvalidArgument("'" + text + "' is not an integer");
        }
        return Value::Int(v);
      }
      case ValueType::kReal: {
        errno = 0;
        char* end = nullptr;
        double v = std::strtod(text.c_str(), &end);
        if (end == text.c_str() || *end != '\0') {
          return Status::InvalidArgument("'" + text + "' is not a number");
        }
        return Value::Real(v);
      }
      case ValueType::kBool:
        if (text == "true") return Value::Bool(true);
        if (text == "false") return Value::Bool(false);
        return Status::InvalidArgument("want true/false");
      case ValueType::kDate: {
        auto d = seed::schema::Date::Parse(text);
        if (!d.ok()) return d.status();
        return Value::OfDate(*d);
      }
      case ValueType::kEnum:
        return Value::Enum(text);
      case ValueType::kNone:
        return Status::FailedPrecondition("class '" + (*cls)->full_name +
                                          "' carries no value");
    }
    return Status::Internal("unknown value type");
  }

  /// Session commands (client mode only). True if `cmd` was handled.
  bool DispatchSession(const std::string& cmd,
                       const std::vector<std::string>& tokens) {
    if (cmd == "checkout") {
      if (tokens.size() < 2) {
        Printf("usage: checkout <Name> [Name ...]\n");
        return true;
      }
      std::vector<std::string> names(tokens.begin() + 1, tokens.end());
      Print(session_->CheckoutByName(names));
      return true;
    }
    if (cmd == "checkin") {
      std::uint64_t seq = 0;
      Status s = session_->Checkin(&seq);
      if (s.ok()) {
        Printf("committed as #%llu\n",
               static_cast<unsigned long long>(seq));
      } else {
        Print(s);
      }
      return true;
    }
    if (cmd == "abandon") {
      Print(session_->Abandon());
      return true;
    }
    if (cmd == "refresh") {
      Print(session_->Refresh());
      return true;
    }
    if (cmd == "locks") {
      auto held = session_->server()->LocksOf(session_->id());
      for (ObjectId root : held) {
        Printf("locked #%llu\n",
               static_cast<unsigned long long>(root.raw()));
      }
      Printf("(%zu lock%s)\n", held.size(), held.size() == 1 ? "" : "s");
      return true;
    }
    if (cmd == "view") {
      auto snap = session_->View();
      if (!snap.ok()) {
        Print(snap.status());
        return true;
      }
      Printf("snapshot epoch %llu: %zu objects, %zu relationships\n",
             static_cast<unsigned long long>((*snap)->epoch()),
             (*snap)->num_objects(), (*snap)->num_relationships());
      return true;
    }
    if (cmd == "workspace") {
      Printf("%s", Printer::RenderDatabase(*db_).c_str());
      return true;
    }
    return false;
  }

  bool Dispatch(const std::string& line) {
    auto tokens = Tokenize(line);
    if (tokens.empty()) return true;
    const std::string& cmd = tokens[0];
    if (cmd.front() == '#') return true;  // script comment
    if (session_ != nullptr) {
      // Checkout/check-in/abandon replace the session's local workspace;
      // re-resolve before every command so we never touch a stale one.
      db_ = session_->local();
      vm_ = session_->local_versions();
      if (DispatchSession(cmd, tokens)) return true;
    }

    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      Printf(
          "find <Class> [exact] [where ...] | find rel <Assoc> [exact] "
          "[where ...]\nfind <Class> <b1> join [reverse] via <Assoc> to "
          "<Class> <b2> (... up to 6 hops) [where <b> ...]\n"
          "explain [analyze] find ... | schema | show [path]\ncreate "
          "<Class> <Name> | sub <path> <role>"
          " | set <path> <value>\nlink <Assoc> <p0> <p1> | refine <path> "
          "<Class>\nrefinerel <Assoc> <p0> <p1> <NewAssoc> | rels <path> | "
          "delete <path>\nrename <path> <new> | check [path] | audit | "
          "version [id] | versions\nselect <id> | history <path> | "
          "index [rel] <Class|Assoc> [role] | unindex likewise\nindexes | "
          "save <dir> | load <dir> | stats | metrics | threads [n] | "
          "dot [schema] | quit\n");
      if (session_ != nullptr) {
        Printf(
            "session: checkout <Name> ... | checkin | abandon | refresh | "
            "locks | view | workspace\n");
      }
      return true;
    }
    if (cmd == "find" || (cmd == "explain" && tokens.size() >= 2)) {
      bool analyze = cmd == "explain" && tokens[1] == "analyze";
      std::string plan;
      seed::query::QueryTrace trace;
      seed::query::QueryTrace* trace_ptr = analyze ? &trace : nullptr;
      std::string_view query = line;
      if (cmd == "explain") {
        size_t at = line.find("find");
        if (at == std::string::npos) {
          Printf("usage: explain [analyze] find <Class> ...\n");
          return true;
        }
        query.remove_prefix(at);
      }
      size_t rel_at = cmd == "explain" ? (analyze ? 3 : 2) : 1;
      bool rel_query = rel_at < tokens.size() && tokens[rel_at] == "rel";
      bool join_query =
          (rel_at + 2 < tokens.size() && tokens[rel_at + 2] == "join") ||
          (rel_at + 3 < tokens.size() && tokens[rel_at + 2] == "exact" &&
           tokens[rel_at + 3] == "join");
      auto print_plan = [&] {
        if (cmd != "explain") return;
        Printf("plan: %s\n",
                    analyze ? trace.Render().c_str() : plan.c_str());
      };
      // Retrieval reads the session snapshot in client mode (never the
      // master, never the half-edited workspace) — the pin keeps the
      // frozen state alive for the whole query.
      auto pin = QuerySnapshot();
      if (!pin.ok()) {
        Print(pin.status());
        return true;
      }
      const Database& qdb = *pin == nullptr ? *db_ : (*pin)->database();
      size_t matches = 0;
      if (join_query) {
        auto result =
            seed::query::RunJoinChainQuery(qdb, query, &plan, trace_ptr);
        if (!result.ok()) {
          Print(result.status());
          return true;
        }
        print_plan();
        for (const auto& tuple : result->tuples) {
          std::string row;
          for (seed::ObjectId id : tuple) {
            if (!row.empty()) row += " -- ";
            row += qdb.FullName(id);
          }
          Printf("%s\n", row.c_str());
        }
        matches = result->tuples.size();
      } else if (rel_query) {
        auto result =
            seed::query::RunRelationshipQuery(qdb, query, &plan, trace_ptr);
        if (!result.ok()) {
          Print(result.status());
          return true;
        }
        print_plan();
        for (seed::RelationshipId id : *result) {
          Printf("%s\n",
                      Printer::RenderRelationship(qdb, id).c_str());
        }
        matches = result->size();
      } else {
        auto result = seed::query::RunQuery(qdb, query, &plan, trace_ptr);
        if (!result.ok()) {
          Print(result.status());
          return true;
        }
        print_plan();
        for (seed::ObjectId id : *result) {
          Printf("%s\n", qdb.FullName(id).c_str());
        }
        matches = result->size();
      }
      Printf("(%zu match%s)\n", matches, matches == 1 ? "" : "es");
      return true;
    }
    if (cmd == "index" && tokens.size() >= 2 && tokens[1] == "rel") {
      if (tokens.size() != 4) {
        Printf("usage: index rel <Assoc> <role>\n");
        return true;
      }
      auto assoc = db_->schema()->FindAssociation(tokens[2]);
      if (!assoc.ok()) {
        Print(assoc.status());
        return true;
      }
      Print(db_->CreateAttributeIndex(
          seed::index::IndexSpec::ForAssociation(*assoc, tokens[3])));
      return true;
    }
    if (cmd == "index" && (tokens.size() == 2 || tokens.size() == 3)) {
      auto cls = db_->schema()->FindIndependentClass(tokens[1]);
      if (!cls.ok()) {
        Print(cls.status());
        return true;
      }
      seed::index::IndexSpec spec;
      spec.cls = *cls;
      if (tokens.size() == 3) spec.role = tokens[2];
      Print(db_->CreateAttributeIndex(std::move(spec)));
      return true;
    }
    if (cmd == "unindex" && tokens.size() >= 2 && tokens[1] == "rel") {
      if (tokens.size() != 3 && tokens.size() != 4) {
        Printf("usage: unindex rel <Assoc> [role]\n");
        return true;
      }
      auto assoc = db_->schema()->FindAssociation(tokens[2]);
      if (!assoc.ok()) {
        Print(assoc.status());
        return true;
      }
      Print(db_->DropAttributeIndex(
          *assoc, tokens.size() == 4 ? tokens[3] : std::string_view{}));
      return true;
    }
    if (cmd == "unindex" && (tokens.size() == 2 || tokens.size() == 3)) {
      auto cls = db_->schema()->FindIndependentClass(tokens[1]);
      if (!cls.ok()) {
        Print(cls.status());
        return true;
      }
      Print(db_->DropAttributeIndex(
          *cls, tokens.size() == 3 ? tokens[2] : std::string_view{}));
      return true;
    }
    if (cmd == "indexes") {
      for (const auto& idx : db_->attribute_indexes().indexes()) {
        const auto& spec = idx->spec();
        std::string extent;
        if (spec.on_relationships()) {
          auto assoc = db_->schema()->GetAssociation(spec.assoc);
          extent = std::string("rel ") +
                   (assoc.ok() ? (*assoc)->name.c_str() : "?");
        } else {
          auto cls = db_->schema()->GetClass(spec.cls);
          extent = cls.ok() ? (*cls)->name : "?";
        }
        Printf("%s%s%s%s: %zu entr%s, %zu distinct key%s\n",
                    extent.c_str(),
                    spec.role.empty() ? "" : ".",
                    spec.role.c_str(),
                    spec.include_specializations ? "" : " (exact)",
                    idx->num_entries(), idx->num_entries() == 1 ? "y" : "ies",
                    idx->num_distinct_keys(),
                    idx->num_distinct_keys() == 1 ? "" : "s");
      }
      Printf("(%zu index%s)\n", db_->attribute_indexes().size(),
                  db_->attribute_indexes().size() == 1 ? "" : "es");
      return true;
    }
    if (cmd == "schema") {
      Printf("%s", Printer::RenderSchema(*db_->schema()).c_str());
      return true;
    }
    if (cmd == "stats") {
      Printf("%s", seed::core::CollectStats(*db_).ToString().c_str());
      // Planner statistics: what the cost model reads — incrementally
      // maintained extent counters and per-index cardinalities.
      const auto& manager = db_->attribute_indexes();
      if (!manager.empty()) {
        Printf("planner statistics:\n");
        for (const auto& idx : manager.indexes()) {
          double avg = idx->num_distinct_keys() == 0
                           ? 0.0
                           : static_cast<double>(idx->num_entries()) /
                                 static_cast<double>(idx->num_distinct_keys());
          Printf("  %s: %zu entries, %zu distinct keys, "
                      "%.1f rows/key\n",
                      idx->spec().ToString().c_str(), idx->num_entries(),
                      idx->num_distinct_keys(), avg);
        }
      }
      // Engine metrics: top counters and query-phase latency summaries
      // from the process-wide registry ('metrics' dumps the full JSON).
      std::string summary = seed::obs::MetricsRegistry::Global().Summary();
      if (!summary.empty()) Printf("%s", summary.c_str());
      return true;
    }
    if (cmd == "metrics") {
      Printf("%s\n",
                  seed::obs::MetricsRegistry::Global().ToJson().c_str());
      return true;
    }
    if (cmd == "threads") {
      // Execution parallelism knob: `threads` shows the current default
      // (SEED_EXEC_THREADS or hardware concurrency), `threads <n>` sets
      // it for queries planned from here on; 1 restores the exact
      // sequential engine.
      if (tokens.size() >= 2) {
        int n = std::atoi(tokens[1].c_str());
        if (n < 1) {
          Printf("usage: threads [n>=1]\n");
          return true;
        }
        seed::exec::SetDefaultThreads(n);
      }
      Printf("execution threads: %d\n", seed::exec::DefaultThreads());
      return true;
    }
    if (cmd == "dot") {
      if (tokens.size() >= 2 && tokens[1] == "schema") {
        Printf("%s",
                    seed::core::DotExport::Schema(*db_->schema()).c_str());
      } else {
        Printf("%s", seed::core::DotExport::Database(*db_).c_str());
      }
      return true;
    }
    if (cmd == "show") {
      if (tokens.size() < 2) {
        Printf("%s", Printer::RenderDatabase(*db_).c_str());
      } else if (auto id = Find(tokens[1]); id.ok()) {
        Printf("%s", Printer::RenderObjectTree(*db_, *id).c_str());
      } else {
        Print(id.status());
      }
      return true;
    }
    if (cmd == "create" && tokens.size() == 3) {
      auto cls = db_->schema()->FindIndependentClass(tokens[1]);
      if (!cls.ok()) {
        Print(cls.status());
        return true;
      }
      Print(db_->CreateObject(*cls, tokens[2]).status());
      return true;
    }
    if (cmd == "sub" && tokens.size() == 3) {
      auto parent = Find(tokens[1]);
      if (!parent.ok()) {
        Print(parent.status());
        return true;
      }
      Print(db_->CreateSubObject(*parent, tokens[2]).status());
      return true;
    }
    if (cmd == "set" && tokens.size() >= 3) {
      auto obj = Find(tokens[1]);
      if (!obj.ok()) {
        Print(obj.status());
        return true;
      }
      std::string text = tokens[2];
      for (size_t i = 3; i < tokens.size(); ++i) text += " " + tokens[i];
      auto value = ParseValue(*obj, text);
      if (!value.ok()) {
        Print(value.status());
        return true;
      }
      Print(db_->SetValue(*obj, std::move(*value)));
      return true;
    }
    if (cmd == "link" && tokens.size() == 4) {
      auto assoc = db_->schema()->FindAssociation(tokens[1]);
      auto p0 = Find(tokens[2]);
      auto p1 = Find(tokens[3]);
      if (!assoc.ok() || !p0.ok() || !p1.ok()) {
        Print(!assoc.ok() ? assoc.status()
                          : (!p0.ok() ? p0.status() : p1.status()));
        return true;
      }
      Print(db_->CreateRelationship(*assoc, *p0, *p1).status());
      return true;
    }
    if (cmd == "refine" && tokens.size() == 3) {
      auto obj = Find(tokens[1]);
      auto cls = db_->schema()->FindIndependentClass(tokens[2]);
      if (!obj.ok() || !cls.ok()) {
        Print(!obj.ok() ? obj.status() : cls.status());
        return true;
      }
      Print(db_->Reclassify(*obj, *cls));
      return true;
    }
    if (cmd == "refinerel" && tokens.size() == 5) {
      auto assoc = db_->schema()->FindAssociation(tokens[1]);
      auto p0 = Find(tokens[2]);
      auto p1 = Find(tokens[3]);
      auto target = db_->schema()->FindAssociation(tokens[4]);
      if (!assoc.ok() || !p0.ok() || !p1.ok() || !target.ok()) {
        Printf("error: bad association or path\n");
        return true;
      }
      for (seed::RelationshipId rid : db_->RelationshipsOf(*p0, *assoc, 0)) {
        auto rel = db_->GetRelationship(rid);
        if (rel.ok() && (*rel)->ends[1] == *p1) {
          Print(db_->ReclassifyRelationship(rid, *target));
          return true;
        }
      }
      Printf("no such relationship\n");
      return true;
    }
    if (cmd == "rels" && tokens.size() == 2) {
      auto obj = Find(tokens[1]);
      if (!obj.ok()) {
        Print(obj.status());
        return true;
      }
      for (seed::RelationshipId rid : db_->RelationshipsOf(*obj)) {
        Printf("%s\n", Printer::RenderRelationship(*db_, rid).c_str());
      }
      return true;
    }
    if (cmd == "delete" && tokens.size() == 2) {
      auto obj = Find(tokens[1]);
      if (!obj.ok()) {
        Print(obj.status());
        return true;
      }
      Print(db_->DeleteObject(*obj));
      return true;
    }
    if (cmd == "rename" && tokens.size() == 3) {
      auto obj = Find(tokens[1]);
      if (!obj.ok()) {
        Print(obj.status());
        return true;
      }
      Print(db_->Rename(*obj, tokens[2]));
      return true;
    }
    if (cmd == "check") {
      seed::core::Report report;
      if (tokens.size() >= 2) {
        auto obj = Find(tokens[1]);
        if (!obj.ok()) {
          Print(obj.status());
          return true;
        }
        report = db_->CheckCompleteness(*obj);
      } else {
        report = db_->CheckCompleteness();
      }
      Printf("%s", report.clean() ? "complete\n"
                                       : report.ToString().c_str());
      return true;
    }
    if (cmd == "audit") {
      auto report = db_->AuditConsistency();
      Printf("%s", report.clean() ? "consistent\n"
                                       : report.ToString().c_str());
      return true;
    }
    if (cmd == "version") {
      if (tokens.size() >= 2) {
        auto id = VersionId::Parse(tokens[1]);
        if (!id.ok()) {
          Print(id.status());
          return true;
        }
        Print(vm_->CreateVersion(*id));
      } else {
        auto v = vm_->CreateVersion();
        if (v.ok()) {
          Printf("created version %s\n", v->ToString().c_str());
        } else {
          Print(v.status());
        }
      }
      return true;
    }
    if (cmd == "versions") {
      for (const VersionId& v : vm_->AllVersions()) {
        auto parent = vm_->ParentOf(v);
        Printf("%s%s%s%s\n", v.ToString().c_str(),
                    parent.ok() && parent->valid() ? " (from " : "",
                    parent.ok() && parent->valid()
                        ? parent->ToString().c_str()
                        : "",
                    parent.ok() && parent->valid() ? ")" : "");
      }
      Printf("basis: %s\n", vm_->current_basis().ToString().c_str());
      return true;
    }
    if (cmd == "select" && tokens.size() == 2) {
      auto id = VersionId::Parse(tokens[1]);
      if (!id.ok()) {
        Print(id.status());
        return true;
      }
      Print(vm_->SelectVersion(*id));
      return true;
    }
    if (cmd == "history" && tokens.size() == 2) {
      auto hits = vm_->VersionsOfObject(tokens[1]);
      if (!hits.ok()) {
        Print(hits.status());
        return true;
      }
      for (const auto& hit : *hits) {
        Printf("%s%s\n", hit.version.ToString().c_str(),
                    hit.deleted ? " (deleted)" : "");
      }
      return true;
    }
    if (cmd == "save" && tokens.size() == 2) {
      seed::storage::KvStore kv;
      Status s = kv.Open(tokens[1]);
      if (s.ok()) s = seed::core::Persistence::SaveFull(*db_, &kv);
      if (s.ok()) s = seed::version::VersionPersistence::Save(*vm_, &kv);
      if (s.ok()) s = kv.Close();
      Print(s);
      return true;
    }
    if (cmd == "load" && tokens.size() == 2) {
      if (owned_db_ == nullptr) {
        Printf("load replaces the whole database; standalone mode only\n");
        return true;
      }
      seed::storage::KvStore kv;
      Status s = kv.Open(tokens[1]);
      if (!s.ok()) {
        Print(s);
        return true;
      }
      auto loaded = seed::core::Persistence::Load(&kv);
      if (!loaded.ok()) {
        Print(loaded.status());
        return true;
      }
      owned_db_ = std::move(*loaded);
      owned_vm_ = std::make_unique<VersionManager>(owned_db_.get());
      db_ = owned_db_.get();
      vm_ = owned_vm_.get();
      Print(seed::version::VersionPersistence::Load(vm_, &kv));
      return true;
    }
    Printf("unknown command (try 'help')\n");
    return true;
  }

  /// Owned only in standalone mode; master/client modes borrow.
  std::unique_ptr<Database> owned_db_;
  std::unique_ptr<VersionManager> owned_vm_;
  Database* db_ = nullptr;
  VersionManager* vm_ = nullptr;
  ClientSession* session_ = nullptr;
  std::string* sink_ = nullptr;
};

/// --serve: one Server, an optional single-threaded setup script against
/// the master, then every client script in its own thread and session.
int RunServe(const std::string& setup,
             const std::vector<std::string>& scripts) {
  auto fig3 = seed::spades::BuildFig3Schema();
  Server server(fig3->schema);

  if (!setup.empty()) {
    Shell master_shell(server.master(), server.global_versions());
    Status s = master_shell.RunFile(setup);
    if (!s.ok()) {
      std::fprintf(stderr, "setup: %s\n", s.ToString().c_str());
      return 1;
    }
    // Setup bypassed the check-in path; baseline items are original
    // state, not pending changes, and sessions must see them.
    server.master()->ClearChangeTracking();
    server.PublishSnapshot();
  }

  std::vector<std::string> outputs(scripts.size());
  std::vector<std::string> errors(scripts.size());
  std::vector<std::thread> threads;
  threads.reserve(scripts.size());
  for (size_t i = 0; i < scripts.size(); ++i) {
    threads.emplace_back([&server, &scripts, &outputs, &errors, i] {
      auto session =
          ClientSession::Open(&server, "script-" + std::to_string(i));
      if (!session.ok()) {
        errors[i] = session.status().ToString();
        return;
      }
      Shell client_shell(session->get(), &outputs[i]);
      Status s = client_shell.RunFile(scripts[i]);
      if (!s.ok()) errors[i] = s.ToString();
    });
  }
  for (std::thread& t : threads) t.join();

  int rc = 0;
  for (size_t i = 0; i < scripts.size(); ++i) {
    std::printf("=== client %zu: %s ===\n", i, scripts[i].c_str());
    std::fputs(outputs[i].c_str(), stdout);
    if (!errors[i].empty()) {
      std::printf("error: %s\n", errors[i].c_str());
      rc = 1;
    }
  }
  std::printf(
      "=== server: %llu checkins applied, %llu rejected, %llu lock "
      "conflicts, snapshot epoch %llu ===\n",
      static_cast<unsigned long long>(server.checkins_applied()),
      static_cast<unsigned long long>(server.checkins_rejected()),
      static_cast<unsigned long long>(server.lock_conflicts()),
      static_cast<unsigned long long>(server.snapshot_epoch()));
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bool serve = false;
  std::string setup;
  std::vector<std::string> scripts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--serve") {
      serve = true;
    } else if (arg == "--setup" && i + 1 < argc) {
      setup = argv[++i];
    } else if (arg == "--script" && i + 1 < argc) {
      scripts.push_back(argv[++i]);
    } else if (!arg.empty() && arg[0] != '-') {
      scripts.push_back(std::move(arg));
    } else {
      std::fprintf(stderr,
                   "usage: seed_shell [--script f.seed ...]\n"
                   "       seed_shell --serve [--setup s.seed] "
                   "c1.seed [c2.seed ...]\n");
      return 2;
    }
  }
  if (serve) return RunServe(setup, scripts);
  Shell shell;
  if (scripts.empty()) return shell.Run();
  for (const std::string& path : scripts) {
    Status s = shell.RunFile(path);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
