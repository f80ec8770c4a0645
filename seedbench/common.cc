#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>
#include <thread>

#include "exec/exec_policy.h"
#include "obs/metrics.h"
#include "query/planner.h"
#include "schema/schema_builder.h"
#include "version/snapshot.h"

namespace seedbench {

using seed::AssociationId;
using seed::ClassId;
using seed::ObjectId;
using seed::RelationshipId;
using seed::Status;
using seed::core::Database;
using seed::core::Value;
using seed::query::Planner;

int BenchThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<unsigned>(hw == 0 ? 1 : hw, 1, 4));
}

// --- Seeded inputs -----------------------------------------------------------

Rng::Rng(std::uint64_t seed) {
  std::uint64_t z = seed;
  for (std::uint64_t& s : s_) {
    z += 0x9E3779B97F4A7C15ull;
    std::uint64_t x = z;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    s = x ^ (x >> 31);
  }
}

std::uint64_t Rng::Next() {
  auto rotl = [](std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); };
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(std::max<std::size_t>(n, 1)) {
  double sum = 0.0;
  for (std::size_t i = 0; i < cdf_.size(); ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::Sample(Rng& rng) const {
  return At(static_cast<double>(rng.Next() >> 11) * 0x1.0p-53);
}

std::size_t Zipf::At(double u) const {
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

// --- Timing ------------------------------------------------------------------

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Samples::Append(const Samples& other) {
  ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
}

double Samples::QuantileUs(double q) const {
  if (ns_.empty()) return 0.0;
  std::vector<std::uint64_t> v = ns_;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank), v.end());
  return static_cast<double>(v[rank]) / 1e3;
}

double Samples::MeanUs() const {
  if (ns_.empty()) return 0.0;
  std::uint64_t total =
      std::accumulate(ns_.begin(), ns_.end(), std::uint64_t{0});
  return static_cast<double>(total) / 1e3 / static_cast<double>(ns_.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Per(double total, std::uint64_t count) {
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// --- Tracing -----------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadLog& Tracer::Local() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
    log->thread = static_cast<int>(logs_.size()) - 1;
  }
  return *log;
}

int Tracer::Begin(const char* name) {
  ThreadLog& log = Local();
  Span span;
  span.name = name;
  span.parent = log.open.empty() ? -1 : log.open.back();
  span.start = NowNs();
  log.spans.push_back(span);
  int handle = static_cast<int>(log.spans.size()) - 1;
  log.open.push_back(handle);
  return handle;
}

void Tracer::End(int handle) {
  ThreadLog& log = Local();
  log.spans[static_cast<std::size_t>(handle)].end = NowNs();
  if (!log.open.empty() && log.open.back() == handle) log.open.pop_back();
}

int Tracer::AddChild(const char* name, std::uint64_t start,
                     std::uint64_t end, int parent) {
  ThreadLog& log = Local();
  Span span;
  span.name = name;
  span.parent = parent >= 0 ? parent : log.open.empty() ? -1 : log.open.back();
  span.start = start;
  span.end = end;
  log.spans.push_back(span);
  return static_cast<int>(log.spans.size()) - 1;
}

std::map<std::string, Tracer::NameStats> Tracer::Aggregate() const {
  std::map<std::string, NameStats> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    std::vector<std::uint64_t> child_ns(log->spans.size(), 0);
    for (const Span& s : log->spans) {
      if (s.parent >= 0 && s.end >= s.start) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const Span& s = log->spans[i];
      if (s.end < s.start) continue;  // still open: not a finished call
      NameStats& st = out[s.name];
      std::uint64_t dur = s.end - s.start;
      ++st.calls;
      st.total_ns += dur;
      st.self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
    }
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const Span& s = log->spans[i];
      std::fprintf(f,
                   "{\"thread\":%d,\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                   "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   log->thread, i, s.parent, s.name,
                   static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end));
    }
  }
  return std::fclose(f) == 0;
}

// --- Engine counters ---------------------------------------------------------

namespace {

// Every registry counter a per-layer metric or an exact count reads.
constexpr const char* kCounters[] = {
    "query.queries.total",
    "query.rows.visited.total",
    "query.plans.index.total",
    "query.plans.scan.total",
    "planner.cache.hits.total",
    "planner.cache.misses.total",
    "planner.adaptive.replans.total",
    "stats.histogram.builds.total",
    "index.probes.total",
    "index.range_scans.total",
    "index.refreshes.total",
    "core.mutations.total",
    "core.deletes.total",
    "core.cascade.items.total",
    "storage.wal.appended.bytes",
    "storage.wal.appends.total",
    "storage.wal.syncs.total",
    "server.snapshot.publishes.total",
    "multiuser.checkins.applied.total",
};

}  // namespace

std::uint64_t CounterValue(std::string_view name) {
  const seed::obs::Counter* c =
      seed::obs::MetricsRegistry::Global().FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

CounterSnapshot CounterSnapshot::Take() {
  CounterSnapshot snap;
  for (const char* name : kCounters) snap.values_[name] = CounterValue(name);
  return snap;
}

std::uint64_t CounterSnapshot::Delta(const CounterSnapshot& earlier,
                                     std::string_view name) const {
  auto now = values_.find(name);
  auto then = earlier.values_.find(name);
  if (now == values_.end() || then == earlier.values_.end()) return 0;
  return now->second - then->second;
}

// --- Report ------------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit, ""});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, const std::string& moves) {
  layers_.push_back({name, value, unit, moves});
}

void Report::Fail(const std::string& what) { failures_.push_back(what); }

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Print(const Options& opts) const {
  std::printf("== seedbench %s seed=%llu %s\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed),
              opts.trace ? "(traced run)" : "(untraced run)");
  for (const std::string& n : notes_) std::printf("   %s\n", n.c_str());
  std::printf("-- end-to-end\n");
  for (const Entry& e : metrics_) {
    std::printf("   %-28s %14.4f %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
  if (!layers_.empty()) {
    std::printf("-- per layer (metric -> end-to-end metric it should move)\n");
    for (const Entry& e : layers_) {
      std::printf("   %-36s %14.4f %-10s -> %s\n", e.name.c_str(), e.value,
                  e.unit.c_str(), e.moves.c_str());
    }
  }
  std::printf("-- output checks: %s\n",
              failures_.empty() ? "all passed" : "FAILED");
  for (const std::string& f : failures_) {
    std::printf("   FAILED: %s\n", f.c_str());
  }

  std::string json = "{\"workload\":\"" + opts.workload +
                     "\",\"seed\":" + std::to_string(opts.seed) +
                     ",\"trace\":" + (opts.trace ? "true" : "false") +
                     ",\"correct\":" + (correct() ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"fingerprint\":\"" + std::to_string(input_fingerprint) +
                     "\",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    json += (i ? "," : "") + std::string("\"") + e.name +
            "\":{\"value\":" + Num(e.value) + ",\"unit\":\"" + e.unit + "\"}";
  }
  json += "},\"layers\":{";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Entry& e = layers_[i];
    json += (i ? "," : "") + std::string("\"") + e.name +
            "\":{\"value\":" + Num(e.value) + ",\"unit\":\"" + e.unit +
            "\",\"moves\":\"" + JsonEscape(e.moves) + "\"}";
  }
  json += "},\"counts\":{";
  bool first = true;
  for (const auto& [name, value] : counts_) {
    json += (first ? "\"" : ",\"") + name + "\":" + std::to_string(value);
    first = false;
  }
  json += "},\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    json += (i ? ",\"" : "\"") + JsonEscape(failures_[i]) + "\"";
  }
  json += "]}";
  std::printf("SEEDBENCH_RESULT %s\n", json.c_str());
  std::fflush(stdout);
}

void Fingerprint(std::uint64_t* fp, std::string_view value) {
  for (char c : value) {
    *fp ^= static_cast<unsigned char>(c);
    *fp *= 0x100000001B3ull;
  }
  *fp ^= 0xFF;
  *fp *= 0x100000001B3ull;
}

void ReportSpanTable(Report* report) {
  // Self time per layer: a span's name is "<layer>.<call>", and the
  // layer is the engine module the call enters.
  std::map<std::string, Tracer::NameStats> by_name = Tracer::Get().Aggregate();
  std::map<std::string, Tracer::NameStats> by_layer;
  std::uint64_t all_self = 0;
  for (const auto& [name, st] : by_name) {
    std::string layer = name.substr(0, name.find('.'));
    Tracer::NameStats& l = by_layer[layer];
    l.calls += st.calls;
    l.total_ns += st.total_ns;
    l.self_ns += st.self_ns;
    all_self += st.self_ns;
  }
  report->Note("span table (traced blocks): layer calls self_ms share");
  for (const auto& [layer, st] : by_layer) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-10s %10llu %12.3f %6.1f%%",
                  layer.c_str(), static_cast<unsigned long long>(st.calls),
                  static_cast<double>(st.self_ns) / 1e6,
                  all_self ? 100.0 * static_cast<double>(st.self_ns) /
                                 static_cast<double>(all_self)
                           : 0.0);
    report->Note(line);
  }
  for (const auto& [name, st] : by_name) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "    %-32s calls=%-8llu mean=%.2fus self_mean=%.2fus",
                  name.c_str(), static_cast<unsigned long long>(st.calls),
                  Per(static_cast<double>(st.total_ns) / 1e3, st.calls),
                  Per(static_cast<double>(st.self_ns) / 1e3, st.calls));
    report->Note(line);
  }
}

// --- The Fig. 3 specification world ---------------------------------------

const SpecSchema& Spec() {
  static const SpecSchema spec = [] {
    auto fig3 = seed::spades::BuildFig3Schema();
    if (!fig3.ok()) {
      std::fprintf(stderr, "BuildFig3Schema: %s\n",
                   fig3.status().ToString().c_str());
      std::exit(2);
    }
    seed::schema::SchemaBuilder b =
        seed::schema::SchemaBuilder::Evolve(*fig3->schema);
    SpecSchema s;
    s.ids = fig3->ids;
    b.AddDependentClass(s.ids.thing, "Priority",
                        seed::schema::Cardinality::Optional(),
                        seed::schema::ValueType::kInt);
    auto built = b.Build();
    if (!built.ok()) {
      std::fprintf(stderr, "schema: %s\n", built.status().ToString().c_str());
      std::exit(2);
    }
    s.schema = *built;
    return s;
  }();
  return spec;
}

std::uint64_t CreateSpecIndexes(Database* db, Report* report) {
  const SpecSchema& spec = Spec();
  std::vector<seed::index::IndexSpec> specs(3);
  specs[0].cls = spec.ids.data;
  specs[0].role = "Description";
  specs[1].cls = spec.ids.action;
  specs[1].role = "Priority";
  specs[2] = seed::index::IndexSpec::ForAssociation(spec.ids.write,
                                                    "NumberOfWrites");
  std::uint64_t start = NowNs();
  for (seed::index::IndexSpec& s : specs) {
    ScopedSpan span("index.create_attribute_index");
    Status st = db->CreateAttributeIndex(std::move(s));
    if (!st.ok()) report->Fail("CreateAttributeIndex: " + st.ToString());
  }
  return NowNs() - start;
}

namespace {

void Must(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "setup %s: %s\n", what, st.ToString().c_str());
    std::exit(2);
  }
}

template <typename T>
T Must(seed::Result<T> r, const char* what) {
  Must(r.status(), what);
  return std::move(*r);
}

}  // namespace

SpecWorld BuildSpecWorld(long items, std::uint64_t seed) {
  const SpecSchema& spec = Spec();
  SpecWorld w;
  w.db = std::make_unique<Database>(spec.schema);
  Database& db = *w.db;
  Rng rng(seed * 0x9E37 + 11);
  // About 5.2 items per object at the degrees below (measured), so the
  // object count follows from the requested item count.
  const std::size_t objects =
      std::max<std::size_t>(60, static_cast<std::size_t>(items / 5.2));
  const std::size_t n_actions = objects * 2 / 5;
  const std::size_t n_inputs = (objects - n_actions) / 2;
  const std::size_t n_outputs = objects - n_actions - n_inputs;
  w.vocabulary = std::max<std::size_t>(64, objects / 10);
  w.priorities = 1000;
  Zipf words(w.vocabulary, 1.0);
  Zipf prio(w.priorities, 0.9);

  auto add_attributes = [&](ObjectId obj) {
    if (rng.Chance(0.9)) {
      ObjectId d = Must(db.CreateSubObject(obj, "Description"), "sub");
      Must(db.SetValue(d, Value::String("w" + std::to_string(
                                                   words.Sample(rng)))),
           "set");
    }
    if (rng.Chance(0.8)) {
      ObjectId p = Must(db.CreateSubObject(obj, "Priority"), "sub");
      Must(db.SetValue(p, Value::Int(static_cast<std::int64_t>(
                              prio.Sample(rng)))),
           "set");
    }
  };
  for (std::size_t i = 0; i < n_actions; ++i) {
    ObjectId a = Must(db.CreateObject(spec.ids.action, "A" + std::to_string(i)),
                      "action");
    add_attributes(a);
    w.actions.push_back(a);
  }
  for (std::size_t i = 0; i < n_inputs; ++i) {
    ObjectId d = Must(
        db.CreateObject(spec.ids.input_data, "I" + std::to_string(i)), "in");
    add_attributes(d);
    w.inputs.push_back(d);
  }
  for (std::size_t i = 0; i < n_outputs; ++i) {
    ObjectId d = Must(
        db.CreateObject(spec.ids.output_data, "O" + std::to_string(i)), "out");
    add_attributes(d);
    w.outputs.push_back(d);
  }

  // Zipf-skewed degrees onto Zipf-popular (hub) data objects.
  Zipf read_degree(8, 1.2);
  Zipf write_degree(4, 1.5);
  Zipf in_pick(n_inputs, 1.0);
  Zipf out_pick(n_outputs, 1.0);
  Zipf nwrites(50, 1.0);
  for (std::size_t i = 0; i < n_actions; ++i) {
    ObjectId a = w.actions[i];
    std::set<std::size_t> seen;
    std::size_t reads = 1 + read_degree.Sample(rng);
    for (std::size_t k = 0; k < reads; ++k) {
      std::size_t t = in_pick.Sample(rng);
      if (!seen.insert(t).second) continue;
      Must(db.CreateRelationship(spec.ids.read, w.inputs[t], a), "read");
    }
    seen.clear();
    std::size_t writes = 1 + write_degree.Sample(rng);
    for (std::size_t k = 0; k < writes; ++k) {
      std::size_t t = out_pick.Sample(rng);
      if (!seen.insert(t).second) continue;
      RelationshipId r =
          Must(db.CreateRelationship(spec.ids.write, w.outputs[t], a), "write");
      ObjectId n = Must(db.CreateSubObject(r, "NumberOfWrites"), "nwrites");
      Must(db.SetValue(n, Value::Int(1 + static_cast<std::int64_t>(
                                             nwrites.Sample(rng)))),
           "set");
    }
    if (i > 0 && rng.Chance(0.9)) {
      ObjectId container = w.actions[rng.Uniform(i)];
      Must(db.CreateRelationship(spec.ids.contained, a, container),
           "contained");
    }
  }
  db.ClearChangeTracking();
  return w;
}

std::size_t LiveItems(const Database& db) {
  return db.num_live_objects() + db.num_live_relationships();
}

// --- Queries -----------------------------------------------------------------

namespace {

std::string CondText(const QCond& c, const std::string& binder) {
  std::string prefix = binder.empty() ? "" : binder + " ";
  switch (c.op) {
    case QCond::Op::kIs:
      return prefix + c.role + " is \"" + c.text + "\"";
    case QCond::Op::kGreater:
      return prefix + c.role + " > " + std::to_string(c.number);
    case QCond::Op::kLess:
      return prefix + c.role + " < " + std::to_string(c.number);
    case QCond::Op::kNameContains:
      return prefix + "name contains \"" + c.text + "\"";
  }
  return "";
}

seed::query::Predicate CondPredicate(const QCond& c) {
  using seed::query::Predicate;
  switch (c.op) {
    case QCond::Op::kIs:
      return Predicate::OnSubObject(
          c.role, Predicate::ValueEquals(Value::String(c.text)));
    case QCond::Op::kGreater:
      return Predicate::OnSubObject(c.role, Predicate::IntGreater(c.number));
    case QCond::Op::kLess:
      return Predicate::OnSubObject(c.role, Predicate::IntLess(c.number));
    case QCond::Op::kNameContains:
      return Predicate::NameContains(c.text);
  }
  return Predicate::True();
}

std::uint64_t DigestIds(std::vector<std::uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::uint64_t id : ids) {
    h ^= id;
    h *= 0x100000001B3ull;
  }
  return h ^ ids.size();
}

std::uint64_t DigestTuples(const std::vector<std::vector<ObjectId>>& tuples) {
  std::vector<std::uint64_t> rows;
  rows.reserve(tuples.size());
  for (const auto& t : tuples) {
    std::uint64_t h = 0x84222325CBF29CE4ull;
    for (ObjectId id : t) {
      h ^= id.raw();
      h *= 0x100000001B3ull;
    }
    rows.push_back(h);
  }
  return DigestIds(std::move(rows));
}

}  // namespace

std::string Query::Text() const {
  std::string s = "find ";
  if (kind == Kind::kRelationships) {
    s += "rel " + assoc_name;
    const std::vector<QCond>& conds = binders[0].conds;
    for (std::size_t i = 0; i < conds.size(); ++i) {
      s += (i == 0 ? " where " : " and ") + CondText(conds[i], "");
    }
    return s;
  }
  if (kind == Kind::kSelect) {
    s += binders[0].cls_name;
    const std::vector<QCond>& conds = binders[0].conds;
    for (std::size_t i = 0; i < conds.size(); ++i) {
      s += (i == 0 ? " where " : " and ") + CondText(conds[i], "");
    }
    return s;
  }
  s += binders[0].cls_name + " " + binders[0].name;
  for (std::size_t h = 0; h < hops.size(); ++h) {
    s += std::string(" join ") + (hops[h].reverse ? "reverse " : "") +
         "via " + hops[h].assoc_name + " to " + binders[h + 1].cls_name + " " +
         binders[h + 1].name;
  }
  bool first = true;
  for (const QBinder& b : binders) {
    for (const QCond& c : b.conds) {
      s += (first ? " where " : " and ") + CondText(c, b.name);
      first = false;
    }
  }
  return s;
}

seed::query::LogicalChain Query::Chain() const {
  using seed::query::LogicalSelect;
  using seed::query::Predicate;
  seed::query::LogicalChain chain;
  if (kind == Kind::kRelationships) {
    std::vector<seed::query::RelCondition> conds;
    for (const QCond& c : binders[0].conds) {
      Predicate inner = c.op == QCond::Op::kGreater
                            ? Predicate::IntGreater(c.number)
                        : c.op == QCond::Op::kLess
                            ? Predicate::IntLess(c.number)
                            : Predicate::ValueEquals(Value::String(c.text));
      conds.push_back({c.role, inner});
    }
    chain.binders.push_back(
        LogicalSelect::Relationships(assoc, "r", std::move(conds)));
    return chain;
  }
  for (const QBinder& b : binders) {
    Predicate p = Predicate::True();
    for (std::size_t i = 0; i < b.conds.size(); ++i) {
      p = i == 0 ? CondPredicate(b.conds[i]) : p.And(CondPredicate(b.conds[i]));
    }
    chain.binders.push_back(LogicalSelect::Objects(
        b.cls, kind == Kind::kSelect ? "x" : b.name, std::move(p)));
  }
  for (const QHop& h : hops) chain.hops.push_back({h.assoc, h.left_role});
  return chain;
}

QueryResult RunTextual(const Database& db, const Query& q,
                       seed::query::QueryTrace* trace) {
  QueryResult out;
  const std::string text = q.Text();
  switch (q.kind) {
    case Query::Kind::kSelect: {
      auto r = seed::query::RunQuery(db, text, nullptr, trace);
      out.status = r.status();
      if (r.ok()) {
        std::vector<std::uint64_t> ids;
        for (ObjectId id : *r) ids.push_back(id.raw());
        out.rows = ids.size();
        out.digest = DigestIds(std::move(ids));
      }
      break;
    }
    case Query::Kind::kRelationships: {
      auto r = seed::query::RunRelationshipQuery(db, text, nullptr, trace);
      out.status = r.status();
      if (r.ok()) {
        std::vector<std::uint64_t> ids;
        for (RelationshipId id : *r) ids.push_back(id.raw());
        out.rows = ids.size();
        out.digest = DigestIds(std::move(ids));
      }
      break;
    }
    case Query::Kind::kChain: {
      auto r = seed::query::RunJoinChainQuery(db, text, nullptr, trace);
      out.status = r.status();
      if (r.ok()) {
        out.rows = r->tuples.size();
        out.digest = DigestTuples(r->tuples);
      }
      break;
    }
  }
  return out;
}

QueryResult RunReference(const Database& db, const Query& q) {
  Planner planner(&db);
  planner.set_plan_cache_enabled(false);
  seed::exec::ExecPolicy policy = seed::exec::ExecPolicy::Default();
  policy.threads = 1;
  planner.set_exec_policy(policy);
  QueryResult out;
  auto r = planner.Run(q.Chain());
  out.status = r.status();
  if (!r.ok()) return out;
  std::vector<std::uint64_t> ids;
  switch (q.kind) {
    case Query::Kind::kSelect:
      for (ObjectId id : r->ids) ids.push_back(id.raw());
      out.rows = ids.size();
      out.digest = DigestIds(std::move(ids));
      break;
    case Query::Kind::kRelationships:
      for (RelationshipId id : r->relationships) ids.push_back(id.raw());
      out.rows = ids.size();
      out.digest = DigestIds(std::move(ids));
      break;
    case Query::Kind::kChain:
      out.rows = r->tuples.tuples.size();
      out.digest = DigestTuples(r->tuples.tuples);
      break;
  }
  return out;
}

void QueryLayerStats::Add(const seed::query::QueryTrace& trace,
                          std::uint64_t start_ns, std::uint64_t total_ns) {
  static const char* kPhaseSpans[] = {"query.parse", "query.lower",
                                      "query.optimize", "query.execute"};
  Samples* phases[] = {&parse, &lower, &optimize, &execute};
  // QueryTrace gives phase and operator durations, not start times. Laid
  // end to end from the call's start, the phases become child spans of
  // the query span and the operators child spans of the execute phase.
  std::uint64_t at = start_ns;
  int execute_span = -1;
  std::uint64_t execute_at = 0;
  for (int i = 0; i < seed::obs::kNumQueryPhases; ++i) {
    std::uint64_t ns = trace.ctx.phase_ns[i].load(std::memory_order_relaxed);
    phases[i]->Add(ns);
    execute_span = Tracer::Get().AddChild(kPhaseSpans[i], at, at + ns);
    execute_at = at;
    at += ns;
  }
  total.Add(total_ns);
  ++traced;

  auto op = [&](const char* span, std::uint64_t* sum, std::uint64_t ns) {
    *sum += ns;
    Tracer::Get().AddChild(span, execute_at, execute_at + ns, execute_span);
    execute_at += ns;
  };
  using Node = Planner::PhysicalPlan::Node;
  for (const Planner::Plan& s : trace.plan.selects) {
    if (s.elapsed_ns < 0) continue;
    if (s.kind == Planner::Plan::Kind::kFullScan) {
      op("exec.scan", &scan_ns, static_cast<std::uint64_t>(s.elapsed_ns));
    } else {
      op("exec.index_probe", &index_ns,
         static_cast<std::uint64_t>(s.elapsed_ns));
    }
  }
  auto walk = [&](auto&& self, const Node* n) -> void {
    if (n == nullptr) return;
    self(self, n->left.get());
    self(self, n->right.get());
    if (n->kind == Node::Kind::kInput || n->elapsed_ns < 0) return;
    // Node times are inclusive of the subtrees; keep the node's own part.
    long long children = 0;
    if (n->left) children += std::max<long long>(n->left->elapsed_ns, 0);
    if (n->right) children += std::max<long long>(n->right->elapsed_ns, 0);
    std::uint64_t own = static_cast<std::uint64_t>(
        std::max<long long>(n->elapsed_ns - children, 0));
    if (n->kind == Node::Kind::kTupleJoin) {
      op("exec.tuple_join", &tuple_join_ns, own);
    } else if (n->join.strategy ==
                   Planner::JoinPlan::Strategy::kIndexNestedLoopLeft ||
               n->join.strategy ==
                   Planner::JoinPlan::Strategy::kIndexNestedLoopRight) {
      op("exec.inl_join", &inl_join_ns, own);
    } else {
      op("exec.hash_join", &hash_join_ns, own);
    }
  };
  walk(walk, trace.plan.root.get());
}

void QueryLayerStats::Merge(const QueryLayerStats& other) {
  parse.Append(other.parse);
  lower.Append(other.lower);
  optimize.Append(other.optimize);
  execute.Append(other.execute);
  total.Append(other.total);
  scan_ns += other.scan_ns;
  index_ns += other.index_ns;
  hash_join_ns += other.hash_join_ns;
  inl_join_ns += other.inl_join_ns;
  tuple_join_ns += other.tuple_join_ns;
  traced += other.traced;
}

void QueryLayerStats::ReportTo(Report* report, const std::string& moves_p50,
                               const std::string& moves_p99) const {
  // Operator time per traced query, in microseconds.
  auto per_query = [this](std::uint64_t ns) {
    return Per(static_cast<double>(ns) / 1e3, traced);
  };
  report->Layer("query.parse_us", parse.MeanUs(), "us", moves_p50);
  report->Layer("query.lower_us", lower.MeanUs(), "us", moves_p50);
  report->Layer("query.optimize_us", optimize.MeanUs(), "us", moves_p50);
  report->Layer("query.execute_us", execute.MeanUs(), "us", moves_p99);
  report->Layer("exec.scan_us", per_query(scan_ns), "us", moves_p99);
  report->Layer("exec.index_probe_us", per_query(index_ns), "us", moves_p99);
  report->Layer("exec.hash_join_us", per_query(hash_join_ns), "us",
                moves_p99);
  report->Layer("exec.inl_join_us", per_query(inl_join_ns), "us", moves_p99);
  report->Layer("exec.tuple_join_us", per_query(tuple_join_ns), "us",
                moves_p99);
  // What the four phases do not cover: the textual entry point's own
  // work (tokenizing before the parse timer, result copies) and the
  // benchmark's timer. Compared against the traced read p50 and mean.
  double phases = parse.MeanUs() + lower.MeanUs() + optimize.MeanUs() +
                  execute.MeanUs();
  report->Layer("query.unattributed_us", total.MeanUs() - phases, "us",
                moves_p50);
  report->Layer("query.unattributed_share",
                total.MeanUs() > 0 ? 1.0 - phases / total.MeanUs() : 0.0,
                "ratio", moves_p50);
  report->Layer("query.traced_read_p50_us", total.QuantileUs(0.5), "us",
                moves_p50);
  report->Layer("query.phase_sum_p50_us",
                parse.QuantileUs(0.5) + lower.QuantileUs(0.5) +
                    optimize.QuantileUs(0.5) + execute.QuantileUs(0.5),
                "us", moves_p50);
}

void ReportQueryCounters(Report* report, const CounterSnapshot& before,
                         const CounterSnapshot& after, std::uint64_t queries,
                         std::uint64_t rows_returned,
                         const std::string& workload) {
  auto d = [&](const char* name) {
    return static_cast<double>(after.Delta(before, name));
  };
  const std::string p50 = "read_p50_us on " + workload;
  const std::string p99 = "read_p99_us on " + workload;
  report->Layer("query.rows_visited_per_row_returned",
                Per(d("query.rows.visited.total"), rows_returned), "ratio",
                p99);
  report->Layer("query.adaptive_replans",
                Per(d("planner.adaptive.replans.total"), queries), "per_query",
                p99);
  report->Layer("query.histogram_builds",
                Per(d("stats.histogram.builds.total"), queries), "per_query",
                p99);
  double hits = d("planner.cache.hits.total");
  double misses = d("planner.cache.misses.total");
  report->Layer("query.plan_cache_hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio", p50);
  double idx = d("query.plans.index.total");
  double scan = d("query.plans.scan.total");
  report->Layer("query.index_plan_ratio",
                idx + scan > 0 ? idx / (idx + scan) : 0.0, "ratio", p50);
  report->Layer("index.probes_per_query",
                Per(d("index.probes.total"), queries), "per_query", p50);
  report->Layer("index.range_scans_per_query",
                Per(d("index.range_scans.total"), queries), "per_query", p50);
}

void ReportTraceOverhead(Report* report, const Samples& untraced,
                         const Samples& traced, const std::string& name,
                         const std::string& moves) {
  double base = untraced.QuantileUs(0.5);
  report->Layer(name, base > 0 ? traced.QuantileUs(0.5) / base - 1.0 : 0.0,
                "ratio", moves);
}

PassTimes TimeWholeDbPasses(Database* db) {
  // Five calls each, or one when a single round already takes over half
  // a second (the audit of a 100k-item database takes seconds).
  constexpr int kReps = 5;
  std::vector<double> rebuild, audit, capture;
  for (int i = 0; i < kReps; ++i) {
    if (i == 1 && rebuild[0] + audit[0] + capture[0] > 5e5) break;
    std::uint64_t start = NowNs();
    db->RebuildIndexes();
    rebuild.push_back(static_cast<double>(NowNs() - start) / 1e3);
    start = NowNs();
    seed::core::Report report = db->AuditConsistency();
    audit.push_back(static_cast<double>(NowNs() - start) / 1e3);
    start = NowNs();
    seed::version::SnapshotPtr snap = seed::version::Snapshot::Capture(*db, 0);
    capture.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  return {Median(rebuild), Median(audit), Median(capture)};
}

void ReportWholeDbPasses(Report* report, const PassTimes& t,
                         const std::string& moves) {
  report->Layer("core.rebuild_indexes_us", t.rebuild_us, "us", moves);
  report->Layer("core.audit_us", t.audit_us, "us", moves);
  report->Layer("version.capture_us", t.capture_us, "us", moves);
}

// --- Query mix ---------------------------------------------------------------

namespace {

constexpr int kWeights[QueryGen::kTemplates] = {29, 12, 8, 10, 8,
                                                6,  15, 9, 2, 1};
constexpr const char* kTemplateNames[QueryGen::kTemplates] = {
    "eq_description", "range_gt",  "range_lt", "name_scan", "rel_range",
    "probe_residual", "join_1hop", "join_2hop", "chain_5hop", "chain_6hop"};

}  // namespace

QueryGen::QueryGen(std::size_t vocabulary, std::size_t priorities,
                   std::size_t inputs, Mix mix, std::uint64_t seed)
    : words_(vocabulary, 1.0),
      prio_(priorities, 0.9),
      names_(std::max<std::size_t>(inputs / 10, 1), 0.8),
      nwrites_(50, 1.0) {
  int sum = 0;
  for (int t = 0; t < kTemplates; ++t) {
    sum += mix == Mix::kQueryMix ? kWeights[t] : (t == 0 ? 1 : 0);
    cumulative_.push_back(sum);
  }
  Rng rng(seed);
  for (int i = 0; i < 1 + 2 * kTemplates; ++i) {
    streams_.push_back(static_cast<double>(rng.Next() >> 11) * 0x1.0p-53);
  }
}

double QueryGen::Draw(std::size_t stream) {
  double& x = streams_[stream];
  x += 0.6180339887498949;  // golden ratio conjugate
  if (x >= 1.0) x -= 1.0;
  return x;
}

const char* QueryGen::TemplateName(int templ) { return kTemplateNames[templ]; }

QBinder QueryGen::Bind(ClassId cls, const char* cls_name,
                       const char* name) const {
  QBinder b;
  b.cls = cls;
  b.cls_name = cls_name;
  b.name = name;
  return b;
}

QCond QueryGen::Word(std::size_t stream) {
  QCond c;
  c.op = QCond::Op::kIs;
  c.role = "Description";
  c.text = "w" + std::to_string(words_.At(Draw(stream)));
  return c;
}

QCond QueryGen::Priority(std::size_t stream, bool greater) {
  QCond c;
  c.op = greater ? QCond::Op::kGreater : QCond::Op::kLess;
  c.role = "Priority";
  c.number = static_cast<std::int64_t>(prio_.At(Draw(stream)));
  return c;
}

Query QueryGen::Next() {
  const seed::spades::Fig3Ids& ids = Spec().ids;
  int pick = static_cast<int>(Draw(0) * cumulative_.back());
  int t = static_cast<int>(
      std::upper_bound(cumulative_.begin(), cumulative_.end(), pick) -
      cumulative_.begin());
  Query q;
  q.templ = t;
  const std::size_t lit0 = 1 + 2 * static_cast<std::size_t>(t);
  const std::size_t lit1 = lit0 + 1;
  auto hop = [&q](AssociationId assoc, const char* name, int left_role,
                  bool reverse = false) {
    QHop h;
    h.assoc = assoc;
    h.assoc_name = name;
    h.left_role = left_role;
    h.reverse = reverse;
    q.hops.push_back(h);
  };
  switch (t) {
    case 0:
      q.binders.push_back(Bind(ids.data, "Data", "x"));
      q.binders[0].conds.push_back(Word(lit0));
      break;
    case 1:
    case 2:
      q.binders.push_back(Bind(ids.action, "Action", "x"));
      q.binders[0].conds.push_back(Priority(lit0, t == 1));
      break;
    case 3: {
      q.binders.push_back(Bind(ids.input_data, "InputData", "x"));
      QCond c;
      c.op = QCond::Op::kNameContains;
      c.text = "I" + std::to_string(names_.At(Draw(lit0)) + 1);
      q.binders[0].conds.push_back(c);
      break;
    }
    case 4: {
      q.kind = Query::Kind::kRelationships;
      q.assoc = ids.write;
      q.assoc_name = "Write";
      q.binders.push_back(QBinder{});
      QCond c;
      c.op = QCond::Op::kGreater;
      c.role = "NumberOfWrites";
      c.number = static_cast<std::int64_t>(nwrites_.At(Draw(lit0)));
      q.binders[0].conds.push_back(c);
      break;
    }
    case 5:
      q.binders.push_back(Bind(ids.action, "Action", "x"));
      q.binders[0].conds.push_back(Priority(lit0, false));
      q.binders[0].conds.push_back(Word(lit1));
      break;
    case 6:
      q.kind = Query::Kind::kChain;
      q.binders.push_back(Bind(ids.input_data, "InputData", "i"));
      q.binders.push_back(Bind(ids.action, "Action", "a"));
      hop(ids.read, "Read", 0);
      q.binders[0].conds.push_back(Word(lit0));
      break;
    case 7:
      q.kind = Query::Kind::kChain;
      q.binders.push_back(Bind(ids.input_data, "InputData", "i"));
      q.binders.push_back(Bind(ids.action, "Action", "a"));
      q.binders.push_back(Bind(ids.output_data, "OutputData", "o"));
      hop(ids.read, "Read", 0);
      hop(ids.write, "Write", 1);
      q.binders[0].conds.push_back(Word(lit0));
      q.binders[2].conds.push_back(Priority(lit1, true));
      break;
    case 8:
      // Up the Contained tree from the readers of every input, then down
      // to the siblings and what they write. The way up is functional;
      // the way down fans out, so the middle of the chain is wide.
      q.kind = Query::Kind::kChain;
      q.binders.push_back(Bind(ids.input_data, "InputData", "i"));
      q.binders.push_back(Bind(ids.action, "Action", "a"));
      q.binders.push_back(Bind(ids.action, "Action", "p"));
      q.binders.push_back(Bind(ids.action, "Action", "s"));
      q.binders.push_back(Bind(ids.action, "Action", "c"));
      q.binders.push_back(Bind(ids.output_data, "OutputData", "o"));
      hop(ids.read, "Read", 0);
      hop(ids.contained, "Contained", 0);
      hop(ids.contained, "Contained", 1, /*reverse=*/true);
      hop(ids.contained, "Contained", 1, /*reverse=*/true);
      hop(ids.write, "Write", 1);
      q.binders[5].conds.push_back(Priority(lit0, true));
      break;
    default:
      q.kind = Query::Kind::kChain;
      q.binders.push_back(Bind(ids.input_data, "InputData", "i"));
      q.binders.push_back(Bind(ids.action, "Action", "a"));
      q.binders.push_back(Bind(ids.action, "Action", "p"));
      q.binders.push_back(Bind(ids.action, "Action", "g"));
      q.binders.push_back(Bind(ids.action, "Action", "u"));
      q.binders.push_back(Bind(ids.action, "Action", "s"));
      q.binders.push_back(Bind(ids.output_data, "OutputData", "o"));
      hop(ids.read, "Read", 0);
      hop(ids.contained, "Contained", 0);
      hop(ids.contained, "Contained", 0);
      hop(ids.contained, "Contained", 1, /*reverse=*/true);
      hop(ids.contained, "Contained", 1, /*reverse=*/true);
      hop(ids.write, "Write", 1);
      q.binders[0].conds.push_back(Priority(lit0, true));
      q.binders[6].conds.push_back(Priority(lit1, true));
      break;
  }
  return q;
}

}  // namespace seedbench
