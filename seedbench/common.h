// Shared pieces of the SEED benchmark driver: options, the seeded input
// generators, latency samples, the span tracer, registry counter diffs,
// the Fig. 3 specification world that query_mix and edit_persist share,
// and the report every workload fills in.
//
// The benchmark talks to the engine only through its public API. Every
// input (names, values, query literals, edit streams) is drawn from the
// workload seed by the generators here; the engine never sees the seed.

#ifndef SEEDBENCH_COMMON_H_
#define SEEDBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/database.h"
#include "query/logical.h"
#include "query/parser.h"
#include "schema/schema.h"
#include "spades/spec_schema.h"

namespace seedbench {

// --- Options -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Population size override (scale sweep); 0 keeps the workload default.
  long items = 0;
  /// Stop after this many operations instead of after `seconds`
  /// (repeatability tests: two runs then do identical work).
  long max_ops = 0;
  /// checkin_cycle's writer and reader sessions (the scale sweep also
  /// times a lone writer).
  int writers = 2;
  int readers = 2;
  /// How many times set-up runs (setup_s is the median); 0 = the
  /// workload's default.
  int setup_reps = 0;
  /// Scratch directory for stores (inside the checkout).
  std::string work_dir = ".bench_build/work";
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_path;
};

/// Lanes the engine may use: at most 4, and never more than the machine
/// has, so the workloads run the same on every host of that size or more.
int BenchThreads();

// --- Seeded inputs -----------------------------------------------------------

/// xoshiro256** seeded through SplitMix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t Next();
  /// Uniform in [0, n).
  std::uint64_t Uniform(std::uint64_t n) { return Next() % n; }
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  std::uint64_t s_[4];
};

/// Zipf(s) over ranks [0, n): rank 0 is the most frequent.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t Sample(Rng& rng) const;
  /// The rank at cumulative probability `u` in [0, 1).
  std::size_t At(double u) const;

 private:
  std::vector<double> cdf_;
};

// --- Timing ------------------------------------------------------------------

std::uint64_t NowNs();

/// Latency samples in nanoseconds; quantiles are exact (nearest rank).
class Samples {
 public:
  void Add(std::uint64_t ns) { ns_.push_back(ns); }
  void Append(const Samples& other);
  std::size_t size() const { return ns_.size(); }
  double QuantileUs(double q) const;
  double MeanUs() const;

 private:
  std::vector<std::uint64_t> ns_;
};

/// Median of a small set of values (setup repetitions, probe calls).
double Median(std::vector<double> v);

/// `total` per one of `count` (0 when nothing was counted).
double Per(double total, std::uint64_t count);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

// --- Tracing -----------------------------------------------------------------

/// In-memory span recorder. Spans (name, start, end, parent) are kept per
/// thread and written out when the run ends. When the tracer is off
/// (the untraced run, or an untraced block of the traced run) a
/// ScopedSpan costs one relaxed load.
class Tracer {
 public:
  static Tracer& Get();

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void SetOn(bool on) { on_.store(on, std::memory_order_relaxed); }

  /// Opens a span under the thread's innermost open span; returns its
  /// handle for End().
  int Begin(const char* name);
  void End(int handle);
  /// Records a finished span under `parent` (a handle from Begin or
  /// AddChild; -1 = the thread's innermost open span) and returns its
  /// handle.
  int AddChild(const char* name, std::uint64_t start, std::uint64_t end,
               int parent = -1);

  /// Per span name: calls, inclusive and self time (inclusive minus the
  /// time its direct children cover).
  struct NameStats {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  std::map<std::string, NameStats> Aggregate() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    int parent = -1;
  };
  struct ThreadLog {
    int thread = 0;
    std::vector<Span> spans;
    std::vector<int> open;
  };
  ThreadLog& Local();

  std::atomic<bool> on_{false};
  mutable std::mutex mu_;  // guards logs_
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span around one call into an engine layer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : handle_(Tracer::Get().on() ? Tracer::Get().Begin(name) : -1) {}
  ~ScopedSpan() {
    if (handle_ >= 0) Tracer::Get().End(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int handle_;
};

// --- Engine counters ---------------------------------------------------------

/// Current value of a registry counter (0 if it was never registered).
std::uint64_t CounterValue(std::string_view name);

/// A snapshot of the registry counters the per-layer metrics read.
class CounterSnapshot {
 public:
  static CounterSnapshot Take();
  /// this - earlier, per counter.
  std::uint64_t Delta(const CounterSnapshot& earlier,
                      std::string_view name) const;

 private:
  std::map<std::string, std::uint64_t, std::less<>> values_;
};

// --- Report ------------------------------------------------------------------

/// Everything one run measured. Metrics are stored by name; per-layer
/// metrics also carry the end-to-end metric and workload they should
/// move. Print writes the human-readable table and the JSON line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit,
             const std::string& moves);
  /// A failed output check: recorded, printed, and it fails the run.
  void Fail(const std::string& what);
  void Note(const std::string& line) { notes_.push_back(line); }
  /// Exact counts that must repeat for a given seed (single-client
  /// workloads only).
  void Count(const std::string& name, std::uint64_t value) {
    counts_[name] = value;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Hash of the generated inputs: equal seeds give equal fingerprints.
  std::uint64_t input_fingerprint = 0;

  bool correct() const { return failures_.empty(); }
  void Print(const Options& opts) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string moves;
  };
  std::vector<Entry> metrics_;
  std::vector<Entry> layers_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
  std::map<std::string, std::uint64_t> counts_;
};

/// Mixes `value` into a running FNV-1a style fingerprint.
void Fingerprint(std::uint64_t* fp, std::string_view value);

/// Adds the span table of the traced run to the report's notes: per
/// layer, calls and self time; per span name, mean and mean self time.
void ReportSpanTable(Report* report);

// --- The Fig. 3 specification world ---------------------------------------

/// The paper's Fig. 3 schema plus one integer attribute, `Thing.Priority`,
/// so object-side range predicates have an ordered key to use.
struct SpecSchema {
  seed::schema::SchemaPtr schema;
  seed::spades::Fig3Ids ids;
};
const SpecSchema& Spec();

/// The attribute indexes query_mix reads and edit_persist maintains:
/// `Data.Description` (equality, hash postings), `Action.Priority`
/// (ranges, ordered postings) and `Write.NumberOfWrites` (relationship
/// side). Returns the wall time spent building them, in ns.
std::uint64_t CreateSpecIndexes(seed::core::Database* db, Report* report);

/// A seeded population of roughly `items` items: Actions, InputData and
/// OutputData with Zipf-skewed Description words and Priority values,
/// Zipf-skewed Read/Write degrees onto hub data, Write.NumberOfWrites,
/// and a Contained tree over the Actions.
struct SpecWorld {
  std::unique_ptr<seed::core::Database> db;
  std::vector<seed::ObjectId> actions, inputs, outputs;
  std::size_t vocabulary = 0;
  std::size_t priorities = 0;
};
SpecWorld BuildSpecWorld(long items, std::uint64_t seed);

/// Counts every live item (objects + relationships).
std::size_t LiveItems(const seed::core::Database& db);

// --- Queries -----------------------------------------------------------------

/// A generated textual query as a small AST, so one query can be run
/// through the textual entry points and, for the output check, lowered
/// directly into a LogicalChain for a reference planner.
struct QCond {
  enum class Op { kIs, kGreater, kLess, kNameContains };
  Op op = Op::kIs;
  std::string role;  // sub-object role; empty for name conditions
  std::string text;
  std::int64_t number = 0;
};
struct QBinder {
  seed::ClassId cls;
  std::string cls_name;
  std::string name;
  std::vector<QCond> conds;
};
struct QHop {
  seed::AssociationId assoc;
  std::string assoc_name;
  int left_role = 0;
  bool reverse = false;
};
struct Query {
  enum class Kind { kSelect, kRelationships, kChain };
  Kind kind = Kind::kSelect;
  /// Generator template, for per-template latency breakdowns.
  int templ = 0;
  std::vector<QBinder> binders;
  std::vector<QHop> hops;
  /// Relationship form: the association and its attribute conditions.
  seed::AssociationId assoc;
  std::string assoc_name;

  std::string Text() const;
  seed::query::LogicalChain Chain() const;
};

/// One query's answer, comparable across execution paths.
struct QueryResult {
  seed::Status status;
  std::size_t rows = 0;
  std::uint64_t digest = 0;
};

/// Runs `q` through the textual entry point that matches its shape (the
/// production path: parser, plan cache, default exec policy).
QueryResult RunTextual(const seed::core::Database& db, const Query& q,
                       seed::query::QueryTrace* trace);
/// Runs `q` on a fresh Planner with the plan cache off and one thread.
QueryResult RunReference(const seed::core::Database& db, const Query& q);

/// Seeded textual queries. Literals are Zipf-drawn, so query shapes
/// repeat while literals vary. Templates and literals are drawn from
/// golden-ratio sequences started at seeded offsets rather than
/// independently: every stretch of the stream then holds each template
/// and each part of each literal distribution in its share, so the mix
/// of cheap and expensive queries is the same in every run.
///
/// kQueryMix weights (percent): equality on the hash-indexed
/// Data.Description 29; ranges on the ordered Action.Priority 20 (wide
/// when the skewed bound is small); name scans 10; `find rel` ranges on
/// Write.NumberOfWrites 8; index probe plus residual 6; 1-hop joins 15;
/// 2-hop joins 9; 5-hop chains 2; 6-hop chains 1. kLookups: only the
/// Description equality, the look-ups a tool session makes between
/// edits.
class QueryGen {
 public:
  enum class Mix { kQueryMix, kLookups };
  QueryGen(std::size_t vocabulary, std::size_t priorities,
           std::size_t inputs, Mix mix, std::uint64_t seed);
  Query Next();
  static constexpr int kTemplates = 10;
  static const char* TemplateName(int templ);

 private:
  QBinder Bind(seed::ClassId cls, const char* cls_name,
               const char* name) const;
  /// Next point of the low-discrepancy sequence `stream`.
  double Draw(std::size_t stream);
  QCond Word(std::size_t stream);
  QCond Priority(std::size_t stream, bool greater);

  Zipf words_, prio_, names_, nwrites_;
  std::vector<int> cumulative_;
  /// Stream 0 picks templates; stream 1 + 2 * t + k is literal k of
  /// template t.
  std::vector<double> streams_;
};

/// Per-query trace bookkeeping shared by the workloads that query.
struct QueryLayerStats {
  Samples parse, lower, optimize, execute, total;
  std::uint64_t scan_ns = 0, index_ns = 0, hash_join_ns = 0, inl_join_ns = 0,
                tuple_join_ns = 0;
  std::uint64_t traced = 0;
  /// Folds one traced query: phase spans become children of the
  /// query's span, operator self times accumulate by kind.
  void Add(const seed::query::QueryTrace& trace, std::uint64_t start_ns,
           std::uint64_t total_ns);
  /// Folds another thread's stats into these.
  void Merge(const QueryLayerStats& other);
  /// Adds the query.* / exec.* per-layer metrics.
  void ReportTo(Report* report, const std::string& moves_p50,
                const std::string& moves_p99) const;
};

/// Counter-derived query and index metrics over `queries` queries.
void ReportQueryCounters(Report* report, const CounterSnapshot& before,
                         const CounterSnapshot& after, std::uint64_t queries,
                         std::uint64_t rows_returned,
                         const std::string& workload);

/// Tracing overhead: the p50 latency of the same operations in traced
/// blocks over untraced blocks of the traced run, minus one.
void ReportTraceOverhead(Report* report, const Samples& untraced,
                         const Samples& traced, const std::string& name,
                         const std::string& moves);

/// The three whole-database passes a check-in makes (RebuildIndexes,
/// AuditConsistency, Snapshot::Capture), timed as public calls on the
/// quiescent `db`, single-threaded, median of up to five calls each.
struct PassTimes {
  double rebuild_us = 0, audit_us = 0, capture_us = 0;
  double sum() const { return rebuild_us + audit_us + capture_us; }
};
PassTimes TimeWholeDbPasses(seed::core::Database* db);
void ReportWholeDbPasses(Report* report, const PassTimes& t,
                         const std::string& moves);

// --- Workloads ---------------------------------------------------------------

void RunQueryMix(const Options& opts, Report* report);
void RunCheckinCycle(const Options& opts, Report* report);
void RunEditPersist(const Options& opts, Report* report);

}  // namespace seedbench

#endif  // SEEDBENCH_COMMON_H_
