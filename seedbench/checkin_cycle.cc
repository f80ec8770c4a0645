// checkin_cycle: two writer sessions and two reader sessions in closed
// loops, four threads on one in-process Server whose master holds about
// 5k items (Action roots with Description sub-objects).
//
// Why: the check-in path (lock stripes, apply, RebuildIndexes,
// AuditConsistency, Snapshot::Capture) does most of the work and the
// query path little. Snapshot reads run beside the commits, so a change
// that speeds check-in by holding locks longer or by slowing readers
// shows in read_p50_us / read_p99_us.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common.h"
#include "exec/exec_policy.h"
#include "multiuser/client.h"
#include "multiuser/server.h"
#include "version/snapshot.h"

namespace seedbench {

namespace {

using seed::ObjectId;
using seed::Status;
using seed::core::Value;

constexpr int kSetupReps = 40;
constexpr long kDefaultItems = 5000;
constexpr int kRefreshEvery = 8;
constexpr std::uint64_t kTraceBlockNs = 250'000'000;
constexpr int kProbeReps = 5;

std::string RootName(std::size_t i) { return "R" + std::to_string(i); }

struct Master {
  std::unique_ptr<seed::multiuser::Server> server;
  std::size_t roots = 0;
  std::size_t vocabulary = 0;
};

Master BuildMaster(long items, std::uint64_t seed, Report* report) {
  const SpecSchema& spec = Spec();
  Master m;
  m.server = std::make_unique<seed::multiuser::Server>(spec.schema);
  m.roots = static_cast<std::size_t>(std::max<long>(items / 2, 8));
  m.vocabulary = std::max<std::size_t>(32, m.roots / 8);
  seed::core::Database* db = m.server->master();
  Rng rng(seed * 0xC0FFEE + 3);
  Zipf words(m.vocabulary, 1.0);
  for (std::size_t i = 0; i < m.roots; ++i) {
    std::string word = "w" + std::to_string(words.Sample(rng));
    auto a = db->CreateObject(spec.ids.action, RootName(i));
    auto d = a.ok() ? db->CreateSubObject(*a, "Description") : a;
    Status st = d.ok() ? db->SetValue(*d, Value::String(word)) : d.status();
    if (!st.ok()) {
      report->Fail("master set-up: " + st.ToString());
      return m;
    }
  }
  seed::index::IndexSpec index;
  index.cls = spec.ids.action;
  index.role = "Description";
  Status st;
  {
    ScopedSpan span("index.create_attribute_index");
    st = db->CreateAttributeIndex(index);
  }
  if (!st.ok()) report->Fail("CreateAttributeIndex: " + st.ToString());
  db->ClearChangeTracking();
  m.server->PublishSnapshot();
  return m;
}

/// What one thread did; merged by the main thread after join.
struct ThreadResult {
  Samples reads, writes, checkins, opens, checkouts, refreshes;
  /// Reads split by untraced [0] / traced [1] block.
  Samples reads_in_block[2];
  QueryLayerStats query_layers;
  std::uint64_t attempted = 0, failed = 0, cycles = 0;
  std::uint64_t rows_returned = 0;
  std::vector<std::string> errors;
  /// (root index, Description value) of every committed edit, in commit
  /// order.
  std::vector<std::pair<std::size_t, std::string>> committed;
};

void Note(ThreadResult* r, const std::string& what, const Status& st) {
  ++r->failed;
  if (r->errors.size() < 5) r->errors.push_back(what + ": " + st.ToString());
}

template <typename F>
Status Timed(Samples* samples, const char* span_name, F&& call) {
  ScopedSpan span(span_name);
  std::uint64_t start = NowNs();
  Status st = call();
  samples->Add(NowNs() - start);
  return st;
}

void WriterLoop(seed::multiuser::Server* server, const Master& m, int w,
                int writers, std::uint64_t seed, long max_cycles,
                const std::atomic<bool>* stop, ThreadResult* r) {
  Rng rng(seed * 1000 + 17 + static_cast<std::uint64_t>(w));
  Zipf words(m.vocabulary, 1.0);
  // This writer's disjoint slice: roots i with i % writers == w.
  const std::size_t stride = static_cast<std::size_t>(writers);
  const std::size_t slice =
      (m.roots - static_cast<std::size_t>(w) + stride - 1) / stride;
  while (!stop->load(std::memory_order_relaxed) &&
         (max_cycles == 0 || static_cast<long>(r->cycles) < max_cycles)) {
    ScopedSpan cycle_span("multiuser.cycle");
    std::unique_ptr<seed::multiuser::ClientSession> session;
    ++r->attempted;
    Status st = Timed(&r->opens, "multiuser.open", [&] {
      auto s = seed::multiuser::ClientSession::Open(
          server, "writer-" + std::to_string(w));
      if (s.ok()) session = std::move(*s);
      return s.status();
    });
    if (!st.ok()) {
      Note(r, "Open", st);
      continue;
    }
    std::vector<std::size_t> picked;
    std::size_t n_roots = 1 + rng.Uniform(2);
    for (std::size_t k = 0; k < n_roots; ++k) {
      std::size_t i = static_cast<std::size_t>(w) +
                      stride * static_cast<std::size_t>(rng.Uniform(slice));
      if (std::find(picked.begin(), picked.end(), i) == picked.end()) {
        picked.push_back(i);
      }
    }
    std::vector<std::string> names;
    for (std::size_t i : picked) names.push_back(RootName(i));
    ++r->attempted;
    st = Timed(&r->checkouts, "multiuser.checkout",
               [&] { return session->CheckoutByName(names); });
    if (!st.ok()) {
      Note(r, "CheckoutByName", st);
      continue;
    }
    seed::core::Database* local = session->local();
    std::vector<std::pair<std::size_t, std::string>> pending;
    int edits = 1 + static_cast<int>(rng.Uniform(3));
    for (int e = 0; e < edits; ++e) {
      std::size_t which = rng.Uniform(picked.size());
      auto root = local->FindObjectByName(names[which]);
      std::vector<ObjectId> desc =
          root.ok() ? local->SubObjects(*root, "Description")
                    : std::vector<ObjectId>{};
      if (desc.empty()) {
        Note(r, "FindObjectByName", Status::NotFound(names[which]));
        continue;
      }
      std::string word = "w" + std::to_string(words.Sample(rng));
      ++r->attempted;
      st = Timed(&r->writes, "core.set_value", [&] {
        return local->SetValue(desc[0], Value::String(word));
      });
      if (!st.ok()) {
        Note(r, "SetValue", st);
        continue;
      }
      pending.emplace_back(picked[which], word);
    }
    // Sometimes a new sub-object: a Revised date on a root without one
    // (rare, so the master grows by a few percent per run at most).
    auto first = local->FindObjectByName(names[0]);
    if (rng.Chance(0.1) && first.ok() &&
        local->SubObjects(*first, "Revised").empty()) {
      ObjectId revised;
      ++r->attempted;
      st = Timed(&r->writes, "core.create_object", [&] {
        auto sub = local->CreateSubObject(*first, "Revised");
        if (sub.ok()) revised = *sub;
        return sub.status();
      });
      auto date = seed::schema::Date::Make(
          2026, static_cast<std::uint8_t>(1 + rng.Uniform(12)),
          static_cast<std::uint8_t>(1 + rng.Uniform(28)));
      if (st.ok() && date.ok()) {
        ++r->attempted;
        st = Timed(&r->writes, "core.set_value", [&] {
          return local->SetValue(revised, Value::OfDate(*date));
        });
      }
      if (!st.ok()) Note(r, "Revised", st);
    }
    ++r->attempted;
    st = Timed(&r->checkins, "multiuser.checkin",
               [&] { return session->Checkin(); });
    if (!st.ok()) {
      Note(r, "Checkin", st);
      (void)session->Abandon();
      continue;
    }
    ++r->cycles;
    for (auto& p : pending) r->committed.push_back(std::move(p));
  }
}

void ReaderLoop(seed::multiuser::Server* server, const Master& m, int id,
                std::uint64_t seed, long max_reads,
                const std::atomic<bool>* stop, ThreadResult* r) {
  Rng rng(seed * 1000 + 71 + static_cast<std::uint64_t>(id));
  Zipf words(m.vocabulary, 1.0);
  Zipf names(std::max<std::size_t>(m.roots / 10, 1), 0.8);
  auto session = seed::multiuser::ClientSession::Open(
      server, "reader-" + std::to_string(id));
  ++r->attempted;
  if (!session.ok()) {
    Note(r, "Open", session.status());
    return;
  }
  const seed::ClientId client = (*session)->id();
  std::uint64_t reads = 0;
  while (!stop->load(std::memory_order_relaxed) &&
         (max_reads == 0 || static_cast<long>(reads) < max_reads)) {
    const bool traced = Tracer::Get().on();
    if (reads > 0 && reads % kRefreshEvery == 0) {
      ++r->attempted;
      Status st = Timed(&r->refreshes, "multiuser.refresh",
                        [&] { return (*session)->Refresh(); });
      if (!st.ok()) Note(r, "Refresh", st);
    }
    // Short selects only, both below min_parallel_rows: 49 in 50 are
    // equality probes of the Description index and set read_p50_us; one
    // in 50 is a name scan of the roots, so read_p99_us falls in the body
    // of the scans rather than in the preemption tail of the probes.
    std::string text =
        rng.Chance(0.98)
            ? "find Action where Description is \"w" +
                  std::to_string(words.Sample(rng)) + "\""
            : "find Action where name contains \"R" +
                  std::to_string(names.Sample(rng) + 1) + "\"";
    seed::query::QueryTrace trace;
    ++r->attempted;
    {
      ScopedSpan span("multiuser.query");
      std::uint64_t start = NowNs();
      auto res =
          server->Query(client, text, nullptr, traced ? &trace : nullptr);
      std::uint64_t ns = NowNs() - start;
      r->reads.Add(ns);
      r->reads_in_block[traced].Add(ns);
      if (traced) r->query_layers.Add(trace, start, ns);
      if (res.ok()) {
        r->rows_returned += res->size();
      } else {
        Note(r, "Query", res.status());
      }
    }
    ++reads;
  }
}

}  // namespace

void RunCheckinCycle(const Options& opts, Report* report) {
  const long items = opts.items > 0 ? opts.items : kDefaultItems;
  seed::exec::SetDefaultThreads(BenchThreads());

  Master m;
  std::vector<double> setup_s;
  // The traced run also traces set-up, where the attribute indexes
  // are built (the index layer's public calls).
  Tracer::Get().SetOn(opts.trace);
  const int reps = opts.setup_reps > 0 ? opts.setup_reps : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    m = Master{};
    std::uint64_t start = NowNs();
    m = BuildMaster(items, opts.seed, report);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  Tracer::Get().SetOn(false);
  if (!report->correct()) return;
  seed::multiuser::Server* server = m.server.get();
  for (std::size_t i = 0; i < m.roots; ++i) {
    Fingerprint(&report->input_fingerprint, RootName(i));
  }
  for (const auto& [id, obj] : server->master()->objects_raw()) {
    if (obj.value.is_string()) {
      Fingerprint(&report->input_fingerprint, obj.value.as_string());
    }
  }
  report->Note("master: " + std::to_string(LiveItems(*server->master())) +
               " live items, " + std::to_string(m.roots) + " roots; " +
               std::to_string(opts.writers) + " writers, " +
               std::to_string(opts.readers) + " readers");

  const CounterSnapshot before = CounterSnapshot::Take();
  const std::uint64_t publishes0 =
      CounterValue("server.snapshot.publishes.total");
  std::atomic<bool> stop{false};
  const int writers = std::max(opts.writers, 1);
  const int readers = std::max(opts.readers, 0);
  std::vector<ThreadResult> results(
      static_cast<std::size_t>(writers + readers));
  std::vector<std::thread> threads;
  // With --max-ops the writers stop after that many cycles in total and
  // the readers after eight times as many reads.
  const long max_cycles = opts.max_ops > 0 ? opts.max_ops / writers : 0;
  const long max_reads =
      opts.max_ops > 0 ? opts.max_ops * 8 / std::max(readers, 1) : 0;
  const std::uint64_t t0 = NowNs();
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back(WriterLoop, server, std::cref(m), w, writers,
                         opts.seed, max_cycles, &stop,
                         &results[static_cast<std::size_t>(w)]);
  }
  for (int rd = 0; rd < readers; ++rd) {
    threads.emplace_back(ReaderLoop, server, std::cref(m), rd, opts.seed,
                         max_reads, &stop,
                         &results[static_cast<std::size_t>(writers + rd)]);
  }
  std::uint64_t now = t0;
  const std::uint64_t deadline =
      t0 + static_cast<std::uint64_t>(opts.seconds * 1e9);
  auto finished = [&] {
    if (opts.max_ops == 0) return now >= deadline;
    std::uint64_t cycles = 0;
    for (int w = 0; w < writers; ++w) {
      cycles += results[static_cast<std::size_t>(w)].cycles;
    }
    return cycles >= static_cast<std::uint64_t>(max_cycles * writers);
  };
  while (!finished()) {
    const bool traced = opts.trace && ((now - t0) / kTraceBlockNs) % 2 == 1;
    Tracer::Get().SetOn(traced);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    now = NowNs();
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const double elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
  Tracer::Get().SetOn(false);
  const CounterSnapshot after = CounterSnapshot::Take();
  const std::uint64_t publishes =
      CounterValue("server.snapshot.publishes.total") - publishes0;

  ThreadResult all;
  std::map<std::size_t, std::string> last_committed;
  Samples reads_in_block[2];
  std::uint64_t reads_returned = 0;
  for (ThreadResult& r : results) {
    reads_returned += r.rows_returned;
    all.reads.Append(r.reads);
    all.writes.Append(r.writes);
    all.checkins.Append(r.checkins);
    all.opens.Append(r.opens);
    all.checkouts.Append(r.checkouts);
    all.refreshes.Append(r.refreshes);
    all.cycles += r.cycles;
    report->attempted += r.attempted;
    report->failed += r.failed;
    for (int b = 0; b < 2; ++b) reads_in_block[b].Append(r.reads_in_block[b]);
    for (const std::string& e : r.errors) report->Fail(e);
    // Slices are disjoint, so each root's last commit is its writer's.
    for (const auto& [root, value] : r.committed) last_committed[root] = value;
  }

  // --- Output checks ---
  const seed::core::Database& master = *server->master();
  seed::core::Report audit = master.AuditConsistency();
  if (!audit.clean()) {
    report->Fail("master audit after the run: " + audit.ToString());
  }
  if (server->checkins_applied() != all.cycles) {
    report->Fail("checkins_applied " +
                 std::to_string(server->checkins_applied()) +
                 " != successful check-ins " + std::to_string(all.cycles));
  }
  std::size_t wrong = 0;
  for (const auto& [root, value] : last_committed) {
    auto id = master.FindObjectByName(RootName(root));
    std::vector<ObjectId> desc = id.ok()
                                     ? master.SubObjects(*id, "Description")
                                     : std::vector<ObjectId>{};
    auto obj = desc.empty() ? seed::Result<const seed::core::ObjectItem*>(
                                  Status::NotFound("Description"))
                            : master.GetObject(desc[0]);
    if (!obj.ok() || !(*obj)->value.is_string() ||
        (*obj)->value.as_string() != value) {
      if (++wrong <= 3) {
        report->Fail("root " + RootName(root) +
                     " does not hold its last committed value " + value);
      }
    }
  }
  report->Note("checked " + std::to_string(last_committed.size()) +
               " edited roots against their last committed values");

  report->Count("live_items", LiveItems(master));
  report->Count("checkins", all.cycles);

  // --- Metrics ---
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("ops_per_s", static_cast<double>(all.cycles) / elapsed_s,
                 "1/s");
  report->Metric("error_rate",
                 Per(static_cast<double>(report->failed +
                                         server->lock_conflicts()),
                     report->attempted),
                 "ratio");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  report->Metric("read_p50_us", all.reads.QuantileUs(0.5), "us");
  report->Metric("read_p99_us", all.reads.QuantileUs(0.99), "us");
  report->Metric("op_p50_us", all.checkins.QuantileUs(0.5), "us");
  report->Metric("op_p90_us", all.checkins.QuantileUs(0.9), "us");
  report->Metric("checkin_p50_us", all.checkins.QuantileUs(0.5), "us");
  report->Metric("checkin_p90_us", all.checkins.QuantileUs(0.9), "us");
  report->Metric("write_p50_us", all.writes.QuantileUs(0.5), "us");
  report->Metric("write_p99_us", all.writes.QuantileUs(0.99), "us");
  {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "reads p50=%.1f p90=%.1f p95=%.1f p99=%.1f p99.9=%.1f us",
                  all.reads.QuantileUs(0.5), all.reads.QuantileUs(0.9),
                  all.reads.QuantileUs(0.95), all.reads.QuantileUs(0.99),
                  all.reads.QuantileUs(0.999));
    report->Note(line);
  }
  report->Note("ops = check-ins (writer cycles); op = one "
               "ClientSession::Checkin; " +
               std::to_string(all.checkins.size()) + " check-ins, " +
               std::to_string(all.reads.size()) + " reads, " +
               std::to_string(all.writes.size()) + " local writes");

  if (!opts.trace) return;
  const std::string to_checkin = "checkin_p50_us on checkin_cycle";
  report->Layer("multiuser.session_open_us", all.opens.MeanUs(), "us",
                "ops_per_s on checkin_cycle");
  report->Layer("multiuser.checkout_us", all.checkouts.MeanUs(), "us",
                "ops_per_s on checkin_cycle");
  report->Layer("multiuser.refresh_us", all.refreshes.MeanUs(), "us",
                "read_p50_us on checkin_cycle");
  report->Layer("multiuser.lock_conflicts",
                static_cast<double>(server->lock_conflicts()), "count",
                "error_rate on checkin_cycle");
  report->Layer("multiuser.checkins_rejected",
                static_cast<double>(server->checkins_rejected()), "count",
                "error_rate on checkin_cycle");
  report->Layer("version.publishes_per_commit",
                Per(static_cast<double>(publishes),
                    after.Delta(before, "multiuser.checkins.applied.total")),
                "ratio", to_checkin);

  // Whole-database passes of a check-in, timed as public calls on the
  // quiescent master after the last cycle, single-threaded.
  const PassTimes passes = TimeWholeDbPasses(server->master());
  ReportWholeDbPasses(report, passes, to_checkin);
  report->Layer("multiuser.checkin_unattributed_us",
                all.checkins.QuantileUs(0.5) - passes.sum(), "us", to_checkin);
  report->Layer("multiuser.checkin_passes_share",
                all.checkins.QuantileUs(0.5) > 0
                    ? passes.sum() / all.checkins.QuantileUs(0.5)
                    : 0.0,
                "ratio", to_checkin);

  QueryLayerStats q;
  for (const ThreadResult& r : results) q.Merge(r.query_layers);
  q.ReportTo(report, "read_p50_us on checkin_cycle",
             "read_p99_us on checkin_cycle");
  ReportQueryCounters(report, before, after, all.reads.size(),
                      reads_returned, "checkin_cycle");
  ReportTraceOverhead(
      report, reads_in_block[0], reads_in_block[1], "trace.overhead",
      "read_p50_us on checkin_cycle (traced vs untraced blocks)");
  ReportSpanTable(report);
}

}  // namespace seedbench
