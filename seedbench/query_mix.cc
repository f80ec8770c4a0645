// query_mix: one read-only client in a closed loop over a prebuilt
// population of about 100k items of the Fig. 3 world.
//
// Why: parse, lower, optimize, execute, the indexes, the plan cache and
// the morsel executor do nearly all the work; storage, versions and
// multiuser do none. Short selects set read_p50_us and the long chains
// set read_p99_us, so a per-query-overhead change and an executor change
// show in different metrics.

#include <algorithm>
#include <cstdio>

#include "common.h"
#include "exec/exec_policy.h"
#include "obs/metrics.h"

namespace seedbench {

namespace {

constexpr int kSetupReps = 3;
constexpr long kDefaultItems = 100000;
constexpr int kWarmupQueries = 100;
// Every 17th query (from the 4th on), up to kMaxChecked, is re-run on the
// reference planner after the timed loop.
constexpr std::uint64_t kCheckEvery = 17;
constexpr std::size_t kMaxChecked = 400;
// Traced runs alternate untraced and traced blocks of this length, so
// both see the same mix and the difference is the tracing overhead.
constexpr std::uint64_t kTraceBlockNs = 250'000'000;

struct Checked {
  Query query;
  QueryResult result;
};

}  // namespace

void RunQueryMix(const Options& opts, Report* report) {
  const long items = opts.items > 0 ? opts.items : kDefaultItems;
  seed::exec::SetDefaultThreads(BenchThreads());

  // --- Set-up (timed apart from the loop, repeated, median reported) ---
  SpecWorld world;
  std::vector<double> setup_s, index_ms;
  // The traced run also traces set-up, where the attribute indexes
  // are built (the index layer's public calls).
  Tracer::Get().SetOn(opts.trace);
  const int reps = opts.setup_reps > 0 ? opts.setup_reps : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    world = SpecWorld{};  // free the previous population first
    std::uint64_t start = NowNs();
    world = BuildSpecWorld(items, opts.seed);
    std::uint64_t index_ns = CreateSpecIndexes(world.db.get(), report);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    index_ms.push_back(static_cast<double>(index_ns) / 1e6);
  }
  Tracer::Get().SetOn(false);
  const seed::core::Database& db = *world.db;
  report->Note("population: " + std::to_string(LiveItems(db)) +
               " live items, " + std::to_string(world.actions.size()) +
               " actions, exec lanes " + std::to_string(BenchThreads()));

  QueryGen gen(world.vocabulary, world.priorities, world.inputs.size(),
               QueryGen::Mix::kQueryMix, opts.seed * 0x51ED + 7);
  for (int i = 0; i < kWarmupQueries; ++i) {
    Query q = gen.Next();
    Fingerprint(&report->input_fingerprint, q.Text());
    ++report->attempted;
    if (!RunTextual(db, q, nullptr).status.ok()) ++report->failed;
  }

  // --- Timed closed loop ---
  const seed::obs::Counter* rows_visited =
      seed::obs::MetricsRegistry::Global().GetCounter(
          "query.rows.visited.total");
  Samples reads, joins;
  std::vector<Samples> by_template(QueryGen::kTemplates);
  std::vector<std::uint64_t> visited_by_template(QueryGen::kTemplates, 0);
  std::vector<Checked> checked;
  QueryLayerStats layers;
  std::uint64_t rows_returned = 0, queries = 0;
  Samples reads_in_block[2];
  const CounterSnapshot before = CounterSnapshot::Take();
  const std::uint64_t t0 = NowNs();
  const std::uint64_t deadline =
      t0 + static_cast<std::uint64_t>(opts.seconds * 1e9);
  std::uint64_t now = t0;
  while (opts.max_ops > 0 ? queries < static_cast<std::uint64_t>(opts.max_ops)
                          : now < deadline) {
    const bool traced = opts.trace && ((now - t0) / kTraceBlockNs) % 2 == 1;
    Tracer::Get().SetOn(traced);
    Query q = gen.Next();
    Fingerprint(&report->input_fingerprint, q.Text());
    seed::query::QueryTrace trace;
    const std::uint64_t visited0 = rows_visited->value();
    QueryResult r;
    std::uint64_t start, ns;
    {
      ScopedSpan span("query.run");
      start = NowNs();
      r = RunTextual(db, q, traced ? &trace : nullptr);
      ns = NowNs() - start;
      if (traced) layers.Add(trace, start, ns);
    }
    ++report->attempted;
    ++queries;
    if (!r.status.ok()) {
      ++report->failed;
      report->Fail("query failed: " + q.Text() + ": " + r.status.ToString());
    }
    rows_returned += r.rows;
    reads.Add(ns);
    if (q.kind == Query::Kind::kChain && q.hops.size() <= 2) joins.Add(ns);
    by_template[static_cast<std::size_t>(q.templ)].Add(ns);
    visited_by_template[static_cast<std::size_t>(q.templ)] +=
        rows_visited->value() - visited0;
    if (queries % kCheckEvery == 4 && checked.size() < kMaxChecked) {
      checked.push_back({q, r});
    }
    reads_in_block[traced].Add(ns);
    now = NowNs();
  }
  const double elapsed_s = static_cast<double>(now - t0) / 1e9;
  Tracer::Get().SetOn(false);
  const CounterSnapshot after = CounterSnapshot::Take();

  // --- Output check: reference planner, plan cache off, one thread ---
  std::size_t mismatches = 0;
  for (const Checked& c : checked) {
    QueryResult ref = RunReference(db, c.query);
    if (!ref.status.ok() || ref.rows != c.result.rows ||
        ref.digest != c.result.digest) {
      if (++mismatches <= 5) {
        report->Fail("result differs from the reference planner: " +
                     c.query.Text() + " (" + std::to_string(c.result.rows) +
                     " vs " + std::to_string(ref.rows) + " rows)");
      }
    }
  }
  if (checked.empty()) report->Fail("no query was sampled for checking");
  report->Note("checked " + std::to_string(checked.size()) +
               " sampled queries against the reference planner");

  // --- Metrics ---
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("ops_per_s", static_cast<double>(queries) / elapsed_s, "1/s");
  report->Metric("error_rate",
                 Per(static_cast<double>(report->failed), report->attempted),
                 "ratio");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  report->Metric("read_p50_us", reads.QuantileUs(0.5), "us");
  report->Metric("read_p99_us", reads.QuantileUs(0.99), "us");
  report->Metric("op_p50_us", joins.QuantileUs(0.5), "us");
  report->Metric("op_p90_us", joins.QuantileUs(0.9), "us");
  report->Note("op = a 1- or 2-hop join query; " +
               std::to_string(reads.size()) + " queries, " +
               std::to_string(joins.size()) + " joins");
  for (int t = 0; t < QueryGen::kTemplates; ++t) {
    const std::size_t i = static_cast<std::size_t>(t);
    const Samples& s = by_template[i];
    char line[200];
    std::snprintf(line, sizeof(line),
                  "template %-15s n=%-7zu p50=%10.1fus p99=%10.1fus "
                  "rows_visited/query=%.0f",
                  QueryGen::TemplateName(t), s.size(), s.QuantileUs(0.5),
                  s.QuantileUs(0.99),
                  Per(static_cast<double>(visited_by_template[i]), s.size()));
    report->Note(line);
  }

  report->Count("live_items", LiveItems(db));
  report->Count("queries", queries);
  report->Count("rows_returned", rows_returned);
  auto delta = [&](const char* counter) {
    return after.Delta(before, counter);
  };
  report->Count("rows_visited", delta("query.rows.visited.total"));
  report->Count("index_probes", delta("index.probes.total"));
  report->Count("index_range_scans", delta("index.range_scans.total"));
  report->Count("plan_cache_hits", delta("planner.cache.hits.total"));

  if (!opts.trace) return;
  layers.ReportTo(report, "read_p50_us on query_mix",
                  "read_p99_us on query_mix");
  ReportQueryCounters(report, before, after, queries, rows_returned,
                      "query_mix");
  report->Layer("index.build_ms", Median(index_ms), "ms",
                "setup_s on query_mix");
  ReportTraceOverhead(report, reads_in_block[0], reads_in_block[1],
                      "trace.overhead",
                      "read_p50_us on query_mix (traced vs untraced blocks)");
  ReportWholeDbPasses(report, TimeWholeDbPasses(world.db.get()),
                      "checkin_p50_us on checkin_cycle (passes timed on this "
                      "population)");
  ReportSpanTable(report);
}

}  // namespace seedbench
