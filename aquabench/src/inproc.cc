// In-process runner: file-to-answer and count-distribution.
//
// Calls the program's public functions in the order aqua_cli does:
// Csv::ReadFile, PMappingText::ReadSchemaFile, SqlParser::Parse,
// Reformulator::BindAll, Engine::Answer*, cli::AnswerToJson.

#include <cstdio>
#include <map>
#include <memory>

#include "aqua/mapping/serialize.h"
#include "aqua/obs/trace.h"
#include "aqua/query/parser.h"
#include "aqua/reformulate/reformulator.h"
#include "aqua/storage/csv.h"
#include "bench.h"
#include "cli_support.h"

namespace aquabench {
namespace {

/// Span names of the engine call, one per cell kind so the trace tells
/// the layer metrics apart.
const char* AnswerSpanName(Cell cell) {
  switch (cell) {
    case Cell::kScan: return "core.Engine::Answer scan";
    case Cell::kMinMaxDist: return "core.Engine::Answer minmax-distribution";
    case Cell::kCountUncertain:
      return "core.Engine::Answer count-distribution uncertain";
    case Cell::kCountCertain:
      return "core.Engine::Answer count-distribution certain";
    case Cell::kGrouped: return "core.Engine::AnswerGrouped";
    case Cell::kNested: return "core.Engine::AnswerNested";
  }
  return "core.Engine::Answer";
}

double Us(Clock::time_point a, Clock::time_point b) {
  return SecondsBetween(a, b) * 1e6;
}

}  // namespace

std::string LoadSource(const std::string& csv, const std::string& spec,
                       const std::string& mapping_path,
                       const aqua::PMapping& in_memory, LoadedSource* out,
                       LayerTimes* times, std::string* mapping_error) {
  const auto schema = aqua::cli::ParseSchemaSpec(spec);
  if (!schema.ok()) return "schema: " + schema.status().ToString();
  const double rss_before = CurrentRssMb();
  const auto t0 = Clock::now();
  {
    aqua::obs::TraceSpan span("storage.Csv::ReadFile");
    auto table = aqua::Csv::ReadFile(csv, *schema);
    if (!table.ok()) return "data: " + table.status().ToString();
    out->table = std::make_unique<aqua::Table>(std::move(table).value());
  }
  const auto t1 = Clock::now();
  const double rss_after = CurrentRssMb();
  {
    aqua::obs::TraceSpan span("mapping.PMappingText::ReadSchemaFile");
    auto mapping = aqua::PMappingText::ReadSchemaFile(mapping_path);
    mapping_error->clear();
    if (!mapping.ok()) {
      *mapping_error = mapping.status().ToString();
    } else if (mapping->size() != 1) {
      *mapping_error = "expected one pmapping block";
    }
    // A rejected load falls back to the p-mapping the file was written
    // from, so the queries still run.
    out->pmapping = mapping_error->empty() ? mapping->mapping(0) : in_memory;
  }
  const auto t2 = Clock::now();
  if (times != nullptr) {
    times->csv_read_s.push_back(SecondsBetween(t0, t1));
    times->table_rss_mb.push_back(rss_after - rss_before);
    times->mapping_read_ms.push_back(SecondsBetween(t1, t2) * 1e3);
  }
  return "";
}

OpOutcome ExecInProcess(const Op& op, const LoadedSource& source,
                        const aqua::Engine& engine,
                        const std::vector<double>& ref, LayerTimes* times) {
  OpOutcome out;
  const auto t0 = Clock::now();
  aqua::Result<aqua::ParsedQuery> parsed = [&] {
    aqua::obs::TraceSpan span("query.SqlParser::Parse");
    return aqua::SqlParser::Parse(op.sql);
  }();
  const auto t1 = Clock::now();
  if (!parsed.ok()) {
    out.error = "parse: " + parsed.status().ToString();
    return out;
  }
  const bool nested = parsed->kind == aqua::ParsedQuery::Kind::kNested;
  const aqua::AggregateQuery& bound_query =
      nested ? parsed->nested.inner : parsed->simple;
  {
    aqua::obs::TraceSpan span("reformulate.Reformulator::BindAll");
    const auto bindings = aqua::Reformulator::BindAll(
        bound_query, source.pmapping, *source.table);
    if (!bindings.ok()) {
      out.error = "bind: " + bindings.status().ToString();
      return out;
    }
  }
  const auto t2 = Clock::now();
  const bool grouped = !nested && !parsed->simple.group_by.empty();
  aqua::Result<aqua::AggregateAnswer> answer = aqua::AggregateAnswer{};
  aqua::Result<std::vector<aqua::GroupedAnswer>> groups =
      std::vector<aqua::GroupedAnswer>{};
  {
    aqua::obs::TraceSpan span(AnswerSpanName(op.cell));
    if (nested) {
      answer = engine.AnswerNested(parsed->nested, source.pmapping,
                                   *source.table, op.mapping, op.answer);
    } else if (grouped) {
      groups = engine.AnswerGrouped(parsed->simple, source.pmapping,
                                    *source.table, op.mapping, op.answer);
    } else {
      answer = engine.Answer(parsed->simple, source.pmapping, *source.table,
                             op.mapping, op.answer);
    }
  }
  const auto t3 = Clock::now();
  if (!answer.ok() || !groups.ok()) {
    out.error = "answer: " + (answer.ok() ? groups.status().ToString()
                                          : answer.status().ToString());
    return out;
  }
  std::string rendered;
  {
    aqua::obs::TraceSpan span("cli.AnswerToJson");
    rendered = grouped ? aqua::cli::GroupedToJson(*groups)
                       : aqua::cli::AnswerToJson(*answer);
  }
  const auto t4 = Clock::now();
  out.ok = true;
  out.latency_s = SecondsBetween(t0, t4);
  // The embedded stats objects carry timings, whose digits vary from run
  // to run; the count leaves them out so that it repeats exactly.
  size_t stats_bytes = 0;
  if (grouped) {
    for (const aqua::GroupedAnswer& g : *groups) {
      stats_bytes += g.answer.stats.ToJson().size();
    }
  } else {
    stats_bytes = answer->stats.ToJson().size();
  }
  out.answer_bytes = rendered.size() - stats_bytes;
  if (times != nullptr) {
    times->parse_us.push_back(Us(t0, t1));
    times->bind_us.push_back(Us(t1, t2));
    times->answer_ms[op.cell].push_back(Us(t2, t3) / 1e3);
    times->render_us.push_back(Us(t3, t4));
    if (op.cell == Cell::kScan) {
      times->scan_cells += static_cast<double>(source.table->num_rows() *
                                               source.pmapping.size());
      times->scan_s += SecondsBetween(t2, t3);
    }
  }

  // Checks run after the clock has stopped.
  if (grouped) {
    std::vector<GroupView> views;
    for (const aqua::GroupedAnswer& g : *groups) {
      views.push_back({g.group.ToString(), ViewOf(g.answer)});
      out.steps += g.answer.stats.steps;
      out.support += g.answer.distribution.size();
    }
    out.check_error = CheckGroups(op, views, ref);
  } else {
    out.steps = answer->stats.steps;
    out.support = answer->distribution.size();
    out.check_error = CheckAnswer(op, ViewOf(*answer), ref);
  }
  return out;
}

int RunInProcess(const Args& args, RunResult* result) {
  const Files files = FilesIn(args.dir);
  Reference ref;
  if (!ref.Load(files.reference)) {
    std::fprintf(stderr, "run: cannot read %s\n", files.reference.c_str());
    return 1;
  }
  if (!args.perturb.empty() && !ref.Perturb(args.perturb)) {
    std::fprintf(stderr, "run: no reference key '%s'\n", args.perturb.c_str());
    return 2;
  }
  const bool fta = args.workload == kFileToAnswer;
  size_t auctions = 0;
  if (!fta) {
    const auto* a = ref.Find("cd_auctions");
    if (a == nullptr || a->empty()) {
      std::fprintf(stderr, "run: reference lacks cd_auctions\n");
      return 1;
    }
    auctions = static_cast<size_t>(a->front());
  }
  auto round_ops = [&](uint64_t round) {
    return fta ? FtaRound() : CdRound(args.seed, round, auctions);
  };
  const aqua::Engine engine{aqua::EngineOptions{}};
  TraceSession trace(args.trace);

  // Set-up: files on disk to a table and p-mapping ready to answer,
  // repeated; each repetition also times its first rendered answer.
  const int reps = fta ? 5 : 21;
  std::vector<double> setup_s, first_s;
  std::vector<LoadedSource> sources;
  LayerTimes setup_times;
  std::string rejection;
  for (int rep = 0; rep < reps; ++rep) {
    sources.clear();  // at most one loaded copy at a time
    sources.resize(fta ? 1 : 2);
    trace.Enable(true);
    const auto t0 = Clock::now();
    std::string rejected, rejected2;
    std::string err = LoadSource(
        files.data, fta ? FtaSchemaSpec() : CdUncertainSchemaSpec(),
        files.mapping, fta ? FtaPMapping() : CdUncertainPMapping(),
        &sources[0], &setup_times, &rejected);
    if (err.empty() && !fta) {
      err = LoadSource(files.data2, EbaySchemaSpec(), files.mapping2,
                       EbayPMapping(), &sources[1], &setup_times, &rejected2);
    }
    if (!err.empty()) {
      std::fprintf(stderr, "run: %s\n", err.c_str());
      return 1;
    }
    if (!rejected.empty() || !rejected2.empty()) rejection = rejected + rejected2;
    const auto t1 = Clock::now();
    const Op first = round_ops(0).front();
    const OpOutcome o = ExecInProcess(first, sources[first.source], engine,
                                      *ref.Find(first.ref_key), nullptr);
    const auto t2 = Clock::now();
    trace.Enable(false);
    if (!o.ok || !o.check_error.empty()) {
      result->Fail("set-up first answer: " + o.error + o.check_error);
    }
    setup_s.push_back(SecondsBetween(t0, t1));
    first_s.push_back(SecondsBetween(t0, t2));
  }

  // Timed phase: whole rounds until the time is up. In a traced run the
  // rounds alternate untraced/traced, which measures the tracing cost.
  std::vector<double> latencies_ms;
  std::map<std::string, std::vector<double>> by_label;
  LayerTimes times;
  RoundCounts counts;
  double traced_s = 0, untraced_s = 0;
  int traced_rounds = 0, untraced_rounds = 0;
  const double cpu0 = ProcessCpuSeconds();
  const auto start = Clock::now();
  uint64_t round = 0;
  for (;; ++round) {
    const bool enough = args.max_rounds > 0
                            ? round >= static_cast<uint64_t>(args.max_rounds)
                            : SecondsSince(start) >= args.seconds;
    if (enough && round >= (args.trace ? 2u : 1u)) break;
    const bool traced = args.trace && round % 2 == 1;
    trace.Enable(traced);
    const auto r0 = Clock::now();
    if (fta) {
      // The p-mapping round trip, as aqua_cli reads the file.
      ++result->attempted;
      const auto m0 = Clock::now();
      bool ok = false;
      {
        aqua::obs::TraceSpan span("mapping.PMappingText::ReadSchemaFile");
        const auto mapping = aqua::PMappingText::ReadSchemaFile(files.mapping);
        ok = mapping.ok() && mapping->size() == 1;
        if (!mapping.ok()) rejection = mapping.status().ToString();
      }
      if (traced) {
        times.mapping_read_ms.push_back(SecondsSince(m0) * 1e3);
      }
      if (!ok) ++result->failed;
    }
    for (const Op& op : round_ops(round)) {
      ++result->attempted;
      const std::vector<double>* want = ref.Find(op.ref_key);
      if (want == nullptr) {
        result->Fail("no reference for " + op.ref_key);
        continue;
      }
      const OpOutcome o = ExecInProcess(op, sources[op.source], engine, *want,
                                        traced ? &times : nullptr);
      if (!o.ok) {
        ++result->failed;
        std::fprintf(stderr, "run: %s failed: %s\n", op.label.c_str(),
                     o.error.c_str());
        continue;
      }
      if (!o.check_error.empty()) {
        result->Fail(op.label + " [" + op.sql + "]: " + o.check_error);
      }
      latencies_ms.push_back(o.latency_s * 1e3);
      by_label[op.label].push_back(o.latency_s * 1e3);
      if (round == 0) counts.Add(o);
    }
    trace.Enable(false);
    (traced ? traced_s : untraced_s) += SecondsSince(r0);
    ++(traced ? traced_rounds : untraced_rounds);
  }
  const double elapsed = SecondsSince(start);
  const double cpu = ProcessCpuSeconds() - cpu0;
  if (!rejection.empty()) {
    std::printf("p-mapping file %s: %s\n", files.mapping.c_str(),
                rejection.c_str());
  }
  std::printf("rounds=%llu queries=%zu elapsed_s=%.3f\n",
              static_cast<unsigned long long>(round), latencies_ms.size(),
              elapsed);
  PrintLatencyTable(by_label);

  counts.storage_bytes = FileBytes(files.data) + FileBytes(files.mapping);
  if (!fta) {
    counts.storage_bytes += FileBytes(files.data2) + FileBytes(files.mapping2);
  }
  counts.fingerprint = ref.Find(kFingerprintKey);
  if (!args.trace) {
    AddEndToEnd(setup_s, first_s, latencies_ms, elapsed, PeakRssMb(), result);
  } else {
    LayerReport layers = LayerReport::From(setup_times, times, fta ? 1 : 2);
    layers.cpu_s = cpu;
    layers.csv_mb_per_s = layers.csv_read_s > 0
                              ? static_cast<double>(FileBytes(files.data) +
                                                    (fta ? 0
                                                         : FileBytes(files.data2))) /
                                    1e6 / layers.csv_read_s
                              : 0;
    layers.trace_overhead_pct =
        TraceOverheadPct(traced_s, traced_rounds, untraced_s, untraced_rounds);
    layers.counts = counts;
    AddLayerMetrics(layers, result);
    trace.Finish(args.trace_file);
  }
  result->counts = counts.Items();
  return 0;
}

}  // namespace aquabench
