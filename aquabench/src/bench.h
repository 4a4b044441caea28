// Shared declarations of the aqua end-to-end benchmark (aquabench).
//
// The benchmark runs in two processes per workload: `aquabench gen` writes
// the inputs (CSV sources, p-mapping files) and the reference answers,
// computed from the generated values without calling the engine; `aquabench
// run` loads the inputs the way aqua_cli (or aquad) does, answers the
// workload's queries, checks every answer against the reference file and
// prints the metrics. The process that holds the loaded table therefore
// holds no copy of the benchmark's own data.

#ifndef AQUABENCH_BENCH_H_
#define AQUABENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aqua/core/answer.h"
#include "aqua/core/engine.h"
#include "aqua/mapping/p_mapping.h"
#include "aqua/obs/trace.h"
#include "aqua/storage/table.h"

namespace aquabench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
double SecondsBetween(Clock::time_point a, Clock::time_point b);

struct Args {
  std::string mode;      // gen | run
  std::string workload;  // file-to-answer | count-distribution | service-mix
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;         // working directory holding inputs and outputs
  std::string aquad;       // path of the aquad binary (service-mix)
  std::string trace_file;  // Chrome trace-event output (trace runs)
  std::string perturb;     // reference key to perturb (self-test only)
  int max_rounds = 0;      // 0 = run until `seconds` elapse
};

/// SplitMix64: the benchmark's own generator, so that a change to the
/// program's random sources cannot change a workload.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform integer in [lo, hi].
  int64_t Int(int64_t lo, int64_t hi);
  /// Uniform double in [0, 1).
  double Unit();

 private:
  uint64_t state_;
};

// ---------------------------------------------------------------------------
// Workload shapes shared by the generator and the runner.

inline constexpr const char* kFileToAnswer = "file-to-answer";
inline constexpr const char* kCountDistribution = "count-distribution";
inline constexpr const char* kServiceMix = "service-mix";

/// file-to-answer: S(id, a0..a19) with kFtaRows rows; `value` maps to one
/// of kFtaMappings attributes.
inline constexpr size_t kFtaRows = 500000;
inline constexpr size_t kFtaAttributes = 20;
inline constexpr size_t kFtaMappings = 8;
inline constexpr const char* kFtaThreshold = "250.005";

/// count-distribution: the uncertain synthetic shape and the certain
/// eBay-shaped bids table.
inline constexpr size_t kCdUncertainRows = 11000;
inline constexpr size_t kCdUncertainMappings = 4;
inline constexpr const char* kCdThreshold = "500.005";
inline constexpr size_t kCdCertainRows = 15000;
inline constexpr int kCdCertainPerRound = 3;

/// service-mix: the paper's eBay size.
inline constexpr size_t kSmAuctions = 1129;
inline constexpr size_t kSmCountThresholds = 16;

std::string FtaSchemaSpec();
std::string CdUncertainSchemaSpec();
std::string EbaySchemaSpec();

/// The p-mappings. They do not depend on the seed: only the data does.
aqua::PMapping FtaPMapping();
aqua::PMapping CdUncertainPMapping();
aqua::PMapping EbayPMapping();

/// Threshold `i` of the service-mix `COUNT(*) WHERE price > p` queries.
std::string SmCountThreshold(size_t i);

/// Input file names inside the working directory.
struct Files {
  std::string data;      // main CSV source
  std::string mapping;   // its p-mapping text
  std::string data2;     // count-distribution: the certain bids table
  std::string mapping2;  // and its p-mapping
  std::string reference;
};
Files FilesIn(const std::string& dir);

// ---------------------------------------------------------------------------
// Reference answers: one line per key, `key<TAB>num num ...`.

class Reference {
 public:
  void Set(const std::string& key, std::vector<double> values);
  bool Write(const std::string& path) const;
  bool Load(const std::string& path);
  const std::vector<double>* Find(const std::string& key) const;
  /// Shifts the first value of `key` (the self-test's mutation).
  bool Perturb(const std::string& key);

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// Reference key under which gen records a hash of the input files (two
/// 32-bit halves), so a run can show which inputs it answered.
inline constexpr const char* kFingerprintKey = "input_fingerprint";

// ---------------------------------------------------------------------------
// Operations and answer checks.

enum class Check {
  kRange,          // ref: low high
  kExpected,       // ref: value
  kTableDist,      // ref: v1 p1 v2 p2 ... (per candidate, unmerged)
  kCountDist,      // ref: mean variance low high
  kPointMass,      // ref: count
  kCdf,            // ref: low high x1 F1 x2 F2 ... (F = Pr[answer <= x])
  kGroupedRange,   // ref: group1 low1 high1 group2 ...
};

/// Which layer metric an operation's engine time belongs to.
enum class Cell {
  kScan,            // O(nm) scan cells: range/expected, by-table
  kMinMaxDist,      // by-tuple MIN/MAX distribution
  kCountUncertain,  // by-tuple COUNT distribution, uncertain WHERE
  kCountCertain,    // by-tuple COUNT distribution, certain WHERE
  kGrouped,
  kNested,
};

struct Op {
  std::string label;  // e.g. "by-tuple/range/SUM"
  std::string sql;
  aqua::MappingSemantics mapping = aqua::MappingSemantics::kByTuple;
  aqua::AggregateSemantics answer = aqua::AggregateSemantics::kRange;
  Check check = Check::kRange;
  Cell cell = Cell::kScan;
  std::string ref_key;
  int source = 0;  // count-distribution: 0 uncertain, 1 certain
};

/// The answer as the checks see it, from an in-process AggregateAnswer or
/// from an aquad response body.
struct AnswerView {
  aqua::AggregateSemantics semantics = aqua::AggregateSemantics::kRange;
  double low = 0, high = 0, expected = 0;
  std::vector<std::pair<double, double>> dist;
  bool approximate = false;
  uint64_t steps = 0;
  int64_t wall_time_us = 0;
};

struct GroupView {
  std::string group;
  AnswerView answer;
};

AnswerView ViewOf(const aqua::AggregateAnswer& answer);

/// Empty when the answer passes; otherwise what is wrong.
std::string CheckAnswer(const Op& op, const AnswerView& answer,
                        const std::vector<double>& ref);
std::string CheckGroups(const Op& op, const std::vector<GroupView>& groups,
                        const std::vector<double>& ref);

/// Parses an aquad success body (`{"ok":true,...}`) into views. Returns
/// an error message, or empty on success.
std::string ParseServiceBody(const std::string& body, AnswerView* answer,
                             std::vector<GroupView>* groups, bool* grouped);

/// One round of each workload.
std::vector<Op> FtaRound();
std::vector<Op> CdRound(uint64_t seed, uint64_t round, size_t auctions);
std::vector<Op> SmRound(uint64_t seed, uint64_t round);

// ---------------------------------------------------------------------------
// Measurement helpers.

double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double PeakRssMb();           // this process, getrusage
double CurrentRssMb();        // this process, /proc/self/statm
double ProcessCpuSeconds();   // this process, user + system
double ChildCpuSeconds(int pid);    // /proc/<pid>/stat, user + system
double ChildPeakRssMb(int pid);     // /proc/<pid>/status VmHWM
uint64_t FileBytes(const std::string& path);
uint64_t Fnv1a(const void* data, size_t n, uint64_t h = 1469598103934665603ULL);
std::string Num(double v);  // %.17g

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything one run reports.
struct RunResult {
  bool correct = true;
  std::string first_error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Exactly repeating counts (printed on every run).
  std::vector<std::pair<std::string, uint64_t>> counts;
  void Fail(const std::string& what);
};

// ---------------------------------------------------------------------------
// Running operations and collecting layer figures.

struct LoadedSource {
  std::unique_ptr<aqua::Table> table;
  aqua::PMapping pmapping;
};

/// Per-call layer timings, collected in traced rounds (and set-up).
struct LayerTimes {
  std::vector<double> csv_read_s;    // per Csv::ReadFile call
  std::vector<double> table_rss_mb;  // resident growth across that call
  std::vector<double> mapping_read_ms;
  std::vector<double> parse_us, bind_us, render_us;
  std::map<Cell, std::vector<double>> answer_ms;
  double scan_cells = 0;  // rows x mappings over the scan cells
  double scan_s = 0;
};

struct OpOutcome {
  bool ok = false;          // the program answered
  std::string error;        // why it did not
  std::string check_error;  // empty when the answer is correct
  double latency_s = 0;
  double engine_us = 0;     // engine wall time (reported by aquad)
  uint64_t steps = 0, support = 0, answer_bytes = 0, response_bytes = 0;
};

/// The exactly repeating counts of one round (round 0) plus the inputs.
struct RoundCounts {
  uint64_t steps = 0, support = 0, answer_bytes = 0, response_bytes = 0;
  uint64_t storage_bytes = 0;
  const std::vector<double>* fingerprint = nullptr;
  void Add(const OpOutcome& o);
  std::vector<std::pair<std::string, uint64_t>> Items() const;
};

/// Loads one CSV source and its p-mapping file as aqua_cli does. A
/// rejected p-mapping falls back to `in_memory`, and `*mapping_error`
/// says why (empty when the file loaded). Returns an error message, empty
/// on success.
std::string LoadSource(const std::string& csv, const std::string& spec,
                       const std::string& mapping_path,
                       const aqua::PMapping& in_memory, LoadedSource* out,
                       LayerTimes* times, std::string* mapping_error);

/// Parse, bind, answer and render one operation in process; the answer is
/// checked against `ref` after the clock stops.
OpOutcome ExecInProcess(const Op& op, const LoadedSource& source,
                        const aqua::Engine& engine,
                        const std::vector<double>& ref, LayerTimes* times);

/// Installs the program's obs::TraceSink while enabled, so the program's
/// own spans land in the same trace as the benchmark's.
class TraceSession {
 public:
  explicit TraceSession(bool active) : active_(active) {}
  ~TraceSession() { Enable(false); }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;
  void Enable(bool on);
  /// Writes the Chrome trace file and prints the per-span self times.
  void Finish(const std::string& path);

 private:
  const bool active_;
  bool installed_ = false;
  aqua::obs::TraceSink sink_;
};

/// The per-layer figures of a traced run.
struct LayerReport {
  double csv_read_s = 0, csv_mb_per_s = 0, table_rss_mb = 0;
  double mapping_read_ms = 0, parse_us = 0, bind_us = 0;
  double scan_ms = 0, scan_cells_per_s = 0, minmax_dist_ms = 0;
  double count_dist_uncertain_ms = 0, count_dist_certain_ms = 0;
  double grouped_ms = 0, nested_ms = 0, render_us = 0, cpu_s = 0;
  double server_overhead_ms = 0, trace_overhead_pct = 0;
  RoundCounts counts;
  /// Medians of the collected timings; set-up loads are summed per
  /// repetition (`loads_per_rep` calls each).
  static LayerReport From(const LayerTimes& setup, const LayerTimes& timed,
                          int loads_per_rep);
};

void AddEndToEnd(const std::vector<double>& setup_s,
                 const std::vector<double>& first_answer_s,
                 const std::vector<double>& latencies_ms, double elapsed_s,
                 double peak_rss_mb, RunResult* result);
void AddLayerMetrics(const LayerReport& layers, RunResult* result);
/// Prints each operation kind's sample count and median latency.
void PrintLatencyTable(
    const std::map<std::string, std::vector<double>>& latencies_ms);
double TraceOverheadPct(double traced_s, int traced_rounds,
                        double untraced_s, int untraced_rounds);

// Entry points.
int RunGen(const Args& args);
int RunInProcess(const Args& args, RunResult* result);
int RunService(const Args& args, RunResult* result);

}  // namespace aquabench

#endif  // AQUABENCH_BENCH_H_
