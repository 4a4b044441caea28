#include "aqua/common/failpoint.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "aqua/common/random.h"
#include "aqua/common/string_util.h"

namespace aqua::fault {
namespace {

/// Count of enabled sites. `Armed()` reads this relaxed; everything else
/// about the registry lives behind `RegistryMutex()`. The count is only
/// written under the mutex, so it can never disagree with the map for long
/// enough to matter: a site disabled concurrently with an evaluation at
/// worst evaluates to OK.
std::atomic<int> g_armed_sites{0};

struct ActiveSite {
  FailSpec spec;
  uint64_t hits = 0;   // evaluations since Enable
  uint64_t fires = 0;  // trigger activations since Enable
  uint64_t prng = 0;   // SplitMix64 state for p(...) triggers
};

std::mutex& RegistryMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::unordered_map<std::string, ActiveSite>& Registry() {
  static auto* registry = new std::unordered_map<std::string, ActiveSite>();
  return *registry;
}

Result<uint64_t> ParseU64(std::string_view text) {
  uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument("bad integer '" + std::string(text) +
                                   "' in failpoint spec");
  }
  return v;
}

Result<double> ParseProb(std::string_view text) {
  const std::optional<double> v = ParseDouble(text);
  if (!v || !(*v >= 0.0 && *v <= 1.0)) {
    return Status::InvalidArgument("bad probability '" + std::string(text) +
                                   "' in failpoint spec (expected [0,1])");
  }
  return *v;
}

/// Splits "name(args)" into name and args; `args` empty (and `has_args`
/// false) when there are no parentheses.
struct Call {
  std::string_view name;
  std::string_view args;
  bool has_args = false;
};

Result<Call> ParseCall(std::string_view text) {
  const size_t open = text.find('(');
  if (open == std::string_view::npos) return Call{text, {}, false};
  if (text.empty() || text.back() != ')') {
    return Status::InvalidArgument("unbalanced parentheses in failpoint "
                                   "spec term '" + std::string(text) + "'");
  }
  return Call{text.substr(0, open),
              text.substr(open + 1, text.size() - open - 2), true};
}

Status ParseTrigger(std::string_view text, FailSpec* spec) {
  AQUA_ASSIGN_OR_RETURN(Call call, ParseCall(text));
  if (call.name == "once") {
    if (call.has_args) {
      return Status::InvalidArgument("'once' takes no arguments");
    }
    spec->trigger = FaultTrigger::kOnce;
    return Status::OK();
  }
  if (call.name == "every") {
    AQUA_ASSIGN_OR_RETURN(spec->n, ParseU64(call.args));
    if (spec->n == 0) {
      return Status::InvalidArgument("every(N) requires N >= 1");
    }
    spec->trigger = FaultTrigger::kEveryN;
    return Status::OK();
  }
  if (call.name == "after") {
    AQUA_ASSIGN_OR_RETURN(spec->n, ParseU64(call.args));
    spec->trigger = FaultTrigger::kAfterN;
    return Status::OK();
  }
  if (call.name == "p") {
    std::string_view args = call.args;
    const size_t comma = args.find(',');
    if (comma != std::string_view::npos) {
      AQUA_ASSIGN_OR_RETURN(spec->seed, ParseU64(args.substr(comma + 1)));
      args = args.substr(0, comma);
    }
    AQUA_ASSIGN_OR_RETURN(spec->prob, ParseProb(args));
    spec->trigger = FaultTrigger::kProb;
    return Status::OK();
  }
  return Status::InvalidArgument("unknown failpoint trigger '" +
                                 std::string(call.name) +
                                 "' (expected once|every(N)|after(N)|p(P))");
}

Status ParseAction(std::string_view text, FailSpec* spec) {
  AQUA_ASSIGN_OR_RETURN(Call call, ParseCall(text));
  if (call.name == "off") {
    spec->kind = FaultKind::kOff;
    return Status::OK();
  }
  if (call.name == "partial") {
    spec->kind = FaultKind::kPartial;
    return Status::OK();
  }
  if (call.name == "delay") {
    AQUA_ASSIGN_OR_RETURN(const uint64_t ms, ParseU64(call.args));
    spec->kind = FaultKind::kDelay;
    spec->delay_ms = static_cast<int64_t>(ms);
    return Status::OK();
  }
  if (call.name == "error") {
    spec->kind = FaultKind::kError;
    std::string_view args = call.args;
    if (args.empty()) return Status::OK();  // default code + message
    const size_t comma = args.find(',');
    std::string_view code_name =
        comma == std::string_view::npos ? args : args.substr(0, comma);
    const auto code = StatusCodeFromString(code_name);
    if (!code.has_value() || *code == StatusCode::kOk) {
      return Status::InvalidArgument("unknown status code '" +
                                     std::string(code_name) +
                                     "' in failpoint error action");
    }
    spec->code = *code;
    if (comma != std::string_view::npos) {
      spec->message = std::string(args.substr(comma + 1));
    }
    return Status::OK();
  }
  return Status::InvalidArgument(
      "unknown failpoint action '" + std::string(call.name) +
      "' (expected off|error(code)|delay(ms)|partial)");
}

/// Decides whether the armed spec fires on this evaluation and applies the
/// bookkeeping. Runs under the registry mutex.
bool TriggerFires(ActiveSite* site) {
  const uint64_t hit = ++site->hits;  // 1-based
  bool fires = false;
  switch (site->spec.trigger) {
    case FaultTrigger::kAlways:
      fires = true;
      break;
    case FaultTrigger::kOnce:
      fires = hit == 1;
      break;
    case FaultTrigger::kEveryN:
      fires = hit % site->spec.n == 0;
      break;
    case FaultTrigger::kAfterN:
      fires = hit > site->spec.n;
      break;
    case FaultTrigger::kProb: {
      // One SplitMix64 step per evaluation: deterministic for a fixed
      // seed, independent of every other site's stream.
      site->prng = SplitMix64(site->prng);
      const double u =
          static_cast<double>(site->prng >> 11) * 0x1.0p-53;  // [0,1)
      fires = u < site->spec.prob;
      break;
    }
  }
  if (fires) ++site->fires;
  return fires;
}

Status InjectedError(std::string_view site, const FailSpec& spec) {
  std::string message =
      spec.message.empty()
          ? "injected fault at failpoint '" + std::string(site) + "'"
          : spec.message;
  switch (spec.code) {
    case StatusCode::kOk:
    case StatusCode::kInternal:
      return Status::Internal(std::move(message));
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(message));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(std::move(message));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(message));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(message));
    case StatusCode::kCancelled:
      return Status::Cancelled(std::move(message));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(message));
  }
  return Status::Internal(std::move(message));
}

}  // namespace

std::string FailSpec::ToString() const {
  std::string out;
  switch (trigger) {
    case FaultTrigger::kAlways:
      break;
    case FaultTrigger::kOnce:
      out += "once*";
      break;
    case FaultTrigger::kEveryN:
      out += "every(" + std::to_string(n) + ")*";
      break;
    case FaultTrigger::kAfterN:
      out += "after(" + std::to_string(n) + ")*";
      break;
    case FaultTrigger::kProb:
      out += "p(" + FormatRoundTrip(prob) + "," + std::to_string(seed) + ")*";
      break;
  }
  switch (kind) {
    case FaultKind::kOff:
      out += "off";
      break;
    case FaultKind::kError:
      out += "error(" + std::string(StatusCodeToString(code));
      if (!message.empty()) out += "," + message;
      out += ")";
      break;
    case FaultKind::kDelay:
      out += "delay(" + std::to_string(delay_ms) + ")";
      break;
    case FaultKind::kPartial:
      out += "partial";
      break;
  }
  return out;
}

Result<FailSpec> ParseSpec(std::string_view text) {
  FailSpec spec;
  if (text.empty()) {
    return Status::InvalidArgument("empty failpoint spec");
  }
  // The '*' separating trigger from action is never inside parentheses in
  // this grammar, so the first top-level '*' splits the two terms.
  size_t depth = 0;
  size_t star = std::string_view::npos;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && depth > 0) --depth;
    if (text[i] == '*' && depth == 0) {
      star = i;
      break;
    }
  }
  if (star != std::string_view::npos) {
    AQUA_RETURN_NOT_OK(ParseTrigger(text.substr(0, star), &spec));
    AQUA_RETURN_NOT_OK(ParseAction(text.substr(star + 1), &spec));
  } else {
    AQUA_RETURN_NOT_OK(ParseAction(text, &spec));
  }
  return spec;
}

const std::vector<SiteInfo>& AllSites() {
  static const std::vector<SiteInfo>* sites = new std::vector<SiteInfo>{
      {"storage/csv/read-file",
       "reading a CSV file from disk, inside the retry loop; a transient "
       "error here exercises retry-then-succeed / retry-exhausted"},
      {"storage/csv/parse",
       "parsing CSV text into a table (after the file was read)"},
      {"storage/csv/write-file", "writing a table to a CSV file, inside "
                                 "the retry loop"},
      {"mapping/serialize/read-file",
       "reading a p-mapping text file from disk, inside the retry loop"},
      {"mapping/serialize/parse", "parsing p-mapping text into blocks"},
      {"mapping/serialize/write-file",
       "writing a p-mapping text file, inside the retry loop"},
      {"exec/pool/spawn",
       "enqueueing a task on the shared thread pool; an error simulates "
       "worker-spawn failure and drives the parallel-to-serial fallback "
       "(the region runs inline on the calling thread)"},
      {"exec/pool/run",
       "a pool worker about to run a dequeued task; delay specs model a "
       "slow/oversubscribed worker for deadline testing",
       /*honors_error=*/false},
      {"exec/parallel/chunk",
       "a parallel-region chunk about to execute; an error exercises "
       "sibling cancellation via the region's linked token"},
      {"common/exec_context/check",
       "ExecContext::CheckNow, the amortised deadline/cancellation poll; "
       "error(deadline-exceeded) deterministically expires any governed "
       "computation mid-flight"},
      {"core/engine/exact",
       "the engine's exact by-tuple pass; error(resource-exhausted) "
       "deterministically drives the exact-to-sampler degradation edge"},
      {"core/engine/degrade",
       "the engine's degraded sampling pass; an error here proves the "
       "ladder ends in a clean Status when even the fallback fails"},
      {"core/sampler/run", "the Monte-Carlo sampler entry point"},
      {"server/accept",
       "the service accept loop, after a client connection is taken off "
       "the listening socket; an error drops that connection (the client "
       "sees a reset, the server keeps serving)"},
      {"server/read-request",
       "reading an HTTP request off an accepted connection; an error "
       "models a client that stalled or hung up mid-request"},
      {"server/admission",
       "the admission decision for a parsed query request; "
       "error(resource-exhausted) deterministically drives the load-shed "
       "path (degrade-to-sampling below the hard watermark, 429 above)"},
      {"server/write-response",
       "writing an HTTP response back to the client; an error models a "
       "connection dropped mid-response (the answer is lost in transit, "
       "never corrupted)"},
  };
  return *sites;
}

bool IsKnownSite(std::string_view name) {
  const std::vector<SiteInfo>& sites = AllSites();
  return std::any_of(sites.begin(), sites.end(),
                     [&](const SiteInfo& s) { return s.name == name; });
}

bool Armed() { return g_armed_sites.load(std::memory_order_relaxed) > 0; }

Status Enable(std::string_view site, std::string_view spec) {
  AQUA_ASSIGN_OR_RETURN(FailSpec parsed, ParseSpec(spec));
  return Enable(site, parsed);
}

Status Enable(std::string_view site, const FailSpec& spec) {
  if (!IsKnownSite(site)) {
    return Status::NotFound("unknown failpoint site '" + std::string(site) +
                            "'; see aqua::fault::AllSites()");
  }
  std::lock_guard<std::mutex> lock(RegistryMutex());
  auto& registry = Registry();
  auto [it, inserted] = registry.try_emplace(std::string(site));
  it->second = ActiveSite{};
  it->second.spec = spec;
  // A default p(...) seed still yields a deterministic stream; mix the
  // site name in so two sites armed with the same default differ.
  uint64_t seed = spec.seed != 0 ? spec.seed : 0x5EEDF417ULL;
  for (const char c : site) seed = seed * 31 + static_cast<unsigned char>(c);
  it->second.prng = seed;
  if (inserted) g_armed_sites.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void Disable(std::string_view site) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  if (Registry().erase(std::string(site)) > 0) {
    g_armed_sites.fetch_sub(1, std::memory_order_relaxed);
  }
}

void DisableAll() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  g_armed_sites.fetch_sub(static_cast<int>(Registry().size()),
                          std::memory_order_relaxed);
  Registry().clear();
}

Status ConfigureFromString(std::string_view config) {
  for (std::string_view item : Split(config, ';')) {
    for (std::string_view line : Split(item, '\n')) {
      line = Trim(line);
      if (line.empty()) continue;
      const size_t eq = line.find('=');
      if (eq == std::string_view::npos) {
        return Status::InvalidArgument(
            "failpoint config item '" + std::string(line) +
            "' is not site=spec");
      }
      AQUA_RETURN_NOT_OK(
          Enable(Trim(line.substr(0, eq)), Trim(line.substr(eq + 1))));
    }
  }
  return Status::OK();
}

Status ConfigureFromEnv() {
  const char* env = std::getenv("AQUA_FAILPOINTS");
  if (env == nullptr || *env == '\0') return Status::OK();
  return ConfigureFromString(env);
}

Status Evaluate(std::string_view site) {
  FailSpec fired;
  bool fires = false;
  {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    auto it = Registry().find(std::string(site));
    if (it == Registry().end()) return Status::OK();
    fires = TriggerFires(&it->second);
    if (fires) fired = it->second.spec;
  }
  if (!fires) return Status::OK();
  switch (fired.kind) {
    case FaultKind::kOff:
    case FaultKind::kPartial:  // polled via InjectPartial, never an error
      return Status::OK();
    case FaultKind::kDelay:
      // Sleep outside the registry lock so a delayed site never stalls
      // other sites' evaluations.
      std::this_thread::sleep_for(std::chrono::milliseconds(fired.delay_ms));
      return Status::OK();
    case FaultKind::kError:
      return InjectedError(site, fired);
  }
  return Status::OK();
}

bool InjectPartial(std::string_view site) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  auto it = Registry().find(std::string(site));
  if (it == Registry().end()) return false;
  if (it->second.spec.kind != FaultKind::kPartial) return false;
  return TriggerFires(&it->second);
}

SiteStats StatsFor(std::string_view site) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  auto it = Registry().find(std::string(site));
  if (it == Registry().end()) return SiteStats{};
  return SiteStats{it->second.hits, it->second.fires};
}

}  // namespace aqua::fault
