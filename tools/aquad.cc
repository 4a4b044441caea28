// aquad — the always-on aggregate-query service.
//
// Loads one source table and one p-mapping at startup, then serves:
//
//   POST /query    {"query":"SELECT COUNT(*) FROM T", "semantics":"by-tuple",
//                   "answer":"range", "deadline_ms":500, "max_steps":0}
//   GET  /metrics  Prometheus text exposition of the metrics registry
//   GET  /statusz  admission state, watermarks, pool queue depth (JSON)
//   GET  /healthz  liveness probe
//
// Admission control: each request's budget is clamped by the server caps
// and fed through the admission controller — under the soft watermark it
// runs exactly; between soft and hard watermarks it is shed to the
// Monte-Carlo sampler and flagged approximate; at the hard watermark it
// gets a well-formed 429. SIGTERM/SIGINT starts a graceful drain: no new
// admissions, in-flight requests finish (or are cancelled at the drain
// deadline), metrics are flushed to stderr.
//
// Exit codes: 0 clean drain; 2 usage error; 3 drain deadline exceeded
// (in-flight work was cancelled); 4 startup failure (data, mapping, bind).

#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "aqua/common/failpoint.h"
#include "aqua/exec/thread_pool.h"
#include "aqua/mapping/serialize.h"
#include "aqua/obs/metrics.h"
#include "aqua/server/server.h"
#include "aqua/server/service.h"
#include "aqua/server/signal.h"
#include "aqua/storage/csv.h"
#include "cli_support.h"

namespace aqua {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitDrainDeadline = 3;
constexpr int kExitStartup = 4;

struct DaemonOptions {
  bool help = false;
  std::string data_path;
  std::string schema_spec;
  std::string mapping_path;
  std::vector<std::string> failpoints;
  int port = 8080;
  int threads = 0;
  int64_t drain_ms = 5000;
  int io_timeout_ms = 5000;
  size_t queue_limit = 0;
  server::ServiceCaps caps;
  server::AdmissionOptions admission;
};

void PrintUsage(std::FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s --data FILE --schema SPEC --mapping FILE [options]\n"
      "\n"
      "Serves aggregate queries under uncertain schema mappings over HTTP.\n"
      "\n"
      "  --port N                 listen port (default 8080; 0 = ephemeral)\n"
      "  --threads N              engine worker threads (default: hardware)\n"
      "  --default-deadline-ms N  deadline when the request names none "
      "(default 2000)\n"
      "  --max-deadline-ms N      cap on requested deadlines (default 30000;"
      " 0 = uncapped)\n"
      "  --max-steps N            cap on requested step budgets (0 = none)\n"
      "  --max-bytes N            cap on requested byte budgets (0 = none)\n"
      "  --soft-watermark N       in-flight count above which requests are\n"
      "                           shed to sampling (default 48)\n"
      "  --hard-watermark N       in-flight count at which requests get a\n"
      "                           well-formed 429 (default 64)\n"
      "  --queue-limit N          cap on the shared pool's task queue\n"
      "                           (0 = unbounded)\n"
      "  --drain-ms N             graceful-drain deadline on SIGTERM/SIGINT\n"
      "                           (default 5000)\n"
      "  --io-timeout-ms N        per-socket read/write timeout "
      "(default 5000)\n"
      "  --failpoint SITE:SPEC    arm a failpoint (repeatable)\n"
      "\n"
      "Exit codes: 0 clean drain; 2 usage; 3 drain deadline exceeded;\n"
      "4 startup failure.\n",
      argv0);
}

Result<DaemonOptions> ParseDaemonArgs(int argc, char** argv) {
  DaemonOptions o;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (size_t i = 0; i < args.size(); ++i) {
    std::string name = args[i];
    std::string inline_value;
    bool has_inline = false;
    if (name.rfind("--", 0) == 0) {
      const size_t eq = name.find('=');
      if (eq != std::string::npos) {
        inline_value = name.substr(eq + 1);
        has_inline = true;
        name.resize(eq);
      }
    }
    auto next = [&]() -> Result<std::string> {
      if (has_inline) return inline_value;
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument("missing value for " + name);
      }
      return args[++i];
    };
    auto next_int = [&](int64_t min_value) -> Result<int64_t> {
      AQUA_ASSIGN_OR_RETURN(const std::string v, next());
      try {
        size_t pos = 0;
        const long long parsed = std::stoll(v, &pos);
        if (pos != v.size() || parsed < min_value) {
          throw std::invalid_argument(v);
        }
        return static_cast<int64_t>(parsed);
      } catch (const std::exception&) {
        return Status::InvalidArgument(name + " expects an integer >= " +
                                       std::to_string(min_value) + ", got '" +
                                       v + "'");
      }
    };
    if (name == "--help" || name == "-h") {
      o.help = true;
      return o;
    } else if (name == "--data") {
      AQUA_ASSIGN_OR_RETURN(o.data_path, next());
    } else if (name == "--schema") {
      AQUA_ASSIGN_OR_RETURN(o.schema_spec, next());
    } else if (name == "--mapping") {
      AQUA_ASSIGN_OR_RETURN(o.mapping_path, next());
    } else if (name == "--port") {
      AQUA_ASSIGN_OR_RETURN(const int64_t v, next_int(0));
      if (v > 65535) return Status::InvalidArgument("--port out of range");
      o.port = static_cast<int>(v);
    } else if (name == "--threads") {
      AQUA_ASSIGN_OR_RETURN(const int64_t v, next_int(0));
      o.threads = static_cast<int>(v);
    } else if (name == "--default-deadline-ms") {
      AQUA_ASSIGN_OR_RETURN(o.caps.default_deadline_ms, next_int(1));
    } else if (name == "--max-deadline-ms") {
      AQUA_ASSIGN_OR_RETURN(o.caps.max_deadline_ms, next_int(0));
    } else if (name == "--max-steps") {
      AQUA_ASSIGN_OR_RETURN(const int64_t v, next_int(0));
      o.caps.max_steps = static_cast<uint64_t>(v);
    } else if (name == "--max-bytes") {
      AQUA_ASSIGN_OR_RETURN(const int64_t v, next_int(0));
      o.caps.max_bytes = static_cast<uint64_t>(v);
    } else if (name == "--soft-watermark") {
      AQUA_ASSIGN_OR_RETURN(const int64_t v, next_int(1));
      o.admission.soft_watermark = static_cast<int>(v);
    } else if (name == "--hard-watermark") {
      AQUA_ASSIGN_OR_RETURN(const int64_t v, next_int(1));
      o.admission.hard_watermark = static_cast<int>(v);
    } else if (name == "--queue-limit") {
      AQUA_ASSIGN_OR_RETURN(const int64_t v, next_int(0));
      o.queue_limit = static_cast<size_t>(v);
    } else if (name == "--drain-ms") {
      AQUA_ASSIGN_OR_RETURN(o.drain_ms, next_int(0));
    } else if (name == "--io-timeout-ms") {
      AQUA_ASSIGN_OR_RETURN(const int64_t v, next_int(1));
      o.io_timeout_ms = static_cast<int>(v);
    } else if (name == "--failpoint") {
      AQUA_ASSIGN_OR_RETURN(const std::string v, next());
      o.failpoints.push_back(v);
    } else {
      return Status::InvalidArgument("unknown flag '" + name + "'");
    }
  }
  if (o.data_path.empty() || o.schema_spec.empty() ||
      o.mapping_path.empty()) {
    return Status::InvalidArgument(
        "--data, --schema and --mapping are required");
  }
  if (o.admission.hard_watermark < o.admission.soft_watermark) {
    return Status::InvalidArgument(
        "--hard-watermark must be >= --soft-watermark");
  }
  return o;
}

int RunDaemon(const DaemonOptions& options) {
  const auto schema = cli::ParseSchemaSpec(options.schema_spec);
  if (!schema.ok()) {
    std::fprintf(stderr, "schema: %s\n", schema.status().ToString().c_str());
    return kExitUsage;
  }
  const auto table = Csv::ReadFile(options.data_path, *schema);
  if (!table.ok()) {
    std::fprintf(stderr, "data: %s\n", table.status().ToString().c_str());
    return kExitStartup;
  }
  const auto schema_mapping =
      PMappingText::ReadSchemaFile(options.mapping_path);
  if (!schema_mapping.ok()) {
    std::fprintf(stderr, "mapping: %s\n",
                 schema_mapping.status().ToString().c_str());
    return kExitStartup;
  }
  if (schema_mapping->size() != 1) {
    std::fprintf(stderr,
                 "mapping: expected exactly one pmapping block, got %zu\n",
                 schema_mapping->size());
    return kExitStartup;
  }

  if (options.queue_limit > 0) {
    exec::ThreadPool::Shared().set_queue_limit(options.queue_limit);
  }
  server::QueryServiceOptions service_options;
  service_options.caps = options.caps;
  service_options.admission = options.admission;
  service_options.engine.threads = options.threads;
  server::QueryService service(*table, schema_mapping->mapping(0),
                               service_options);
  server::HttpServerOptions http_options;
  http_options.port = options.port;
  http_options.io_timeout_ms = options.io_timeout_ms;
  server::HttpServer http(&service, http_options);
  if (const Status started = http.Start(); !started.ok()) {
    std::fprintf(stderr, "startup: %s\n", started.ToString().c_str());
    return kExitStartup;
  }

  server::InstallDrainHandlers();
  std::fprintf(stderr,
               "aquad listening on %d (%zu rows, %zu candidate mappings; "
               "watermarks soft=%d hard=%d)\n",
               http.port(), table->num_rows(), schema_mapping->mapping(0).size(),
               options.admission.soft_watermark,
               options.admission.hard_watermark);
  std::fflush(stderr);

  while (!server::DrainRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "drain: signal received, stopping admission\n");
  const Status drained = http.Shutdown(options.drain_ms);
  // Flush the final metrics snapshot so a scrape-less deployment still
  // gets the service's lifetime counters in its logs.
  const std::string metrics =
      obs::MetricsRegistry::Default().RenderPrometheusText();
  std::fprintf(stderr, "%s", metrics.c_str());
  if (!drained.ok()) {
    std::fprintf(stderr, "drain: %s\n", drained.ToString().c_str());
    return kExitDrainDeadline;
  }
  std::fprintf(stderr, "drain: clean (all in-flight requests answered)\n");
  return kExitOk;
}

int DaemonMain(int argc, char** argv) {
  const auto options = ParseDaemonArgs(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    PrintUsage(stderr, argv[0]);
    return kExitUsage;
  }
  if (options->help) {
    PrintUsage(stdout, argv[0]);
    return kExitOk;
  }
  const Status env_faults = fault::ConfigureFromEnv();
  if (!env_faults.ok()) {
    std::fprintf(stderr, "AQUA_FAILPOINTS: %s\n",
                 env_faults.ToString().c_str());
    return kExitUsage;
  }
  for (const std::string& fp : options->failpoints) {
    const size_t colon = fp.find(':');
    const Status armed =
        fault::Enable(fp.substr(0, colon),
                      colon == std::string::npos ? "" : fp.substr(colon + 1));
    if (!armed.ok()) {
      std::fprintf(stderr, "--failpoint=%s: %s\n", fp.c_str(),
                   armed.ToString().c_str());
      return kExitUsage;
    }
  }
  return RunDaemon(*options);
}

}  // namespace
}  // namespace aqua

int main(int argc, char** argv) { return aqua::DaemonMain(argc, argv); }
