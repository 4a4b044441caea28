// service-mix: a real aquad child process, driven over HTTP by four
// closed-loop connections.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include "aqua/obs/json.h"
#include "aqua/obs/trace.h"
#include "bench.h"

extern char** environ;

namespace aquabench {
namespace {

// Four closed-loop connections, one per core of the reference host.
constexpr int kConnections = 4;
constexpr int kSetupReps = 21;

std::string SemanticsName(aqua::MappingSemantics s) {
  return s == aqua::MappingSemantics::kByTable ? "by-table" : "by-tuple";
}

std::string AnswerName(aqua::AggregateSemantics s) {
  switch (s) {
    case aqua::AggregateSemantics::kRange: return "range";
    case aqua::AggregateSemantics::kDistribution: return "distribution";
    case aqua::AggregateSemantics::kExpectedValue: return "expected";
  }
  return "range";
}

std::string QueryRequest(const Op& op) {
  const std::string body = "{\"query\":\"" + aqua::obs::JsonEscape(op.sql) +
                           "\",\"semantics\":\"" + SemanticsName(op.mapping) +
                           "\",\"answer\":\"" + AnswerName(op.answer) + "\"}";
  return "POST /query HTTP/1.1\r\nHost: localhost\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// One request on a fresh connection (aquad speaks one request per
/// connection). Returns false when the exchange itself failed.
bool Exchange(int port, const std::string& request, std::string* response) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{30, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return false;
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = send(fd, request.data() + sent, request.size() - sent,
                           MSG_NOSIGNAL);
    if (n <= 0) {
      close(fd);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  response->clear();
  char buf[65536];
  while (true) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      close(fd);
      return false;
    }
    if (n == 0) break;
    response->append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return true;
}

/// Bytes of the flat `"stats":{...}` objects in `body`: they carry
/// timings, whose digits vary from run to run.
size_t StatsBytes(const std::string& body) {
  size_t total = 0;
  for (size_t at = body.find("\"stats\":{"); at != std::string::npos;
       at = body.find("\"stats\":{", at + 1)) {
    const size_t close = body.find('}', at);
    if (close == std::string::npos) break;
    total += close - at + 1;
  }
  return total;
}

/// Splits an HTTP response into status and body.
int StatusAndBody(const std::string& response, std::string* body) {
  const size_t end = response.find("\r\n\r\n");
  if (response.size() < 12 || end == std::string::npos) return 0;
  *body = response.substr(end + 4);
  return std::atoi(response.c_str() + 9);
}

struct Daemon {
  pid_t pid = -1;
  int port = 0;
};

bool Spawn(const Args& args, const Files& files, const std::string& log,
           Daemon* d) {
  const std::string schema = EbaySchemaSpec();
  std::vector<std::string> argv_s = {args.aquad,  "--data",  files.data,
                                     "--schema",  schema,    "--mapping",
                                     files.mapping, "--port", "0"};
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  const int rc = posix_spawn(&d->pid, args.aquad.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0;
}

/// Polls the daemon's log for its port, then /healthz until it answers.
bool WaitHealthy(const std::string& log, Daemon* d, double timeout_s) {
  const auto start = Clock::now();
  const std::string marker = "aquad listening on ";
  while (SecondsSince(start) < timeout_s) {
    int status = 0;
    if (waitpid(d->pid, &status, WNOHANG) == d->pid) {
      d->pid = -1;
      return false;  // exited during start-up
    }
    if (d->port == 0) {
      std::ifstream in(log);
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      const size_t at = text.find(marker);
      if (at != std::string::npos && text.find('(', at) != std::string::npos) {
        d->port = std::atoi(text.c_str() + at + marker.size());
      }
    }
    if (d->port != 0) {
      std::string response, body;
      if (Exchange(d->port,
                   "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n",
                   &response) &&
          StatusAndBody(response, &body) == 200) {
        return true;
      }
    }
    usleep(500);
  }
  return false;
}

/// SIGTERM (aquad drains), then SIGKILL if it has not exited in 10 s.
void Stop(Daemon* d) {
  if (d->pid <= 0) return;
  kill(d->pid, SIGTERM);
  const auto start = Clock::now();
  int status = 0;
  while (waitpid(d->pid, &status, WNOHANG) == 0) {
    if (SecondsSince(start) > 10) {
      kill(d->pid, SIGKILL);
      waitpid(d->pid, &status, 0);
      break;
    }
    usleep(2000);
  }
  d->pid = -1;
}

/// Owns the daemon for the scope of the run, so every exit path stops it.
class DaemonGuard {
 public:
  explicit DaemonGuard(Daemon* d) : d_(d) {}
  ~DaemonGuard() { Stop(d_); }
  DaemonGuard(const DaemonGuard&) = delete;
  DaemonGuard& operator=(const DaemonGuard&) = delete;

 private:
  Daemon* d_;
};

/// Sends one operation and checks its answer.
OpOutcome Send(int port, const Op& op, const Reference& ref) {
  OpOutcome out;
  const std::string request = QueryRequest(op);
  std::string response;
  const auto t0 = Clock::now();
  bool exchanged = false;
  {
    aqua::obs::TraceSpan span("server.http_round_trip");
    exchanged = Exchange(port, request, &response);
  }
  out.latency_s = SecondsSince(t0);
  if (!exchanged) {
    out.error = "connection failed";
    return out;
  }
  std::string body;
  const int status = StatusAndBody(response, &body);
  if (status != 200) {
    out.error = "HTTP " + std::to_string(status) + ": " + body;
    return out;
  }
  out.ok = true;
  // Counted without the stats objects and the Content-Length digits, so
  // that the counts repeat exactly.
  const size_t stats_bytes = StatsBytes(body);
  out.answer_bytes = body.size() - stats_bytes;
  out.response_bytes = response.size() - stats_bytes -
                       std::to_string(body.size()).size();
  AnswerView view;
  std::vector<GroupView> groups;
  bool grouped = false;
  out.check_error = ParseServiceBody(body, &view, &groups, &grouped);
  if (!out.check_error.empty()) return out;
  const std::vector<double>* want = ref.Find(op.ref_key);
  if (want == nullptr) {
    out.check_error = "no reference for " + op.ref_key;
    return out;
  }
  if (grouped) {
    for (const GroupView& g : groups) {
      out.steps += g.answer.steps;
      out.support += g.answer.dist.size();
    }
    out.engine_us = -1;  // per-group wall times only
    out.check_error = CheckGroups(op, groups, *want);
  } else {
    out.steps = view.steps;
    out.support = view.dist.size();
    out.engine_us = static_cast<double>(view.wall_time_us);
    out.check_error = CheckAnswer(op, view, *want);
  }
  return out;
}

/// A closed-loop phase of whole rounds over kConnections connections.
struct Phase {
  std::vector<double> latencies_ms;
  std::vector<double> overhead_ms;  // round trip minus engine wall time
  std::map<std::string, std::vector<double>> by_label;
  RoundCounts counts;               // of the phase's first round
  uint64_t rounds = 0, attempted = 0, failed = 0;
  double elapsed_s = 0;
  std::vector<std::string> errors;        // the program did not answer
  std::vector<std::string> check_errors;  // it answered wrongly
};

Phase RunPhase(const Args& args, int port, const Reference& ref,
               uint64_t first_round, double seconds, int max_rounds) {
  const size_t per_round = SmRound(args.seed, 0).size();
  std::mutex mu;
  uint64_t next = 0;
  uint64_t limit = max_rounds > 0
                       ? static_cast<uint64_t>(max_rounds) * per_round
                       : UINT64_MAX;
  std::map<uint64_t, std::vector<Op>> rounds;
  Phase phase;
  auto worker = [&] {
    while (true) {
      Op op;
      uint64_t index = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (next >= limit) return;
        index = next++;
        const uint64_t r = index / per_round;
        auto it = rounds.find(r);
        if (it == rounds.end()) {
          it = rounds.emplace(r, SmRound(args.seed, first_round + r)).first;
        }
        op = it->second[index % per_round];
      }
      const OpOutcome o = Send(port, op, ref);
      std::lock_guard<std::mutex> lock(mu);
      ++phase.attempted;
      if (!o.ok) {
        ++phase.failed;
        phase.errors.push_back(op.label + ": " + o.error);
        continue;
      }
      if (!o.check_error.empty()) {
        phase.check_errors.push_back(op.label + " [" + op.sql + "]: " +
                                     o.check_error);
      }
      phase.latencies_ms.push_back(o.latency_s * 1e3);
      phase.by_label[op.label].push_back(o.latency_s * 1e3);
      if (o.engine_us >= 0) {
        phase.overhead_ms.push_back(o.latency_s * 1e3 - o.engine_us / 1e3);
      }
      if (index < per_round) phase.counts.Add(o);
    }
  };
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int i = 0; i < kConnections; ++i) threads.emplace_back(worker);
  if (max_rounds == 0) {
    while (SecondsSince(start) < seconds) usleep(1000);
    std::lock_guard<std::mutex> lock(mu);
    // Finish the round in progress (at least one), then stop.
    const uint64_t taken = std::max<uint64_t>(next, 1);
    limit = (taken + per_round - 1) / per_round * per_round;
  }
  for (std::thread& t : threads) t.join();
  phase.elapsed_s = SecondsSince(start);
  phase.rounds = limit / per_round;
  return phase;
}

}  // namespace

int RunService(const Args& args, RunResult* result) {
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
  const std::string log = args.dir + "/aquad.log";
  TraceSession trace(args.trace);

  // In a traced run the layers aquad calls are first timed in process, on
  // the same files and the same rounds, with the benchmark's spans.
  LayerTimes setup_times, probe_times;
  if (args.trace) {
    const aqua::Engine engine{aqua::EngineOptions{}};
    LoadedSource source;
    trace.Enable(true);
    for (int rep = 0; rep < 3; ++rep) {
      std::string rejected;
      source = LoadedSource{};
      const std::string err =
          LoadSource(files.data, EbaySchemaSpec(), files.mapping,
                     EbayPMapping(), &source, &setup_times, &rejected);
      if (!err.empty()) {
        std::fprintf(stderr, "run: %s\n", err.c_str());
        return 1;
      }
    }
    const auto start = Clock::now();
    for (uint64_t r = 0;; ++r) {
      if (args.max_rounds > 0 ? r >= static_cast<uint64_t>(args.max_rounds)
                              : (r > 0 && SecondsSince(start) >=
                                              args.seconds * 0.25)) {
        break;
      }
      for (const Op& op : SmRound(args.seed, r)) {
        const auto* want = ref.Find(op.ref_key);
        if (want == nullptr) {
          result->Fail("no reference for " + op.ref_key);
          continue;
        }
        const OpOutcome o =
            ExecInProcess(op, source, engine, *want, &probe_times);
        if (!o.ok) result->Fail(op.label + ": " + o.error);
        if (!o.check_error.empty()) {
          result->Fail(op.label + " (in process): " + o.check_error);
        }
      }
    }
    trace.Enable(false);
  }

  // Set-up: spawn to first healthy /healthz, repeated; the last daemon
  // serves the timed phase.
  std::vector<double> setup_s, first_s;
  Daemon daemon;
  DaemonGuard guard(&daemon);
  const Op first = SmRound(args.seed, 0).front();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Stop(&daemon);
    daemon = Daemon{};
    const auto t0 = Clock::now();
    if (!Spawn(args, files, log, &daemon) || !WaitHealthy(log, &daemon, 60)) {
      std::fprintf(stderr, "run: aquad did not become healthy (see %s)\n",
                   log.c_str());
      return 1;
    }
    const auto t1 = Clock::now();
    const OpOutcome o = Send(daemon.port, first, ref);
    const auto t2 = Clock::now();
    if (!o.ok || !o.check_error.empty()) {
      result->Fail("set-up first answer: " + o.error + o.check_error);
    }
    setup_s.push_back(SecondsBetween(t0, t1));
    first_s.push_back(SecondsBetween(t0, t2));
  }

  // Timed phase. A traced run splits it into an untraced and a traced
  // half, which measures what the client-side spans cost.
  const double cpu0 = ChildCpuSeconds(daemon.pid);
  std::vector<Phase> phases;
  if (!args.trace) {
    phases.push_back(RunPhase(args, daemon.port, ref, 0, args.seconds,
                              args.max_rounds));
  } else {
    const double half = args.seconds * 0.375;
    phases.push_back(RunPhase(args, daemon.port, ref, 0, half,
                              args.max_rounds));
    trace.Enable(true);
    phases.push_back(RunPhase(args, daemon.port, ref, phases[0].rounds, half,
                              args.max_rounds));
    trace.Enable(false);
  }
  const double cpu = ChildCpuSeconds(daemon.pid) - cpu0;
  const double peak_rss = ChildPeakRssMb(daemon.pid);
  Stop(&daemon);

  for (const Phase& p : phases) {
    result->attempted += p.attempted;
    result->failed += p.failed;
    for (const std::string& e : p.errors) {
      std::fprintf(stderr, "run: %s\n", e.c_str());
    }
    for (const std::string& e : p.check_errors) result->Fail(e);
  }
  RoundCounts counts = phases[0].counts;
  counts.storage_bytes = FileBytes(files.data) + FileBytes(files.mapping);
  counts.fingerprint = ref.Find(kFingerprintKey);
  std::printf("rounds=%llu requests=%zu elapsed_s=%.3f\n",
              static_cast<unsigned long long>(phases[0].rounds),
              phases[0].latencies_ms.size(), phases[0].elapsed_s);
  PrintLatencyTable(phases[0].by_label);
  if (!args.trace) {
    const Phase& p = phases[0];
    AddEndToEnd(setup_s, first_s, p.latencies_ms, p.elapsed_s, peak_rss,
                result);
  } else {
    LayerReport layers = LayerReport::From(setup_times, probe_times, 1);
    layers.csv_mb_per_s =
        layers.csv_read_s > 0
            ? static_cast<double>(FileBytes(files.data)) / 1e6 /
                  layers.csv_read_s
            : 0;
    layers.cpu_s = cpu;
    std::vector<double> overhead = phases[0].overhead_ms;
    overhead.insert(overhead.end(), phases[1].overhead_ms.begin(),
                    phases[1].overhead_ms.end());
    layers.server_overhead_ms = Median(overhead);
    layers.trace_overhead_pct = TraceOverheadPct(
        phases[1].elapsed_s, static_cast<int>(phases[1].rounds),
        phases[0].elapsed_s, static_cast<int>(phases[0].rounds));
    layers.counts = counts;
    AddLayerMetrics(layers, result);
    trace.Finish(args.trace_file);
  }
  result->counts = counts.Items();
  return 0;
}

}  // namespace aquabench
