// dpstore_bench: end-to-end benchmark of the dpstore deployment.
//
// One run measures one workload (catalogue and reasons in README.md). It
// forks fresh dpstore_server processes (--threads 2), builds two client
// schemes over real sockets, and drives them from two client threads:
//
//   setup        fork servers + build (upload) both clients' arenas,
//                repeated kSetups times; setup_s is the median
//   open loop    first half of --seconds at the workload's fixed offered
//                rate; latency is measured from each op's scheduled send
//                time, so a stall is charged to every op queued behind it
//   closed loop  second half, zero think time: saturation throughput and
//                the CPU cost per op on both sides of the wire
//
// Every acked read is checked against the client's exact model of its own
// arena (MarkerBlock or the last value written); a mismatch fails the run.
//
// With --trace 1 the run is instead the layer ladder: one client, closed
// loop, over rungs engine -> engine_durable -> server -> server_durable ->
// cluster2, with op and exchange spans recorded from this file (see
// span_trace.h) plus probes of the crypto and kernel entry points. Layer
// time is the difference between rungs.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Every metric is also printed as "<workload> <metric>
// <value> <unit>" and, with --out, written to a JSON file.
//
// Usage:
//   dpstore_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                 [--out FILE] [--spans FILE] [--workdir DIR]
//                 [--server PATH] [--small]
// --small shrinks every workload to n = 2^10 for the smoke test.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "load_gen.h"
#include "server_process.h"
#include "span_trace.h"

#include "core/scheme_registry.h"
#include "crypto/cipher.h"
#include "crypto/dpf.h"
#include "storage/engine.h"
#include "storage/kernels.h"
#include "util/random.h"

#ifndef DPSTORE_SERVER_BIN
#define DPSTORE_SERVER_BIN "dpstore_server"
#endif

namespace dpstore {
namespace {

using bench::Clock;

constexpr unsigned kClients = 2;
constexpr int kSetups = 3;
constexpr size_t kValueSize = 64;
constexpr uint32_t kUnknownVersion = ~uint32_t{0};
// A traced pass runs for its time slice but at least this many ops (so
// its p90 has ten samples beyond it) and at most kMaxTracedOps (bounding
// span memory), and never longer than four slices.
constexpr uint64_t kMinTracedOps = 100;
constexpr uint64_t kMaxTracedOps = 20000;

struct Workload {
  std::string name;
  std::string scheme;
  uint64_t n = 0;
  /// Open-loop offered load, ops/s across both clients.
  double rate = 0;
  double write_share = 0;
  /// dpstore_server processes (dpf_pir puts one replica in each).
  unsigned servers = 1;
  bool durable = false;
};

/// The benchmark's workloads; README.md records why each exists.
std::vector<Workload> Catalogue(bool small) {
  std::vector<Workload> all = {
      {"dpir_read", "dp_ir", uint64_t{1} << 16, 10000, 0.0, 1, false},
      {"pathoram_rw", "path_oram", uint64_t{1} << 16, 3000, 0.5, 1, false},
      {"dpram_rw_durable", "dp_ram", uint64_t{1} << 20, 3000, 0.5, 1, true},
      {"dpfpir_read", "dpf_pir", uint64_t{1} << 16, 40, 0.0, 2, false},
  };
  if (small) {
    const double small_rates[] = {2000, 1000, 500, 200};
    for (size_t i = 0; i < all.size(); ++i) {
      all[i].n = uint64_t{1} << 10;
      all[i].rate = small_rates[i];
    }
  }
  return all;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string spans;
  std::string workdir = ".bench_build/run";
  std::string server_bin = DPSTORE_SERVER_BIN;
  bool small = false;
};

/// SplitMix64 over (a, b): decorrelated seeds for every client and rung.
uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::vector<double> Sorted(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values;
}

double Median(std::vector<double> values) {
  values = Sorted(std::move(values));
  return values.empty() ? 0.0 : values[(values.size() - 1) / 2];
}

double ProcessCpuMs() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return (static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) *
          1e3) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e3;
}

// --- Clients and the correctness oracle -------------------------------------

/// One client's scheme plus an exact model of its private arena: every
/// record is MarkerBlock(id) until this client overwrites it, and nobody
/// else writes there.
class Client {
 public:
  struct Op {
    BlockId id = 0;
    bool write = false;
    uint32_t version = 0;
    Block value;
  };
  struct Reply {
    Status status = OkStatus();
    std::optional<Block> block;
  };

  Client(std::unique_ptr<RamScheme> scheme, const Workload& workload,
         uint64_t seed)
      : scheme_(std::move(scheme)),
        write_share_(workload.write_share),
        perp_allowed_(workload.scheme == "dp_ir"),
        seed_(seed),
        rng_(seed),
        versions_(workload.n, 0) {}

  RamScheme& scheme() { return *scheme_; }

  /// The next op of this client's seeded stream: a uniform key and, on
  /// write workloads, a coin for read vs. write.
  Op Next() {
    Op op;
    op.id = rng_.Uniform(versions_.size());
    op.write = write_share_ > 0 && rng_.Bernoulli(write_share_);
    if (op.write) {
      op.version = ++writes_issued_;
      op.value = ValueOf(op.id, op.version);
    }
    return op;
  }

  Reply Issue(Op& op) {
    Reply reply;
    if (op.write) {
      reply.status = scheme_->QueryWrite(op.id, std::move(op.value));
      return reply;
    }
    StatusOr<std::optional<Block>> got = scheme_->QueryRead(op.id);
    if (got.ok()) {
      reply.block = std::move(*got);
    } else {
      reply.status = got.status();
    }
    return reply;
  }

  /// Books one finished op against the model. Returns true when the op
  /// was acked, so its latency counts; a wrong reply is still acked.
  bool Settle(const Op& op, const Reply& reply) {
    ++attempted_;
    if (!reply.status.ok()) {
      ++errors_;
      // A failed write may or may not have landed: stop checking the id.
      if (op.write) versions_[op.id] = kUnknownVersion;
      Note(reply.status.ToString());
      return false;
    }
    if (op.write) {
      versions_[op.id] = op.version;
      return true;
    }
    ++reads_;
    if (!reply.block.has_value()) {
      if (perp_allowed_) {
        ++perps_;  // dp_ir's alpha branch: an allowed, acked non-answer
        return true;
      }
      ++mismatches_;
      Note("read of " + std::to_string(op.id) + " returned no block");
      return true;
    }
    const uint32_t version = versions_[op.id];
    const bool match =
        version == kUnknownVersion ||
        (version == 0 ? IsMarkerBlock(*reply.block, op.id)
                      : *reply.block == ValueOf(op.id, version));
    if (!match) {
      ++mismatches_;
      Note("read of " + std::to_string(op.id) + " returned wrong bytes");
    }
    return true;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t errors() const { return errors_; }
  uint64_t mismatches() const { return mismatches_; }
  uint64_t reads() const { return reads_; }
  uint64_t perps() const { return perps_; }
  const std::string& first_problem() const { return first_problem_; }

 private:
  Block ValueOf(BlockId id, uint32_t version) const {
    Rng rng(Mix(seed_, (id << 32) ^ version));
    return RandomBlock(&rng, kValueSize);
  }
  void Note(const std::string& what) {
    if (first_problem_.empty()) first_problem_ = what;
  }

  std::unique_ptr<RamScheme> scheme_;
  double write_share_;
  bool perp_allowed_;
  uint64_t seed_;
  Rng rng_;
  std::vector<uint32_t> versions_;
  uint32_t writes_issued_ = 0;
  uint64_t attempted_ = 0;
  uint64_t errors_ = 0;
  uint64_t mismatches_ = 0;
  uint64_t reads_ = 0;
  uint64_t perps_ = 0;
  std::string first_problem_;
};

// --- Load phases -------------------------------------------------------------

struct PhaseSamples {
  /// Latency of every acked op (ms).
  std::vector<double> latency_ms;
  /// Generator lateness (us), open loop only.
  std::vector<double> lag_us;
  uint64_t ops = 0;
  /// Phase start to the last op's completion.
  double seconds = 0;
  /// An open-loop client overran its phase by a whole phase length and
  /// dropped the rest of its schedule.
  bool truncated = false;

  void Merge(PhaseSamples other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    lag_us.insert(lag_us.end(), other.lag_us.begin(), other.lag_us.end());
    ops += other.ops;
    seconds = std::max(seconds, other.seconds);
    truncated = truncated || other.truncated;
  }
};

/// Runs `body(index, client, samples)` on one thread per client and merges
/// what they measured.
PhaseSamples RunOnThreads(
    const std::vector<Client*>& clients,
    const std::function<void(unsigned, Client&, PhaseSamples&)>& body) {
  std::vector<PhaseSamples> per(clients.size());
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (unsigned c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] { body(c, *clients[c], per[c]); });
  }
  for (std::thread& thread : threads) thread.join();
  PhaseSamples merged;
  for (PhaseSamples& samples : per) merged.Merge(std::move(samples));
  return merged;
}

/// Open loop: the clients share `rate` ops/s on a fixed schedule for
/// `seconds`; each op's latency runs from its due time. A client that
/// falls behind (a host stall, or a rate past capacity) catches up at full
/// speed, unless the phase overruns by a whole phase length: then it drops
/// the rest of its schedule, so a run always ends.
PhaseSamples RunOpenLoop(const std::vector<Client*>& clients, double rate,
                         double seconds) {
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const Clock::time_point give_up = end + (end - start);
  const unsigned count = static_cast<unsigned>(clients.size());
  return RunOnThreads(clients, [&](unsigned c, Client& client,
                                   PhaseSamples& samples) {
    const bench::OpenLoopSchedule schedule(start, rate, count, c);
    Clock::time_point last = start;
    for (uint64_t i = 0;; ++i) {
      const Clock::time_point due = schedule.Due(i);
      if (due >= end) break;
      Client::Op op = client.Next();
      if (const std::optional<double> lag = bench::SleepUntilDue(due)) {
        samples.lag_us.push_back(*lag);
      } else if (Clock::now() > give_up) {
        samples.truncated = true;
        break;
      }
      const Client::Reply reply = client.Issue(op);
      last = Clock::now();
      ++samples.ops;
      if (client.Settle(op, reply)) {
        samples.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(last - due).count());
      }
    }
    samples.seconds = Seconds(last - start);
  });
}

/// Closed loop: every client issues its next op as soon as the previous
/// one returns, until `seconds` have passed and it has done `min_ops`, or
/// it reaches `max_ops`, or four times `seconds` pass. A non-null
/// `tracer` (single client only) records op spans; a non-null `completed`
/// counts finished ops as they happen.
PhaseSamples RunClosedLoop(const std::vector<Client*>& clients,
                           double seconds, uint64_t min_ops, uint64_t max_ops,
                           bench::Tracer* tracer,
                           std::atomic<uint64_t>* completed = nullptr) {
  DPSTORE_CHECK(tracer == nullptr || clients.size() == 1);
  std::latch ready(static_cast<ptrdiff_t>(clients.size()));
  return RunOnThreads(clients, [&](unsigned, Client& client,
                                   PhaseSamples& samples) {
    ready.arrive_and_wait();
    const Clock::time_point start = Clock::now();
    Clock::time_point now = start;
    for (;;) {
      const double elapsed = Seconds(now - start);
      if ((elapsed >= seconds && samples.ops >= min_ops) ||
          samples.ops >= max_ops || elapsed >= 4 * seconds) {
        break;
      }
      Client::Op op = client.Next();
      if (tracer != nullptr) tracer->BeginOp();
      const Clock::time_point sent = Clock::now();
      const Client::Reply reply = client.Issue(op);
      now = Clock::now();
      if (tracer != nullptr) tracer->EndOp(reply.status.ok());
      if (completed != nullptr) {
        completed->fetch_add(1, std::memory_order_relaxed);
      }
      ++samples.ops;
      if (client.Settle(op, reply)) {
        samples.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(now - sent).count());
      }
    }
    samples.seconds = Seconds(now - start);
  });
}

// --- Deployments ---------------------------------------------------------------

/// Servers, clients and data directories of one setup. Tearing down kills
/// the servers and deletes their data; Stop() is the checked graceful
/// path.
class Deployment {
 public:
  Deployment() = default;
  ~Deployment() {
    clients.clear();
    for (auto& server : servers) server->Kill();
    RemoveData();
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  std::vector<Client*> ClientPointers() const {
    std::vector<Client*> out;
    for (const auto& client : clients) out.push_back(client.get());
    return out;
  }

  double ServerCpuMs() const {
    double total = 0;
    for (const auto& server : servers) total += server->CpuMs();
    return total;
  }

  double ServerRssMiB() const {
    double total = 0;
    for (const auto& server : servers) total += server->PeakRssMiB();
    return total;
  }

  TransportStats Totals() const {
    TransportStats total;
    for (const auto& client : clients) {
      total += client->scheme().TransportTotals();
    }
    return total;
  }

  /// Closes the clients' connections, drains every server (each must
  /// exit 0), and deletes the data directories.
  Status Stop() {
    clients.clear();
    Status status = OkStatus();
    for (auto& server : servers) {
      const Status stopped = server->Stop();
      if (status.ok()) status = stopped;
    }
    RemoveData();
    return status;
  }

  std::vector<std::unique_ptr<bench::ServerProcess>> servers;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::string> data_dirs;

 private:
  void RemoveData() {
    std::error_code ignored;
    for (const std::string& dir : data_dirs) {
      std::filesystem::remove_all(dir, ignored);
    }
    data_dirs.clear();
  }
};

/// Forks `count` servers named `tag`-s<k>, durable ones each with its own
/// fresh data directory.
Status StartServers(const Options& options, const std::string& tag,
                    unsigned count, bool durable, Deployment* deployment) {
  for (unsigned k = 0; k < count; ++k) {
    const std::string base = options.workdir + "/" + tag + "-s" +
                             std::to_string(k);
    std::vector<std::string> args = {"--threads", "2"};
    if (durable) {
      const std::string dir = base + ".data";
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
      deployment->data_dirs.push_back(dir);
      args.push_back("--data-dir");
      args.push_back(dir);
    }
    auto server = std::make_unique<bench::ServerProcess>();
    std::error_code ignored;
    std::filesystem::remove(base + ".log", ignored);
    DPSTORE_RETURN_IF_ERROR(server->Start(options.server_bin, base + ".sock",
                                          args, base + ".log"));
    deployment->servers.push_back(std::move(server));
  }
  return OkStatus();
}

/// The workload's SchemeConfig for client `c` over the socket transport.
SchemeConfig SocketConfig(const Options& options, const Workload& workload,
                          const Deployment& deployment, unsigned c) {
  SchemeConfig config;
  config.n = workload.n;
  config.value_size = kValueSize;
  config.seed = Mix(options.seed, 0x200 + c);
  config.counting_only_transcript = true;
  config.backend = "socket";
  config.socket_path = deployment.servers[0]->socket();
  if (deployment.servers.size() > 1) {
    config.socket_path2 = deployment.servers[1]->socket();
  }
  // Durable arenas must be shared namespaces (private ones never touch
  // disk); each client gets its own id, so its model stays exact.
  if (workload.durable) config.socket_namespace_base = 1 + 16 * c;
  return config;
}

/// One end-to-end setup: fresh servers, both clients built (their arenas
/// uploaded), and for the durable workload everything synced to disk.
StatusOr<std::unique_ptr<Deployment>> Deploy(const Options& options,
                                             const Workload& workload,
                                             int generation) {
  auto deployment = std::make_unique<Deployment>();
  DPSTORE_RETURN_IF_ERROR(StartServers(
      options, workload.name + "-g" + std::to_string(generation),
      workload.servers, workload.durable, deployment.get()));
  for (unsigned c = 0; c < kClients; ++c) {
    const SchemeConfig config = SocketConfig(options, workload, *deployment, c);
    DPSTORE_ASSIGN_OR_RETURN(
        std::unique_ptr<RamScheme> scheme,
        SchemeRegistry::Instance().MakeRam(workload.scheme, config));
    deployment->clients.push_back(std::make_unique<Client>(
        std::move(scheme), workload, Mix(options.seed, 0x100 + c)));
  }
  // Timing starts on a clean page cache: the arena images are on disk.
  if (workload.durable) ::sync();
  return deployment;
}

/// The end-to-end closed loop, sampled in equal rounds. Each whole round
/// yields its throughput and both sides' CPU cost per op; the run reports
/// the median round, so a host stall in one round moves the result less
/// than it moves a whole-phase mean.
struct ClosedLoopRounds {
  PhaseSamples samples;
  std::vector<double> ops_per_s;
  std::vector<double> server_cpu_ms_per_op;
  std::vector<double> client_cpu_ms_per_op;
};

ClosedLoopRounds RunSampledClosedLoop(const Deployment& deployment,
                                      double seconds) {
  constexpr int kRounds = 10;
  const auto round = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / kRounds));
  std::atomic<uint64_t> completed{0};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;  // guarded by mu
  ClosedLoopRounds out;
  std::thread sampler([&] {
    struct Mark {
      Clock::time_point at;
      uint64_t ops;
      double server_ms;
      double client_ms;
    };
    const auto mark = [&] {
      return Mark{Clock::now(), completed.load(std::memory_order_relaxed),
                  deployment.ServerCpuMs(), ProcessCpuMs()};
    };
    Mark previous = mark();
    std::unique_lock<std::mutex> lock(mu);
    // A round cut short by the end of the phase is dropped.
    while (!cv.wait_until(lock, previous.at + round, [&] { return done; })) {
      const Mark now = mark();
      const double ops = static_cast<double>(now.ops - previous.ops);
      if (ops > 0) {
        out.ops_per_s.push_back(ops / Seconds(now.at - previous.at));
        out.server_cpu_ms_per_op.push_back(
            (now.server_ms - previous.server_ms) / ops);
        out.client_cpu_ms_per_op.push_back(
            (now.client_ms - previous.client_ms) / ops);
      }
      previous = now;
    }
  });
  out.samples = RunClosedLoop(deployment.ClientPointers(), seconds, 0,
                              ~uint64_t{0}, nullptr, &completed);
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  sampler.join();
  return out;
}

// --- Reporting -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string FormatNumber(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Collects one run's metrics; prints them and the closing JSON line.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Printed and written to --out, but not part of the closing line.
  void Diagnostic(const std::string& name, double value,
                  const std::string& unit) {
    diagnostics_.push_back({name, value, unit});
  }

  /// Prints every metric line and the result line; writes `out` when set.
  /// Returns false when a value is not a finite number or --out fails.
  bool Emit(bool correct, uint64_t attempted, uint64_t failed,
            const Options& options) const {
    bool ok = true;
    for (const std::vector<Metric>* list : {&metrics_, &diagnostics_}) {
      for (const Metric& m : *list) {
        ok = ok && std::isfinite(m.value);
        std::printf("%s %s %s %s\n", workload_.c_str(), m.name.c_str(),
                    FormatNumber(m.value).c_str(), m.unit.c_str());
      }
    }
    const std::string result = ResultJson(correct, attempted, failed);
    if (!options.out.empty()) {
      std::ofstream file(options.out);
      file << "{\"workload\": \"" << workload_ << "\", \"seed\": "
           << options.seed << ", \"seconds\": " << FormatNumber(options.seconds)
           << ", \"trace\": " << (options.trace ? 1 : 0)
           << ", \"diagnostics\": " << MetricsJson(diagnostics_)
           << ", \"result\": " << result << "}\n";
      if (!file) {
        std::fprintf(stderr, "dpstore_bench: cannot write %s\n",
                     options.out.c_str());
        ok = false;
      }
    }
    if (!ok) return false;
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return true;
  }

 private:
  static std::string MetricsJson(const std::vector<Metric>& metrics) {
    std::string json = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
      json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
              "\": {\"value\": " + FormatNumber(metrics[i].value) +
              ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return json + "}";
  }

  std::string ResultJson(bool correct, uint64_t attempted,
                         uint64_t failed) const {
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) +
           ", \"metrics\": " + MetricsJson(metrics_) + "}";
  }

  std::string workload_;
  std::vector<Metric> metrics_;
  std::vector<Metric> diagnostics_;
};

struct Tally {
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t mismatches = 0;
  uint64_t reads = 0;
  uint64_t perps = 0;

  void Add(const Client& client) {
    attempted += client.attempted();
    errors += client.errors();
    mismatches += client.mismatches();
    reads += client.reads();
    perps += client.perps();
    if (!client.first_problem().empty()) {
      std::fprintf(stderr, "dpstore_bench: %s\n",
                   client.first_problem().c_str());
    }
  }
};

/// Adds a percentile that must be supported by the sample.
bool AddPercentile(Report& report, const std::string& name,
                   const std::vector<double>& sorted, uint32_t permille,
                   const std::string& unit, bool diagnostic = false) {
  const std::optional<double> value = bench::Percentile(sorted, permille);
  if (!value.has_value()) {
    if (diagnostic) return true;
    std::fprintf(stderr,
                 "dpstore_bench: %s needs more samples than the %zu taken\n",
                 name.c_str(), sorted.size());
    return false;
  }
  if (diagnostic) {
    report.Diagnostic(name, *value, unit);
  } else {
    report.Add(name, *value, unit);
  }
  return true;
}

// --- End-to-end run ------------------------------------------------------------

int RunEndToEnd(const Options& options, const Workload& workload) {
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> live;
  for (int generation = 0; generation < kSetups; ++generation) {
    live.reset();  // the previous generation's servers and data go first
    const Clock::time_point t0 = Clock::now();
    StatusOr<std::unique_ptr<Deployment>> made =
        Deploy(options, workload, generation);
    if (!made.ok()) {
      std::fprintf(stderr, "dpstore_bench: setup failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(Seconds(Clock::now() - t0));
    live = std::move(*made);
  }
  const std::vector<Client*> clients = live->ClientPointers();

  // Warm-up: connections, allocator pools and caches settle before timing.
  RunClosedLoop(clients, options.small ? 0.05 : 0.3, 0, 2000, nullptr);
  const TransportStats totals_before = live->Totals();
  const PhaseSamples open =
      RunOpenLoop(clients, workload.rate, options.seconds / 2);
  const ClosedLoopRounds rounds =
      RunSampledClosedLoop(*live, options.seconds / 2);
  const PhaseSamples& closed = rounds.samples;
  const TransportStats moved = live->Totals() - totals_before;
  const double rss_mib = live->ServerRssMiB();

  Tally tally;
  for (const Client* client : clients) tally.Add(*client);
  const Status stopped = live->Stop();
  if (!stopped.ok()) {
    std::fprintf(stderr, "dpstore_bench: %s\n", stopped.ToString().c_str());
    return 1;
  }
  if (open.truncated) {
    std::fprintf(stderr,
                 "dpstore_bench: the open loop overran its phase and dropped "
                 "the rest of its schedule\n");
  }

  const std::vector<double> latency = Sorted(open.latency_ms);
  const std::vector<double> lag = Sorted(open.lag_us);
  const double closed_ops = static_cast<double>(closed.ops);
  Report report(workload.name);
  report.Add("setup_s", Median(setup_s), "s");
  bool ok = AddPercentile(report, "p50_ms", latency, 500, "ms") &&
            AddPercentile(report, "p90_ms", latency, 900, "ms");
  report.Add("sat_ops_s", Median(rounds.ops_per_s), "ops/s");
  report.Add("server_cpu_ms_per_op", Median(rounds.server_cpu_ms_per_op),
             "ms");
  report.Add("server_rss_mb", rss_mib, "MiB");
  report.Add("wire_bytes_per_op",
             static_cast<double>(moved.bytes_moved + moved.aux_bytes) /
                 static_cast<double>(open.ops + closed.ops),
             "B");
  // Client CPU per op is mostly the cost of thread wake-ups, which this
  // shared host prices very unevenly (its run-to-run spread reached 36% on
  // dpfpir_read), so it is reported beside the metrics, not among them.
  report.Diagnostic("client_cpu_ms_per_op",
                    Median(rounds.client_cpu_ms_per_op), "ms");
  AddPercentile(report, "p99_ms", latency, 990, "ms", true);
  AddPercentile(report, "gen_lag_us_p99", lag, 990, "us", true);
  AddPercentile(report, "gen_lag_us_p90", lag, 900, "us", true);
  report.Diagnostic("open_offered_ops_s", workload.rate, "ops/s");
  report.Diagnostic("open_achieved_ops_s",
                    static_cast<double>(open.ops) / open.seconds, "ops/s");
  report.Diagnostic("open_samples", static_cast<double>(latency.size()),
                    "count");
  report.Diagnostic("closed_ops", closed_ops, "count");
  report.Diagnostic("closed_mean_ops_s", closed_ops / closed.seconds, "ops/s");
  report.Diagnostic("closed_rounds",
                    static_cast<double>(rounds.ops_per_s.size()), "count");
  report.Diagnostic("closed_p50_ms", Median(closed.latency_ms), "ms");
  report.Diagnostic("perp_ratio",
                    tally.reads == 0 ? 0.0
                                     : static_cast<double>(tally.perps) /
                                           static_cast<double>(tally.reads),
                    "ratio");
  report.Diagnostic("open_truncated", open.truncated ? 1 : 0, "count");
  for (int g = 0; g < kSetups; ++g) {
    report.Diagnostic("setup_s_" + std::to_string(g), setup_s[g], "s");
  }
  const bool correct = tally.mismatches == 0;
  ok = ok && report.Emit(correct, tally.attempted,
                         tally.errors + tally.mismatches, options);
  if (!ok) return 1;
  return correct ? 0 : 1;
}

// --- Traced run: the layer ladder ----------------------------------------------

enum class RungKind { kEngine, kEngineDurable, kServer, kServerDurable, kCluster2 };

struct RungSpec {
  RungKind kind;
  const char* name;
};

constexpr RungSpec kRungs[] = {
    {RungKind::kEngine, "engine"},
    {RungKind::kEngineDurable, "engine_durable"},
    {RungKind::kServer, "server"},
    {RungKind::kServerDurable, "server_durable"},
    {RungKind::kCluster2, "cluster2"},
};

/// What one rung measured.
struct RungResult {
  std::string name;
  std::vector<bench::Span> spans;
  uint64_t ops = 0;
  double seconds = 0;
  double wire_bytes_per_op = 0;
  double measured_ms_per_op = 0;
  double retries_per_op = 0;
  double server_cpu_ms = 0;
  persist::PersistCounters persist;  // engine_durable: deltas over the pass
  // server rung only:
  double untraced_p50_ms = 0;
  double traced_p50_ms = 0;
  std::vector<double> lag_us;
  bench::DrainCounters drain;
};

/// Per-op and per-exchange times a rung's spans imply.
struct SpanStats {
  std::vector<double> op_us;
  std::vector<double> self_us;      // op minus the union of its exchanges
  std::vector<double> exchange_us;  // every exchange
  std::vector<double> upload_us;    // upload exchanges only
  uint64_t ops = 0;
  uint64_t exchanges = 0;
  uint64_t blocks = 0;
  uint64_t aux_bytes = 0;
};

SpanStats Analyze(const std::vector<bench::Span>& spans) {
  SpanStats stats;
  std::vector<std::pair<uint64_t, uint64_t>> children;
  for (const bench::Span& span : spans) {
    const double us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    if (span.kind != bench::SpanKind::kOp) {
      // Exchange spans precede their op's span in the buffer.
      children.emplace_back(span.start_ns, span.end_ns);
      stats.exchange_us.push_back(us);
      if (span.kind == bench::SpanKind::kUpload) stats.upload_us.push_back(us);
      ++stats.exchanges;
      stats.blocks += span.blocks;
      stats.aux_bytes += span.aux_bytes;
      continue;
    }
    // Self time: the op's duration minus the part its (possibly
    // overlapping) exchanges cover.
    std::sort(children.begin(), children.end());
    uint64_t covered = 0;
    uint64_t reach = span.start_ns;
    for (auto [start, end] : children) {
      start = std::max(start, reach);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    stats.op_us.push_back(us);
    stats.self_us.push_back(
        static_cast<double>(span.end_ns - span.start_ns - covered) / 1e3);
    ++stats.ops;
    children.clear();
  }
  return stats;
}

/// One rung's storage: an in-process engine or forked servers, plus the
/// factory a scheme builds its backends from.
struct RungEnv {
  Deployment processes;  // declared first: its data dirs outlive the engine
  std::shared_ptr<StorageEngine> engine;
  BackendFactory factory;
};

Status BuildRung(const Options& options, const Workload& workload,
                 RungKind kind, RungEnv* env) {
  const std::string tag = workload.name + "-trace";
  switch (kind) {
    case RungKind::kEngine:
    case RungKind::kEngineDurable: {
      StorageEngineOptions engine_options;
      engine_options.num_threads = 2;
      const bool durable = kind == RungKind::kEngineDurable;
      if (durable) {
        const std::string dir = options.workdir + "/" + tag + "-engine.data";
        std::error_code ignored;
        std::filesystem::remove_all(dir, ignored);
        env->processes.data_dirs.push_back(dir);
        engine_options.persist.data_dir = dir;
        engine_options.persist.checkpoint_on_close = false;
      }
      DPSTORE_ASSIGN_OR_RETURN(env->engine,
                               StorageEngine::Open(engine_options));
      auto next_id = std::make_shared<NamespaceId>(1);
      env->factory = [engine = env->engine, durable, next_id](
                         uint64_t n, size_t block_size) {
        // Durable arenas are shared namespaces; private ones stay in RAM.
        auto backend = std::make_unique<EngineBackend>(
            engine, n, block_size, durable ? (*next_id)++ : 0,
            durable ? AttachMode::kAttachOrCreate : AttachMode::kPrivate);
        backend->SetTranscriptCountingOnly(true);
        return std::unique_ptr<StorageBackend>(std::move(backend));
      };
      return OkStatus();
    }
    case RungKind::kServer:
    case RungKind::kServerDurable: {
      const bool durable = kind == RungKind::kServerDurable;
      DPSTORE_RETURN_IF_ERROR(StartServers(
          options, tag + (durable ? "-durable" : ""), workload.servers,
          durable, &env->processes));
      // The factory override bypasses the registry's socket_path2 split,
      // so replicas alternate between the servers here.
      std::vector<BackendFactory> per_server;
      for (const auto& server : env->processes.servers) {
        SchemeConfig config;
        config.backend = "socket";
        config.socket_path = server->socket();
        config.counting_only_transcript = true;
        if (durable) config.socket_namespace_base = 1;
        DPSTORE_ASSIGN_OR_RETURN(BackendFactory factory,
                                 BackendFactoryFor(config));
        per_server.push_back(std::move(factory));
      }
      auto next = std::make_shared<size_t>(0);
      env->factory = [per_server, next](uint64_t n, size_t block_size) {
        return per_server[(*next)++ % per_server.size()](n, block_size);
      };
      return OkStatus();
    }
    case RungKind::kCluster2: {
      DPSTORE_RETURN_IF_ERROR(
          StartServers(options, tag + "-cluster", 2, false, &env->processes));
      SchemeConfig config;
      config.backend = "cluster";
      config.counting_only_transcript = true;
      config.cluster_config =
          "slots 2\n"
          "node a unix:" + env->processes.servers[0]->socket() + "\n" +
          "node b unix:" + env->processes.servers[1]->socket() + "\n" +
          "range 0 1 a\n"
          "range 1 2 b\n";
      DPSTORE_ASSIGN_OR_RETURN(env->factory, BackendFactoryFor(config));
      return OkStatus();
    }
  }
  return InternalError("unknown rung");
}

/// Builds one rung, runs its passes with a single client, and tears it
/// down. `slice` is the time budget of one pass.
Status RunRung(const Options& options, const Workload& workload,
               const RungSpec& rung, double slice, Tally* tally,
               RungResult* result) {
  result->name = rung.name;
  RungEnv env;
  DPSTORE_RETURN_IF_ERROR(BuildRung(options, workload, rung.kind, &env));
  bench::Tracer tracer;
  SchemeConfig config;
  config.n = workload.n;
  config.value_size = kValueSize;
  config.seed = Mix(options.seed, 0x200);
  config.counting_only_transcript = true;
  config.backend_factory = bench::TimedFactory(env.factory, &tracer);
  DPSTORE_ASSIGN_OR_RETURN(
      std::unique_ptr<RamScheme> scheme,
      SchemeRegistry::Instance().MakeRam(workload.scheme, config));
  // Every rung replays client 0's op stream from the end-to-end run.
  auto client =
      std::make_unique<Client>(std::move(scheme), workload, Mix(options.seed, 0x100));
  const std::vector<Client*> clients = {client.get()};

  RunClosedLoop(clients, options.small ? 0.05 : 0.2, 0, 500, nullptr);
  // On the server rung, untraced half-passes bracket the traced pass so
  // drift on a shared machine does not masquerade as tracing overhead.
  const bool server_rung = rung.kind == RungKind::kServer;
  PhaseSamples untraced;
  const auto run_untraced = [&] {
    untraced.Merge(RunClosedLoop(clients, slice / 2, kMinTracedOps / 2,
                                 kMaxTracedOps / 2, nullptr));
  };
  if (server_rung) run_untraced();
  const TransportStats before = client->scheme().TransportTotals();
  const double cpu_before = env.processes.ServerCpuMs();
  const persist::PersistCounters persist_before =
      env.engine ? env.engine->Counters().persist : persist::PersistCounters{};
  tracer.set_enabled(true);
  const PhaseSamples traced =
      RunClosedLoop(clients, slice, kMinTracedOps, kMaxTracedOps, &tracer);
  tracer.set_enabled(false);
  const TransportStats moved = client->scheme().TransportTotals() - before;
  result->server_cpu_ms = env.processes.ServerCpuMs() - cpu_before;
  if (env.engine) {
    const persist::PersistCounters after = env.engine->Counters().persist;
    result->persist.fsyncs = after.fsyncs - persist_before.fsyncs;
    result->persist.group_commit_riders =
        after.group_commit_riders - persist_before.group_commit_riders;
    result->persist.journal_bytes =
        after.journal_bytes - persist_before.journal_bytes;
  }
  result->spans = tracer.Take();
  result->ops = traced.ops;
  result->seconds = traced.seconds;
  result->traced_p50_ms = Median(traced.latency_ms);
  const double ops = static_cast<double>(traced.ops);
  result->wire_bytes_per_op =
      static_cast<double>(moved.bytes_moved + moved.aux_bytes) / ops;
  result->measured_ms_per_op = moved.measured_wall_ms / ops;
  result->retries_per_op = static_cast<double>(moved.retries) / ops;

  if (server_rung) {
    run_untraced();
    result->untraced_p50_ms = Median(untraced.latency_ms);
    // Generator lateness at this client's share of the end-to-end rate,
    // long enough for a p90 with ten samples beyond it.
    const double rate = workload.rate / kClients;
    result->lag_us =
        RunOpenLoop(clients, rate, std::max(slice, 1.1 * kMinTracedOps / rate))
            .lag_us;
  }
  tally->Add(*client);
  client.reset();  // close the connections before the servers drain
  DPSTORE_RETURN_IF_ERROR(env.processes.Stop());
  if (server_rung) {
    const std::optional<bench::DrainCounters> drain =
        bench::ParseDrainLine(env.processes.servers[0]->log());
    if (!drain.has_value()) {
      return InternalError("no drain line in " +
                           env.processes.servers[0]->log());
    }
    result->drain = *drain;
  }
  return OkStatus();
}

struct Probes {
  double cipher_ns_per_block = 0;
  double dpf_gen_us = 0;
  double dpf_eval_full_ms = 0;
  double scan_gib_s = 0;
};

/// Times `body` `reps` times and returns the median seconds per call.
double MedianSeconds(int reps, const std::function<void()>& body) {
  std::vector<double> runs;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    body();
    runs.push_back(Seconds(Clock::now() - t0));
  }
  return Median(runs);
}

/// Probes the crypto and kernel entry points on the workload's shapes:
/// its record size and its DPF domain depth. The scan runs over a 64 MiB
/// arena, the size at which it is memory-bound.
Probes RunProbes(const Workload& workload, uint64_t seed) {
  Probes probes;
  Rng rng(seed);
  const crypto::Cipher cipher = crypto::Cipher::WithRandomKey();
  const size_t slot = crypto::Cipher::CiphertextSize(kValueSize);
  constexpr size_t kSlots = 4096;
  std::vector<uint8_t> slots(kSlots * slot, 0x5A);
  probes.cipher_ns_per_block =
      MedianSeconds(7, [&] {
        for (size_t i = 0; i < kSlots; ++i) {
          cipher.EncryptInPlace(MutableBlockView(&slots[i * slot], slot));
        }
      }) * 1e9 / kSlots;

  uint8_t depth = 1;
  while ((uint64_t{1} << depth) < workload.n) ++depth;
  constexpr int kGens = 64;
  probes.dpf_gen_us =
      MedianSeconds(7, [&] {
        for (int i = 0; i < kGens; ++i) {
          DPSTORE_CHECK_OK(
              crypto::DpfGen(rng.Uniform(workload.n), depth).status());
        }
      }) * 1e6 / kGens;
  const crypto::DpfKeyPair pair = *crypto::DpfGen(rng.Uniform(workload.n), depth);
  uint64_t sink = 0;
  probes.dpf_eval_full_ms = MedianSeconds(3, [&] {
    sink += crypto::DpfEvalFull(pair.key0)[0];
  }) * 1e3;

  constexpr size_t kArenaBytes = size_t{64} << 20;
  const size_t blocks = kArenaBytes / kValueSize;
  std::vector<uint8_t> arena(kArenaBytes);
  for (size_t i = 0; i < kArenaBytes; i += 8) {
    const uint64_t word = rng.NextUint64();
    std::memcpy(&arena[i], &word, 8);
  }
  std::vector<uint64_t> bits((blocks + 63) / 64);
  for (uint64_t& word : bits) word = rng.NextUint64();
  std::vector<uint8_t> out(kValueSize, 0);
  probes.scan_gib_s =
      static_cast<double>(kArenaBytes) / static_cast<double>(1 << 30) /
      MedianSeconds(5, [&] {
        kernels::SelectXorScan(out.data(), arena.data(), blocks, kValueSize,
                               bits.data(), 0);
      });
  // Keep the results observable so no probe is optimized away.
  if (sink + out[0] == 0xFFFFFFFFFFFFFFFFULL) std::fprintf(stderr, " ");
  return probes;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

Status WriteSpans(const std::string& path,
                  const std::vector<RungResult>& rungs) {
  std::ofstream file(path);
  file << "rung\tspan\top\tstart_us\tdur_us\tblocks\taux_bytes\tok\n";
  for (const RungResult& rung : rungs) {
    for (const bench::Span& span : rung.spans) {
      file << rung.name << '\t' << bench::SpanName(span.kind) << '\t'
           << span.op << '\t' << static_cast<double>(span.start_ns) / 1e3
           << '\t' << static_cast<double>(span.end_ns - span.start_ns) / 1e3
           << '\t' << span.blocks << '\t' << span.aux_bytes << '\t'
           << (span.ok ? 1 : 0) << '\n';
    }
  }
  return file ? OkStatus() : InternalError("cannot write spans to " + path);
}

int RunTrace(const Options& options, const Workload& workload) {
  // Seven passes share the budget: five traced rungs, the two untraced
  // server half-passes and the generator-lag pass; the probes take about
  // one more.
  const double slice = options.seconds / 8;
  const Probes probes = RunProbes(workload, Mix(options.seed, 0x400));
  std::vector<RungResult> rungs(std::size(kRungs));
  Tally tally;
  for (size_t r = 0; r < rungs.size(); ++r) {
    const Status status =
        RunRung(options, workload, kRungs[r], slice, &tally, &rungs[r]);
    if (!status.ok()) {
      std::fprintf(stderr, "dpstore_bench: rung %s failed: %s\n",
                   kRungs[r].name, status.ToString().c_str());
      return 1;
    }
  }
  const RungResult& engine = rungs[0];
  const RungResult& engine_durable = rungs[1];
  const RungResult& server = rungs[2];
  const RungResult& cluster = rungs[4];
  const SpanStats at_engine = Analyze(engine.spans);
  const SpanStats at_durable = Analyze(engine_durable.spans);
  const SpanStats at_server = Analyze(server.spans);
  const SpanStats at_cluster = Analyze(cluster.spans);
  bool enough_samples = true;
  const auto percentile = [&](std::vector<double> values, uint32_t permille) {
    const std::optional<double> value =
        bench::Percentile(Sorted(std::move(values)), permille);
    enough_samples = enough_samples && value.has_value();
    return value.value_or(0.0);
  };
  const double self_p50 = percentile(at_engine.self_us, 500);
  const double self_p90 = percentile(at_engine.self_us, 900);
  const double engine_p50 = percentile(at_engine.exchange_us, 500);
  const double engine_p90 = percentile(at_engine.exchange_us, 900);
  const double server_p50 = percentile(at_server.exchange_us, 500);
  const double server_p90 = percentile(at_server.exchange_us, 900);
  const double cluster_p50 = percentile(at_cluster.exchange_us, 500);
  const double lag_p90 = percentile(server.lag_us, 900);
  if (!enough_samples) {
    std::fprintf(stderr, "dpstore_bench: a traced pass took too few "
                         "samples for its percentiles\n");
    return 1;
  }
  // Upload-free workloads have no journal sync to attribute.
  double upload_sync_us = 0;
  if (!at_engine.upload_us.empty() && !at_durable.upload_us.empty()) {
    upload_sync_us = Median(at_durable.upload_us) - Median(at_engine.upload_us);
  }
  const double ops = static_cast<double>(at_engine.ops);
  const double durable_ops = static_cast<double>(engine_durable.ops);

  Report report(workload.name);
  report.Add("scheme.self_us_p50", self_p50, "us");
  report.Add("scheme.self_us_p90", self_p90, "us");
  report.Add("scheme.exchanges_per_op",
             static_cast<double>(at_engine.exchanges) / ops, "count");
  report.Add("scheme.blocks_per_op",
             static_cast<double>(at_engine.blocks) / ops, "count");
  report.Add("scheme.aux_bytes_per_op",
             static_cast<double>(at_engine.aux_bytes) / ops, "B");
  report.Add("scheme.perp_ratio",
             Ratio(static_cast<double>(tally.perps),
                   static_cast<double>(tally.reads)),
             "ratio");
  report.Add("crypto.cipher_ns_per_block", probes.cipher_ns_per_block, "ns");
  report.Add("crypto.dpf_gen_us", probes.dpf_gen_us, "us");
  report.Add("crypto.dpf_eval_full_ms", probes.dpf_eval_full_ms, "ms");
  report.Add("kernels.select_xor_scan_gib_s", probes.scan_gib_s, "GiB/s");
  report.Add("engine.exchange_us_p50", engine_p50, "us");
  report.Add("engine.exchange_us_p90", engine_p90, "us");
  report.Add("engine.blocks_per_exchange",
             Ratio(static_cast<double>(at_engine.blocks),
                   static_cast<double>(at_engine.exchanges)),
             "count");
  report.Add("persist.upload_sync_us_p50", upload_sync_us, "us");
  report.Add("persist.fsyncs_per_op",
             static_cast<double>(engine_durable.persist.fsyncs) / durable_ops,
             "count");
  report.Add("persist.riders_per_fsync",
             Ratio(static_cast<double>(engine_durable.persist.group_commit_riders),
                   static_cast<double>(engine_durable.persist.fsyncs)),
             "count");
  report.Add("persist.journal_bytes_per_op",
             static_cast<double>(engine_durable.persist.journal_bytes) /
                 durable_ops,
             "B");
  report.Add("transport.overhead_us_p50", server_p50 - engine_p50, "us");
  report.Add("transport.overhead_us_p90", server_p90 - engine_p90, "us");
  report.Add("transport.measured_ms_per_op", server.measured_ms_per_op, "ms");
  report.Add("transport.retries_per_op", server.retries_per_op, "count");
  report.Add("service.fused_frame_ratio",
             Ratio(static_cast<double>(server.drain.fused_frames),
                   static_cast<double>(server.drain.exchanges)),
             "ratio");
  report.Add("service.frames_shed", static_cast<double>(server.drain.shed),
             "count");
  report.Add("server.cpu_util", server.server_cpu_ms / 1e3 / server.seconds,
             "cores");
  report.Add("cluster.overhead_us_p50", cluster_p50 - server_p50, "us");
  report.Add("gen.lag_us_p90", lag_p90, "us");
  report.Add("trace.overhead_pct",
             100.0 * (server.traced_p50_ms - server.untraced_p50_ms) /
                 server.untraced_p50_ms,
             "%");

  // The adversary's view must not depend on the deployment: every rung
  // moves exactly the same bytes per op.
  bool same_wire = true;
  for (const RungResult& rung : rungs) {
    report.Diagnostic(rung.name + ".wire_bytes_per_op", rung.wire_bytes_per_op,
                      "B");
    report.Diagnostic(rung.name + ".ops", static_cast<double>(rung.ops),
                      "count");
    report.Diagnostic(rung.name + ".op_p50_us",
                      Median(Analyze(rung.spans).op_us), "us");
    same_wire = same_wire && rung.wire_bytes_per_op == engine.wire_bytes_per_op;
  }
  if (!same_wire) {
    std::fprintf(stderr, "dpstore_bench: wire bytes per op differ across "
                         "rungs: the transport changed the adversary's view\n");
  }
  const std::string spans_path =
      options.spans.empty()
          ? options.workdir + "/spans-" + workload.name + ".tsv"
          : options.spans;
  const Status written = WriteSpans(spans_path, rungs);
  if (!written.ok()) {
    std::fprintf(stderr, "dpstore_bench: %s\n", written.ToString().c_str());
    return 1;
  }
  const bool correct = tally.mismatches == 0 && same_wire;
  if (!report.Emit(correct, tally.attempted, tally.errors + tally.mismatches,
                   options)) {
    return 1;
  }
  return correct ? 0 : 1;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1] [--out FILE] [--spans FILE] [--workdir DIR] "
               "[--server PATH] [--small]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace dpstore

int main(int argc, char** argv) {
  using namespace dpstore;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--out" && has_value) {
      options.out = argv[++i];
    } else if (arg == "--spans" && has_value) {
      options.spans = argv[++i];
    } else if (arg == "--workdir" && has_value) {
      options.workdir = argv[++i];
    } else if (arg == "--server" && has_value) {
      options.server_bin = argv[++i];
    } else if (arg == "--small") {
      options.small = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!(options.seconds > 0)) return Usage(argv[0]);
  const std::vector<Workload> catalogue = Catalogue(options.small);
  const auto workload =
      std::find_if(catalogue.begin(), catalogue.end(),
                   [&](const Workload& w) { return w.name == options.workload; });
  if (workload == catalogue.end()) {
    std::fprintf(stderr, "dpstore_bench: unknown workload '%s' (known:",
                 options.workload.c_str());
    for (const Workload& w : catalogue) std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }
  std::error_code created;
  std::filesystem::create_directories(options.workdir, created);
  if (created) {
    std::fprintf(stderr, "dpstore_bench: cannot create %s\n",
                 options.workdir.c_str());
    return 1;
  }
  if (!bench::SetTightTimerSlack()) {
    std::fprintf(stderr, "dpstore_bench: cannot set timer slack\n");
    return 1;
  }
  return options.trace ? RunTrace(options, *workload)
                       : RunEndToEnd(options, *workload);
}
