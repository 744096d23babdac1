// serve and cluster: the program is a spawned warp_serve (or warp_cluster
// with its shard workers), reached over loopback TCP. Datasets are
// restored from the seed's snapshot directory; requests come from the
// seed's pool; every reply is byte-compared with the reply a 1-thread
// in-process QueryEngine gives on the same snapshots.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "warp/cluster/proc.h"
#include "warp/serve/dataset_store.h"
#include "warp/serve/net.h"
#include "warp/serve/protocol.h"
#include "warp/serve/query_engine.h"
#include "warp/serve/snapshot.h"
#include "warp/serve/wire.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace serve = warp::serve;

// Client connections, each keeping kPipeline requests in flight in the
// closed loop (pipelined requests reach the server together, so it
// batches them).
constexpr size_t kConnections = 2;
constexpr size_t kPipeline = 8;
// Spawn-until-ready is repeated this often; the run reports the median.
constexpr size_t kSetupRepeats = 7;
// A closed loop of this length brings connections, pools and the result
// cache to steady state before anything is measured.
constexpr double kWarmupSeconds = 0.5;
// Share of --seconds spent in the closed loop (qps); the open loop
// (latency) gets the rest.
constexpr double kClosedShare = 0.3;
// Sequential round trips behind serve.ping_rtt_us and
// cluster.worker_direct_us.
constexpr size_t kProbeCount = 500;

struct Pool {
  std::vector<serve::ServeRequest> requests;  // id = pool line
  std::vector<std::string> lines;             // the wire lines, '\n' ended
  std::vector<std::string> expected;          // the reference reply lines
};

bool LoadPool(const Options& options, Pool* pool, std::string* error) {
  std::vector<std::string> lines;
  if (!ReadLines(options.dir + "/requests.jsonl", &lines, error)) return false;
  for (const std::string& line : lines) {
    serve::ParsedLine parsed;
    if (!serve::ParseRequestLine(line, &parsed, error) ||
        parsed.control != serve::ControlOp::kNone) {
      *error = "bad request line: " + line;
      return false;
    }
    pool->requests.push_back(std::move(parsed.request));
    pool->lines.push_back(line + "\n");
  }
  serve::DatasetStore store(1);
  std::vector<std::string> paths;
  if (!serve::ListSnapshotFiles(options.dir + "/snapshots", &paths, error)) {
    return false;
  }
  for (const std::string& path : paths) {
    serve::DatasetIndex index;
    serve::SnapshotMeta meta;
    if (!serve::LoadSnapshot(path, &index, &meta, error)) return false;
    store.RegisterIndex(meta.dataset, std::move(index));
  }
  serve::QueryEngine engine(&store, nullptr, 1);
  for (const serve::ServeRequest& request : pool->requests) {
    const serve::ServeResponse response = engine.Run(request);
    if (!response.ok) {
      *error = "reference engine refused request " +
               std::to_string(request.id) + ": " + response.error;
      return false;
    }
    pool->expected.push_back(serve::FormatResponse(response));
  }
  return true;
}

bool Ask(serve::TcpConn* conn, const std::string& line, std::string* reply) {
  return conn->WriteAll(line + "\n") && conn->ReadLine(reply);
}

bool ProcessAlive(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("State:", 0) == 0) return line.find('Z') == std::string::npos;
  }
  return false;
}

// The spawned program: warp_serve, or warp_cluster and its workers. The
// destructor kills and reaps whatever is still running, so no error path
// leaves a process behind.
class Program {
 public:
  Program() = default;
  ~Program() { Kill(); }
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  // Spawns and waits until every "ready port=" line has appeared (the
  // snapshots are restored before a server listens).
  bool Start(const Options& options, bool cluster, std::string* error) {
    std::vector<std::string> argv;
    const std::string snapshots = "--snapshot-dir=" + options.dir + "/snapshots";
    if (cluster) {
      argv = {PERFBENCH_CLUSTER_BIN, "--port=0",
              "--shards=" + std::to_string(options.Count("shards")),
              "--threads=" + std::to_string(options.Count("threads")),
              snapshots, std::string("--worker-bin=") + PERFBENCH_SERVE_BIN};
    } else {
      argv = {PERFBENCH_SERVE_BIN, "--port=0",
              "--threads=" + std::to_string(options.Count("threads")),
              snapshots};
    }
    worker_pids_.clear();
    worker_ports_.clear();
    const double start = NowSeconds();
    if (!process_.Spawn(argv, error)) return false;
    std::string line;
    if (cluster) {
      for (size_t k = 0; k < options.Count("shards"); ++k) {
        long pid = 0;
        int port = 0;
        size_t shard = 0;
        if (!process_.WaitForLinePrefix("worker shard=", kReadyTimeoutMs, &line) ||
            std::sscanf(line.c_str(), "worker shard=%zu pid=%ld port=%d", &shard,
                        &pid, &port) != 3) {
          *error = "cluster launcher printed no worker line";
          return false;
        }
        worker_pids_.push_back(pid);
        worker_ports_.push_back(port);
      }
      workers_ready_s_ = NowSeconds() - start;
    }
    if (!process_.WaitForLinePrefix("ready port=", kReadyTimeoutMs, &line)) {
      *error = "program never printed its ready line";
      return false;
    }
    ready_s_ = NowSeconds() - start;
    port_ = std::atoi(line.c_str() + 11);
    return port_ > 0;
  }

  // Asks the program to shut down and reaps it (and, for the cluster, its
  // workers). Falls back to SIGKILL after a grace period.
  bool Shutdown(std::string* error) {
    std::string reply;
    serve::TcpConn conn = serve::ConnectLoopback(port_, error);
    const bool asked =
        conn.valid() && Ask(&conn, "{\"id\":0,\"op\":\"shutdown\"}", &reply);
    for (int waited = 0; asked && waited < 15000; waited += 10) {
      if (process_.TryReap(nullptr)) break;
      warp::cluster::SleepMillis(10);
    }
    const bool clean = !process_.running();
    Kill();
    if (!clean) *error = "program did not shut down when asked";
    return clean;
  }

  int port() const { return port_; }
  double ready_s() const { return ready_s_; }
  double workers_ready_s() const { return workers_ready_s_; }
  const std::vector<int>& worker_ports() const { return worker_ports_; }

  // Peak RSS of the launcher/server and of the workers alone.
  double PeakRssMiB() const { return perfbench::PeakRssMiB(process_.pid()); }
  double WorkerPeakRssMiB() const {
    double total = 0.0;
    for (long pid : worker_pids_) total += perfbench::PeakRssMiB(pid);
    return total;
  }

 private:
  static constexpr int kReadyTimeoutMs = 60000;

  void Kill() {
    for (long pid : worker_pids_) warp::cluster::SendSignal(pid, SIGKILL);
    if (process_.running()) {
      process_.Kill(SIGKILL);
      process_.Reap();
    }
    for (long pid : worker_pids_) {
      for (int waited = 0; ProcessAlive(pid) && waited < 5000; waited += 10) {
        warp::cluster::SleepMillis(10);
      }
    }
    worker_pids_.clear();
  }

  warp::cluster::ChildProcess process_;
  std::vector<long> worker_pids_;
  std::vector<int> worker_ports_;
  int port_ = 0;
  double ready_s_ = 0.0;
  double workers_ready_s_ = 0.0;
};

// What one client connection saw.
struct ClientLog {
  explicit ClientLog(bool traced) : spans(traced) {}
  std::vector<Timing> ops;  // Sent (open loop: due) to reply read.
  std::vector<double> late;  // open loop: send time - due time
  uint64_t attempted = 0;
  std::vector<std::string> failures;
  bool broken = false;
  SpanLog spans;
};

// Adds the logs' counts and failures to *result and appends their
// timings (and send lateness).
void Merge(std::vector<ClientLog>& logs, RunResult* result,
           std::vector<Timing>* ops, std::vector<double>* late) {
  for (ClientLog& log : logs) {
    result->attempted += log.attempted;
    for (const std::string& failure : log.failures) result->Fail(failure);
    if (ops) ops->insert(ops->end(), log.ops.begin(), log.ops.end());
    if (late) late->insert(late->end(), log.late.begin(), log.late.end());
  }
}

// Checks one reply against the reference; the client also parses it
// (ParseResponseLine), as a real client of the wire protocol would.
void CheckReply(const Pool& pool, size_t index, const std::string& reply,
                uint64_t op, int32_t parent, ClientLog* log) {
  serve::ServeResponse parsed;
  std::string error;
  {
    ScopedSpan span(&log->spans, "serve.ParseResponseLine", op, parent);
    if (!serve::ParseResponseLine(reply, &parsed, &error)) parsed.ok = false;
  }
  ++log->attempted;
  if (!parsed.ok || reply != pool.expected[index]) {
    log->failures.push_back("request " + std::to_string(index) + " got " +
                            reply.substr(0, 160) + " want " +
                            pool.expected[index].substr(0, 160));
  }
}

// Closed loop: each connection keeps `depth` requests in flight and sends
// the next one only when a reply comes back, drawing pool lines from a
// shared cursor. Pipelined requests reach the server together, so it
// batches them (pipelining is batching in warp_serve and the router).
double ClosedLoop(int port, const Pool& pool, size_t connections, size_t depth,
                  double seconds, bool traced, std::atomic<uint64_t>* cursor,
                  std::vector<ClientLog>* logs, std::string* error) {
  logs->clear();
  for (size_t c = 0; c < connections; ++c) logs->emplace_back(traced);
  std::vector<serve::TcpConn> conns;
  for (size_t c = 0; c < connections; ++c) {
    conns.push_back(serve::ConnectLoopback(port, error));
    if (!conns.back().valid()) return 0.0;
  }
  const double start = NowSeconds();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = (*logs)[c];
      struct InFlight {
        uint64_t op;
        size_t index;
        double sent;
        int32_t span;  // The request's root span, open until its reply.
      };
      std::deque<InFlight> in_flight;
      std::string reply;
      while (true) {
        while (in_flight.size() < depth && NowSeconds() - start < seconds) {
          const uint64_t op = cursor->fetch_add(1);
          const size_t index = op % pool.requests.size();
          const double sent = NowSeconds();
          const int32_t root = log.spans.Begin("client.request", op, -1);
          ScopedSpan span(&log.spans, "net.WriteAll", op, root);
          if (!conns[c].WriteAll(pool.lines[index])) {
            log.broken = true;
            return;
          }
          in_flight.push_back({op, index, sent, root});
        }
        if (in_flight.empty()) return;
        const InFlight front = in_flight.front();
        in_flight.pop_front();
        {
          ScopedSpan span(&log.spans, "net.ReadLine", front.op, front.span);
          if (!conns[c].ReadLine(&reply)) {
            log.broken = true;
            return;
          }
        }
        CheckReply(pool, front.index, reply, front.op, front.span, &log);
        log.spans.End(front.span);
        log.ops.push_back({front.sent, NowSeconds()});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double elapsed = NowSeconds() - start;
  for (const ClientLog& log : *logs) {
    if (log.broken) {
      *error = "connection broke during the closed loop";
      return 0.0;
    }
  }
  return elapsed;
}

// Open loop at a fixed offered rate: request k is due at start + k/rate
// on connection k % connections, whatever the replies do. Latency runs
// from the due time, so a stall also charges the requests queued behind
// it. One sender thread; one reader thread per connection.
bool OpenLoop(int port, const Pool& pool, size_t connections, double rate,
              double seconds, uint64_t first, std::vector<ClientLog>* logs,
              std::string* error) {
  logs->clear();
  for (size_t c = 0; c < connections; ++c) logs->emplace_back(false);
  std::vector<serve::TcpConn> conns;
  for (size_t c = 0; c < connections; ++c) {
    conns.push_back(serve::ConnectLoopback(port, error));
    if (!conns.back().valid()) return false;
  }
  // One ping per connection first, so the server has its connection
  // threads running before the schedule starts.
  for (serve::TcpConn& conn : conns) {
    std::string pong;
    if (!Ask(&conn, "{\"id\":0,\"op\":\"ping\"}", &pong)) {
      *error = "open-loop connection refused a ping";
      return false;
    }
  }
  const uint64_t total = static_cast<uint64_t>(rate * seconds);
  struct Pending {
    double due;
    size_t index;
  };
  std::vector<std::deque<Pending>> pending(connections);
  std::vector<std::mutex> mutexes(connections);
  std::atomic<bool> abort{false};

  std::vector<std::thread> readers;
  for (size_t c = 0; c < connections; ++c) {
    readers.emplace_back([&, c] {
      ClientLog& log = (*logs)[c];
      const uint64_t expect = total / connections + (c < total % connections ? 1 : 0);
      std::string reply;
      for (uint64_t r = 0; r < expect; ++r) {
        if (!conns[c].ReadLine(&reply)) {
          log.broken = true;
          abort = true;
          return;
        }
        const double done = NowSeconds();
        Pending front;
        {
          std::lock_guard<std::mutex> lock(mutexes[c]);
          front = pending[c].front();
          pending[c].pop_front();
        }
        log.ops.push_back({front.due, done});
        CheckReply(pool, front.index, reply, r, -1, &log);
      }
    });
  }
  const double start = NowSeconds() + 0.05;
  for (uint64_t k = 0; k < total && !abort; ++k) {
    const double due = start + static_cast<double>(k) / rate;
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
            static_cast<int64_t>(due * 1e9))));
    const size_t c = k % connections;
    (*logs)[c].late.push_back(NowSeconds() - due);
    {
      std::lock_guard<std::mutex> lock(mutexes[c]);
      pending[c].push_back({due, (first + k) % pool.requests.size()});
    }
    if (!conns[c].WriteAll(pool.lines[(first + k) % pool.lines.size()])) {
      abort = true;
    }
  }
  if (abort) {
    // Unblock readers waiting for replies that will never come.
    for (serve::TcpConn& conn : conns) conn.ShutdownBoth();
  }
  for (std::thread& reader : readers) reader.join();
  if (abort) *error = "connection broke during the open loop";
  return !abort;
}

// Counters (from the warp-metrics-v1 exposition), histogram sums and
// counts, and cache tallies, as one `stats` + `metrics` reading.
struct ServerReading {
  std::map<std::string, double> values;
};

bool ReadServer(int port, ServerReading* reading, std::string* error) {
  serve::TcpConn conn = serve::ConnectLoopback(port, error);
  std::string stats, metrics;
  if (!conn.valid() || !Ask(&conn, "{\"id\":1,\"op\":\"stats\"}", &stats) ||
      !Ask(&conn, "{\"id\":2,\"op\":\"metrics\"}", &metrics)) {
    *error = "stats/metrics request failed";
    return false;
  }
  serve::JsonValue root, body;
  if (!serve::ParseJson(stats, &root, error) ||
      !serve::ParseJson(metrics, &body, error)) {
    return false;
  }
  if (const serve::JsonValue* histograms = root.Find("histograms")) {
    for (const auto& [name, value] : histograms->AsObject()) {
      reading->values[name + ".sum"] = value.NumberOr("sum", 0.0);
      reading->values[name + ".count"] = value.NumberOr("count", 0.0);
    }
  }
  if (const serve::JsonValue* cache = root.Find("cache")) {
    reading->values["cache.hits"] = cache->NumberOr("hits", 0.0);
    reading->values["cache.misses"] = cache->NumberOr("misses", 0.0);
  }
  std::istringstream text(body.StringOr("body", ""));
  std::string line;
  while (std::getline(text, line)) {
    const size_t space = line.find(' ');
    const std::string name = line.substr(0, space);
    if (line.empty() || line[0] == '#' || space == std::string::npos ||
        name.rfind("warp_", 0) != 0 || name.size() < 11 ||
        name.compare(name.size() - 6, 6, "_total") != 0) {
      continue;
    }
    reading->values[name.substr(5, name.size() - 11)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return true;
}

// Median round trip of `count` sequential requests built by `line_for`.
template <typename LineFor>
bool MedianRoundTripUs(int port, size_t count, LineFor line_for, double* us,
                       std::string* error) {
  serve::TcpConn conn = serve::ConnectLoopback(port, error);
  if (!conn.valid()) return false;
  std::vector<double> times;
  std::string reply;
  for (size_t i = 0; i < count; ++i) {
    const std::string line = line_for(i);
    const double start = NowSeconds();
    if (!Ask(&conn, line, &reply)) {
      *error = "probe connection broke";
      return false;
    }
    times.push_back(NowSeconds() - start);
    if (reply.find("\"ok\":true") == std::string::npos) {
      *error = "probe refused: " + reply.substr(0, 200);
      return false;
    }
  }
  *us = Median(times) * 1e6;
  return true;
}

// `delta` holds server readings differenced over the traced loops; `ops`
// is the number of client requests they answered.
void AddPerLayer(const std::map<std::string, double>& delta, double ops,
                 const std::vector<ClientLog>& logs, bool cluster,
                 RunResult* result) {
  const auto d = [&](const std::string& name) {
    const auto it = delta.find(name);
    return it == delta.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto mean = [&](const std::string& histogram) {
    return ratio(d(histogram + ".sum"), d(histogram + ".count"));
  };
  const double candidates = d("cascade_candidates");
  result->Add("core.cells_per_op", d("dtw_cells") / ops, "cells/op");
  result->Add("core.lb_kim_kill_rate", ratio(d("lb_kim_kills"), candidates),
              "ratio");
  result->Add("core.lb_keogh_kill_rate",
              ratio(d("lb_keogh_kills"), candidates - d("lb_kim_kills")), "ratio");
  result->Add("core.early_abandon_rate",
              ratio(d("cascade_early_abandons"),
                    d("cascade_early_abandons") + d("cascade_full_dtw")),
              "ratio");
  result->Add("core.full_dtw_per_op", d("cascade_full_dtw") / ops, "count/op");
  result->Add("simd.block_share",
              ratio(d("simd_blocks"), d("simd_blocks") + d("simd_scalar_tail")),
              "ratio");
  result->Add("common.pool_chunks_per_op", d("pool_chunks") / ops, "count/op");
  result->Add("common.pool_tasks_per_op", d("pool_tasks") / ops, "count/op");
  result->Add("common.pool_queue_wait_us_per_chunk",
              ratio(d("pool_queue_wait_nanos") * 1e-3, d("pool_chunks")), "us");
  result->Add("serve.parse_us", mean("serve_stage_parse_us"), "us");
  result->Add("serve.cache_lookup_us", mean("serve_stage_cache_lookup_us"), "us");
  result->Add("serve.queue_wait_us", mean("serve_stage_queue_wait_us"), "us");
  result->Add("serve.engine_scan_us", mean("serve_stage_engine_scan_us"), "us");
  result->Add("serve.merge_us", mean("serve_stage_merge_us"), "us");
  result->Add("serve.serialize_us", mean("serve_stage_serialize_us"), "us");
  result->Add("serve.batch_occupancy", mean("serve_batch_occupancy"), "count");
  result->Add("serve.cache_hit_rate",
              ratio(d("cache.hits"), d("cache.hits") + d("cache.misses")),
              "ratio");
  result->Add("serve.shed_rate", ratio(d("serve_shed"), d("serve_requests")),
              "ratio");
  const auto client_mean_us = [&](const std::string& span) {
    double total = 0.0;
    for (const ClientLog& log : logs) total += log.spans.MeanMicros(span);
    return total / static_cast<double>(logs.size());
  };
  result->Add("serve.client_parse_us", client_mean_us("serve.ParseResponseLine"),
              "us");
  if (cluster) {
    result->Add("cluster.router_gather_us", mean("router_gather_us"), "us");
    result->Add("cluster.scatters_per_query", d("cluster_scatters") / ops,
                "count");
    result->Add("cluster.partial_rate", d("cluster_partial_replies") / ops,
                "ratio");
  }
}

}  // namespace

bool RunServed(const Options& options, bool cluster, RunResult* result,
               std::string* error) {
  Pool pool;
  if (!LoadPool(options, &pool, error)) return false;
  const size_t connections = kConnections;
  const size_t depth = kPipeline;

  // Set-up: spawn until ready, kSetupRepeats times; the last program stays
  // up for the measurement.
  std::vector<double> setups, workers_ready;
  Program program;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    if (r > 0 && !program.Shutdown(error)) return false;
    if (!program.Start(options, cluster, error)) return false;
    setups.push_back(program.ready_s());
    workers_ready.push_back(program.workers_ready_s());
  }
  const int port = program.port();

  std::atomic<uint64_t> cursor{0};
  std::vector<ClientLog> logs;
  // Warm-up: connections, pools, and the result cache reach steady state.
  if (ClosedLoop(port, pool, connections, depth, kWarmupSeconds, false,
                 &cursor, &logs, error) == 0.0) {
    return false;
  }
  Merge(logs, result, nullptr, nullptr);

  const double rate = options.Param("open_loop_rate");
  if (!options.trace) {
    const double closed_s = options.seconds * kClosedShare;
    StealMonitor steal;
    const double closed_start = NowSeconds();
    if (ClosedLoop(port, pool, connections, depth, closed_s, false, &cursor,
                   &logs, error) == 0.0) {
      return false;
    }
    const double closed_end = NowSeconds();
    std::vector<Timing> closed_ops, open_ops;
    Merge(logs, result, &closed_ops, nullptr);
    if (!OpenLoop(port, pool, connections, rate, options.seconds - closed_s,
                  cursor.load(), &logs, error)) {
      return false;
    }
    const double open_end = NowSeconds();
    steal.Stop();
    Merge(logs, result, &open_ops, nullptr);
    LoopFigures closed, open;
    std::string closed_note, open_note;
    if (!QuietFigures(closed_ops, {}, closed_start, closed_end, steal,
                      "closed loop", &closed, &closed_note, error) ||
        !QuietFigures(open_ops, {}, closed_end, open_end, steal,
                      "open loop at " + std::to_string(static_cast<long>(rate)) +
                          " requests/s",
                      &open, &open_note, error)) {
      return false;
    }
    result->notes.push_back(closed_note);
    result->notes.push_back(open_note);
    result->Add("qps", closed.qps, "1/s");
    result->Add("p50_ms", open.p50_ms, "ms");
    result->Add("p99_ms", open.p99_ms, "ms");
    result->Add("setup_s", Median(setups), "s");
    result->Add("rss_mb", program.PeakRssMiB() + program.WorkerPeakRssMiB(),
                "MiB");
    return program.Shutdown(error);
  }

  // Traced run: untraced and traced closed loops, alternated twice (the
  // overhead), with server readings around each traced one; then the open
  // loop and the probes.
  const double phase_s = options.seconds / 4.0;
  std::vector<Timing> untraced_ops, traced_ops;
  double untraced_elapsed = 0.0, traced_elapsed = 0.0;
  std::map<std::string, double> server_delta;
  std::vector<ClientLog> traced_logs;
  for (int round = 0; round < 2; ++round) {
    const double untraced =
        ClosedLoop(port, pool, connections, depth, phase_s / 2, false, &cursor, &logs,
                   error);
    if (untraced == 0.0) return false;
    untraced_elapsed += untraced;
    Merge(logs, result, &untraced_ops, nullptr);

    ServerReading before, after;
    if (!ReadServer(port, &before, error)) return false;
    const double traced = ClosedLoop(port, pool, connections, depth, phase_s / 2, true,
                                     &cursor, &logs, error);
    if (traced == 0.0 || !ReadServer(port, &after, error)) return false;
    traced_elapsed += traced;
    for (const auto& [name, value] : after.values) {
      server_delta[name] += value - before.values[name];
    }
    Merge(logs, result, &traced_ops, nullptr);
    for (ClientLog& log : logs) traced_logs.push_back(std::move(log));
  }
  AddPerLayer(server_delta, static_cast<double>(traced_ops.size()),
              traced_logs, cluster, result);

  // The client formats each request once, ahead of the loops (the loops
  // send the pool's lines); time that here, and check it reproduces them.
  SpanLog formats(true);
  for (size_t i = 0; i < pool.requests.size(); ++i) {
    std::string line;
    {
      ScopedSpan span(&formats, "serve.FormatRequest", i);
      line = serve::FormatRequest(pool.requests[i]);
    }
    ++result->attempted;
    if (line + "\n" != pool.lines[i]) {
      result->Fail("FormatRequest does not reproduce request " + std::to_string(i));
    }
  }
  result->Add("serve.client_format_us",
              formats.MeanMicros("serve.FormatRequest"), "us");

  std::vector<Timing> open_ops;
  std::vector<double> late;
  StealMonitor steal;
  const double open_start = NowSeconds();
  if (!OpenLoop(port, pool, connections, rate, phase_s, cursor.load(), &logs,
                error)) {
    return false;
  }
  const double open_end = NowSeconds();
  steal.Stop();
  Merge(logs, result, &open_ops, &late);
  double ping_us = 0.0;
  if (!MedianRoundTripUs(
          port, kProbeCount,
          [](size_t i) {
            return "{\"id\":" + std::to_string(i) + ",\"op\":\"ping\"}";
          },
          &ping_us, error)) {
    return false;
  }
  result->Add("serve.ping_rtt_us", ping_us, "us");
  result->Add("loadgen.late_p99_ms", Percentile(late, 0.99) * 1e3, "ms");
  const double untraced_qps =
      static_cast<double>(untraced_ops.size()) / untraced_elapsed;
  const double traced_qps =
      static_cast<double>(traced_ops.size()) / traced_elapsed;
  result->Add("trace.overhead_pct", (untraced_qps / traced_qps - 1.0) * 100.0,
              "%");

  if (cluster) {
    // Stamped sub-scans straight to worker 0: the worker's own round trip
    // without the router hop.
    const int worker_port = program.worker_ports()[0];
    serve::TcpConn conn = serve::ConnectLoopback(worker_port, error);
    std::string info;
    if (!conn.valid() ||
        !Ask(&conn, "{\"id\":0,\"op\":\"info\",\"dataset\":\"hot\"}", &info)) {
      *error = "worker 0 info failed";
      return false;
    }
    serve::JsonValue root;
    if (!serve::ParseJson(info, &root, error)) return false;
    const uint64_t epoch = static_cast<uint64_t>(root.NumberOr("epoch", 0.0));
    std::vector<size_t> scans;
    for (size_t i = 0; i < pool.requests.size(); ++i) {
      if (pool.requests[i].op != serve::QueryOp::kDist) scans.push_back(i);
    }
    double direct_us = 0.0;
    if (!MedianRoundTripUs(
            worker_port, std::min(kProbeCount, scans.size()),
            [&](size_t i) {
              serve::ServeRequest sub = pool.requests[scans[i]];
              sub.shard_filter = 0;
              sub.require_epoch = epoch;
              return serve::FormatRequest(sub);
            },
            &direct_us, error)) {
      return false;
    }
    LoopFigures open;
    std::string note;
    if (!QuietFigures(open_ops, {}, open_start, open_end, steal, "open loop", &open,
                      &note, error)) {
      return false;
    }
    result->notes.push_back(note);
    result->Add("cluster.worker_direct_us", direct_us, "us");
    result->Add("cluster.hop_us", open.p50_ms * 1e3 - direct_us, "us");
    result->Add("cluster.worker_rss_mb", program.WorkerPeakRssMiB(), "MiB");
    result->Add("cluster.worker_ready_s", Median(workers_ready), "s");
  }
  result->notes.push_back(
      std::string(cluster ? "cluster" : "serve") +
      ": server counters are stats/metrics deltas over the traced closed loop "
      "of " + std::to_string(traced_ops.size()) + " requests");
  if (!options.trace_out.empty()) {
    std::vector<const SpanLog*> span_logs = {&formats};
    for (const ClientLog& log : traced_logs) span_logs.push_back(&log.spans);
    if (!WriteSpans(span_logs, options.trace_out)) {
      *error = "cannot write " + options.trace_out;
      return false;
    }
  }
  return program.Shutdown(error);
}

}  // namespace perfbench
