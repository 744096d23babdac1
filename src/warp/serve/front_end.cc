#include "warp/serve/front_end.h"

#include <cstdio>
#include <utility>

#include "warp/common/stopwatch.h"
#include "warp/obs/histogram.h"

namespace warp {
namespace serve {

namespace {

// How often the accept loop re-checks the shutdown flag.
constexpr int kAcceptPollMs = 100;

}  // namespace

FrontEnd::FrontEnd(uint16_t port, size_t max_queue_depth)
    : port_(port),
      batcher_(
          [this](const std::vector<ServeRequest>& requests,
                 std::vector<ServeResponse>* responses) {
            ExecuteQueries(requests, responses);
          },
          max_queue_depth) {}

FrontEnd::~FrontEnd() { StopConnections(); }

bool FrontEnd::Start(std::string* error) {
  return listener_.Listen(port_, error);
}

int FrontEnd::port() const { return listener_.port(); }

void FrontEnd::RequestShutdown() {
  shutdown_.store(true, std::memory_order_relaxed);
}

void FrontEnd::StopConnections() {
  RequestShutdown();
  std::lock_guard<std::mutex> lock(conn_mutex_);
  for (std::unique_ptr<Connection>& connection : connections_) {
    connection->conn.ShutdownBoth();
    if (connection->thread.joinable()) connection->thread.join();
  }
  connections_.clear();
}

void FrontEnd::HandleConnection(Connection* connection) {
  WARP_GAUGE_ADD(obs::Gauge::kServeOpenConnections, 1);
  std::string first;
  while (!shutdown_.load(std::memory_order_relaxed) &&
         connection->conn.ReadLine(&first)) {
    // Drain everything the client has already pipelined: those lines form
    // one batch, which is where the batcher's group commit pays off.
    std::vector<std::string> lines;
    lines.push_back(std::move(first));
    while (connection->conn.HasBufferedLine()) {
      std::string more;
      if (!connection->conn.ReadLine(&more)) break;
      lines.push_back(std::move(more));
    }

    std::vector<std::string> out(lines.size());
    std::vector<ServeRequest> queries;
    std::vector<size_t> query_slot;
    std::vector<double> query_parse_us;  // Parallel to `queries`.
    const auto flush_queries = [&] {
      if (queries.empty()) return;
      std::vector<ServeResponse> responses;
      batcher_.Execute(queries, &responses);
      for (size_t j = 0; j < responses.size(); ++j) {
        responses[j].trace.parse_us = query_parse_us[j];
        out[query_slot[j]] = FormatResponse(responses[j]);
      }
      queries.clear();
      query_slot.clear();
      query_parse_us.clear();
    };
    bool want_shutdown = false;
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].empty()) continue;  // Blank lines are keep-alives.
      ParsedLine parsed;
      std::string error;
      const Stopwatch parse_watch;
      const bool parsed_ok = ParseRequestLine(lines[i], &parsed, &error);
      const double parse_us = parse_watch.ElapsedMicros();
      WARP_HISTOGRAM_RECORD_US(obs::Histogram::kServeStageParse, parse_us);
      if (!parsed_ok) {
        out[i] = FormatErrorLine(parsed.id, error);
      } else if (parsed.control == ControlOp::kNone) {
        queries.push_back(std::move(parsed.request));
        query_slot.push_back(i);
        query_parse_us.push_back(parse_us);
      } else {
        flush_queries();
        out[i] = HandleControl(parsed, lines[i]);
        if (parsed.control == ControlOp::kShutdown) want_shutdown = true;
      }
    }
    flush_queries();

    std::string payload;
    for (const std::string& response : out) {
      if (response.empty()) continue;
      payload += response;
      payload += '\n';
    }
    if (!payload.empty() && !connection->conn.WriteAll(payload)) break;
    if (want_shutdown) {
      RequestShutdown();
      break;
    }
  }
  connection->conn.ShutdownBoth();
  WARP_GAUGE_ADD(obs::Gauge::kServeOpenConnections, -1);
}

void FrontEnd::Serve() {
  while (!shutdown_.load(std::memory_order_relaxed)) {
    bool timed_out = false;
    TcpConn conn = listener_.AcceptWithTimeout(kAcceptPollMs, &timed_out);
    if (!conn.valid()) {
      if (timed_out) continue;
      break;  // Listener closed or failed.
    }
    auto connection = std::make_unique<Connection>();
    connection->conn = std::move(conn);
    Connection* raw = connection.get();
    connection->thread = std::thread([this, raw] { HandleConnection(raw); });
    std::lock_guard<std::mutex> lock(conn_mutex_);
    connections_.push_back(std::move(connection));
  }
  listener_.Close();
  StopConnections();
}

int FrontEnd::Run(const char* name) {
  std::string error;
  if (!Start(&error)) {
    std::fprintf(stderr, "%s: %s\n", name, error.c_str());
    return 1;
  }
  std::printf("%s listening on 127.0.0.1:%d\n", name, port());
  // Machine-scrapable readiness line: harnesses and the cluster
  // supervisor parse this exact shape to learn a --port=0 binding.
  std::printf("ready port=%d\n", port());
  std::fflush(stdout);
  Serve();
  return 0;
}

}  // namespace serve
}  // namespace warp
