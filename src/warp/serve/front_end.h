// The line-protocol front end shared by the query server (server.h) and
// the cluster router (cluster/router.h); docs/SERVING.md.
//
// It owns everything between the socket and the answers: the listener,
// the accept loop, one thread per connection, and the connection loop.
// Lines a client has already pipelined when a reply would be written are
// drained and answered as one batch (pipelining IS batching). Lines take
// effect strictly in order: runs of consecutive queries go through the
// Batcher as one submission, and a control op (stats, load, shutdown, ...)
// flushes the pending queries first so it observes every query that
// preceded it on the wire. Subclasses supply only the two answers: how a
// batch of queries executes and how a control op is answered.
//
// All socket work goes through warp/serve/net.h; this file never issues
// a raw socket syscall.

#ifndef WARP_SERVE_FRONT_END_H_
#define WARP_SERVE_FRONT_END_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "warp/serve/batcher.h"
#include "warp/serve/net.h"
#include "warp/serve/protocol.h"
#include "warp/serve/request.h"

namespace warp {
namespace serve {

class FrontEnd {
 public:
  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  // Binds the listener. Returns false and fills *error on failure.
  bool Start(std::string* error);

  // The bound port (valid after Start(); useful with port 0).
  int port() const;

  // Accepts and serves connections until RequestShutdown() (from a
  // connection's `shutdown` op or another thread). Joins every
  // connection thread before returning.
  void Serve();

  // Signals Serve() to stop; safe from any thread, idempotent.
  void RequestShutdown();

  // Start() + Serve() for tools, printing "<name> listening on
  // 127.0.0.1:<port>" and then "ready port=<port>" to stdout first, so
  // harnesses (and the cluster supervisor) can scrape the bound port even
  // when it was 0. Returns a process exit code.
  int Run(const char* name);

 protected:
  // `port` 0 = kernel-assigned. `max_queue_depth` is the batcher's
  // admission gate (serve/batcher.h); 0 = unbounded.
  FrontEnd(uint16_t port, size_t max_queue_depth);
  virtual ~FrontEnd();

  // Answers one batch of queries, one response per request in order.
  // The batcher calls it for one batch at a time.
  virtual void ExecuteQueries(const std::vector<ServeRequest>& requests,
                              std::vector<ServeResponse>* responses) = 0;

  // Answers one control op; `line` is the request line as received.
  virtual std::string HandleControl(const ParsedLine& parsed,
                                    const std::string& line) = 0;

  // Requests shutdown, then closes and joins every connection. A subclass
  // destructor calls this first, so no connection thread calls into a
  // half-destroyed object.
  void StopConnections();

 private:
  struct Connection {
    TcpConn conn;
    std::thread thread;
  };

  void HandleConnection(Connection* connection);

  const uint16_t port_;
  TcpListener listener_;
  std::atomic<bool> shutdown_{false};
  Batcher batcher_;
  std::mutex conn_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace serve
}  // namespace warp

#endif  // WARP_SERVE_FRONT_END_H_
