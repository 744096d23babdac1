// Request batching: coalesces concurrent queries into executor batches.
//
// Connection handlers (one per client) block in Execute(). Queries that
// arrive while a batch is in flight pile up, and a dispatcher thread
// drains EVERY submission pending when that batch ends into the next
// executor call — the classic group-commit shape, chained back to back
// under load. A submission that finds nothing in flight and nobody
// waiting runs on its own thread instead, so an idle server adds no
// thread hand-off between a lone client and its answer.
//
// The executor is the seam between the front end and whatever answers
// queries: a server passes QueryEngine::RunBatch (which groups each batch
// by dataset, so concurrent clients share snapshot resolution and one
// ParallelFor), the cluster router passes its scatter/gather to the shard
// workers.
//
// At most one batch is in flight, so the executor has one caller at a
// time and the ThreadPool's one-orchestrator contract holds no matter
// how many connections submit.

#ifndef WARP_SERVE_BATCHER_H_
#define WARP_SERVE_BATCHER_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "warp/common/stopwatch.h"
#include "warp/serve/request.h"

namespace warp {
namespace serve {

class Batcher {
 public:
  // Answers one batch: fills one response per request, in order.
  using Executor = std::function<void(const std::vector<ServeRequest>& requests,
                                      std::vector<ServeResponse>* responses)>;

  // `max_queue_depth` bounds the number of submissions (client
  // pipelines, not individual requests) waiting for adoption; 0 means
  // unbounded. A submission arriving at a full queue is shed
  // immediately — every response comes back ok:false,
  // error:"overloaded" — so one slow scan cannot back up the world
  // (admission bounds time-in-queue; deadlines bound time-in-engine).
  explicit Batcher(Executor executor, size_t max_queue_depth = 0);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  // Answers `requests` in order; blocks until every response is ready
  // (or fast-fails them all when the queue is at max_queue_depth).
  // Thread-safe; concurrent callers coalesce into shared batches.
  void Execute(const std::vector<ServeRequest>& requests,
               std::vector<ServeResponse>* responses);

  // Batches dispatched so far (for tests and the bench).
  uint64_t batches_dispatched() const;

  // Submissions currently waiting for adoption (for tests and stats).
  size_t queue_depth() const;

  // Submissions fast-failed at the admission gate so far.
  uint64_t shed() const;

 private:
  struct Submission {
    const std::vector<ServeRequest>* requests = nullptr;
    std::vector<ServeResponse>* responses = nullptr;
    // Queue-wait clock: started at submit, read when this submission is
    // adopted into a batch.
    Stopwatch queued;
    // Per-submission signal (not one shared cv) so completing a batch
    // wakes exactly its submitters, not every connection in the house.
    std::condition_variable cv;
    bool done = false;
  };

  void DispatchLoop();
  // Runs every pending submission as one batch; `lock` holds mutex_ on
  // entry and exit but not while the executor runs.
  void RunBatch(std::unique_lock<std::mutex>& lock);

  const Executor executor_;
  const size_t max_queue_depth_;
  mutable std::mutex mutex_;
  std::condition_variable pending_cv_;  // Wakes the dispatcher.
  std::deque<Submission*> pending_;
  bool running_ = false;  // A batch is in flight.
  uint64_t batches_ = 0;
  uint64_t shed_ = 0;
  bool stop_ = false;
  std::thread dispatcher_;
};

}  // namespace serve
}  // namespace warp

#endif  // WARP_SERVE_BATCHER_H_
