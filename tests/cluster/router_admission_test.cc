// The router's admission gate (docs/SERVING.md, "Admission gate"):
// with one scatter stuck on a stalled worker and --max-queue-depth=1,
// further client submissions must not queue without bound behind it. The
// one that finds the queue full is shed at once with
// ok:false,error:"overloaded"; once the worker resumes, every admitted
// submission answers with the single-process golden bytes.
//
// No gauge is read, so the test holds under WARP_PROFILE=OFF.

#include "warp/cluster/router.h"

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "warp/cluster/proc.h"
#include "warp/cluster/supervisor.h"
#include "warp/common/stopwatch.h"
#include "warp/gen/random_walk.h"
#include "warp/obs/json_writer.h"
#include "warp/serve/dataset_store.h"
#include "warp/serve/net.h"
#include "warp/serve/server.h"
#include "warp/serve/snapshot.h"

namespace warp {
namespace cluster {
namespace {

constexpr size_t kShards = 2;
constexpr size_t kClients = 3;
constexpr size_t kLength = 40;
const char kOverloaded[] = "{\"id\":%d,\"ok\":false,\"error\":\"overloaded\"}";

std::string SnapshotDirOnce() {
  static const std::string dir = [] {
    const std::string path = ::testing::TempDir() + "/router_admission_snaps";
    std::filesystem::create_directories(path);
    serve::DatasetStore store(1);
    const auto stored = store.Register(
        "d", gen::RandomWalkDataset(24, kLength, 9), {4});
    std::string error;
    EXPECT_TRUE(serve::SaveSnapshot(*stored, path + "/d.wsnap", &error))
        << error;
    return path;
  }();
  return dir;
}

std::string OneNnLine(int64_t id) {
  const Dataset queries = gen::RandomWalkDataset(1, kLength, 100 + id);
  obs::JsonWriter writer;
  writer.BeginObject()
      .Key("id").Int(id)
      .Key("op").String("1nn")
      .Key("dataset").String("d")
      .Key("query").BeginArray();
  for (double v : queries[0].values()) writer.Double(v);
  writer.EndArray().EndObject();
  return writer.TakeOutput();
}

// Whether `pid` has stopped: kill() returns before the stop lands.
bool Stopped(long pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string comm_end;
  char state = '?';
  std::getline(stat, comm_end, ')');
  stat >> state;
  return state == 'T';
}

std::string Ask(serve::TcpConn& conn, const std::string& line) {
  std::string reply;
  EXPECT_TRUE(conn.WriteAll(line + "\n"));
  EXPECT_TRUE(conn.ReadLine(&reply));
  return reply;
}

TEST(RouterAdmissionTest, StalledScatterShedsTheSubmissionThatFindsTheQueueFull) {
  std::vector<std::string> lines, golden;
  for (size_t c = 0; c < kClients; ++c) {
    lines.push_back(OneNnLine(static_cast<int64_t>(c + 1)));
  }
  {
    serve::ServerOptions options;
    options.shards = kShards;
    serve::Server server(std::move(options));
    std::string error;
    ASSERT_TRUE(server.LoadSnapshotDir(SnapshotDirOnce(), &error)) << error;
    ASSERT_TRUE(server.Start(&error)) << error;
    std::thread serve_thread([&server] { server.Serve(); });
    serve::TcpConn conn = serve::ConnectLoopback(server.port(), &error);
    ASSERT_TRUE(conn.valid()) << error;
    for (const std::string& line : lines) golden.push_back(Ask(conn, line));
    conn.Close();
    server.RequestShutdown();
    serve_thread.join();
  }

  SupervisorOptions sup;
  sup.shards = kShards;
  sup.max_queue_depth = 1;
  sup.ping_interval_ms = 0;  // A stopped worker must not be restarted.
  sup.worker_binary = WARP_SERVE_PATH;
  sup.snapshot_dir = SnapshotDirOnce();
  Supervisor supervisor(sup);
  std::string error;
  ASSERT_TRUE(supervisor.Start(&error)) << error;
  Router router(RouterOptions{}, &supervisor);
  ASSERT_TRUE(router.Start(&error)) << error;
  std::thread router_thread([&router] { router.Serve(); });
  {
    // Warm the worker links and the router's dataset info.
    serve::TcpConn conn = serve::ConnectLoopback(router.port(), &error);
    ASSERT_TRUE(conn.valid()) << error;
    EXPECT_EQ(Ask(conn, lines[0]), golden[0]);
  }

  const long stalled = supervisor.worker_pid(1);
  ASSERT_GT(stalled, 0);
  ASSERT_TRUE(SendSignal(stalled, SIGSTOP));
  {
    const Stopwatch waited;
    while (!Stopped(stalled) && waited.ElapsedMillis() < 5000) SleepMillis(1);
  }
  ASSERT_TRUE(Stopped(stalled));

  std::vector<std::string> replies(kClients);
  std::atomic<size_t> shed_early{0};
  std::vector<std::thread> clients;
  const Stopwatch since_submit;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::string conn_error;
      serve::TcpConn conn = serve::ConnectLoopback(router.port(), &conn_error);
      ASSERT_TRUE(conn.valid()) << conn_error;
      replies[c] = Ask(conn, lines[c]);
      if (replies[c].find("\"error\":\"overloaded\"") != std::string::npos &&
          since_submit.ElapsedMillis() < 1000) {
        ++shed_early;
      }
    });
  }
  while (shed_early.load() == 0 && since_submit.ElapsedMillis() < 1000) {
    SleepMillis(5);
  }
  EXPECT_GE(shed_early.load(), 1u)
      << "no submission was shed while the scatter was stalled";
  EXPECT_TRUE(SendSignal(stalled, SIGCONT));
  for (std::thread& client : clients) client.join();

  size_t shed = 0;
  for (size_t c = 0; c < kClients; ++c) {
    char overloaded[sizeof(kOverloaded) + 16];
    std::snprintf(overloaded, sizeof(overloaded), kOverloaded,
                  static_cast<int>(c + 1));
    if (replies[c] == overloaded) {
      ++shed;
      continue;
    }
    EXPECT_EQ(replies[c], golden[c]) << "client " << c;
  }
  EXPECT_GE(shed, 1u);
  EXPECT_LT(shed, kClients);  // The gate sheds, it does not refuse all.

  router.RequestShutdown();
  router_thread.join();
  supervisor.Stop();
}

}  // namespace
}  // namespace cluster
}  // namespace warp
