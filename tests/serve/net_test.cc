// TcpConn's buffered line reader: lines come back whole, in order and
// with their '\r\n' stripped however recv happens to split the stream.

#include "warp/serve/net.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace warp {
namespace serve {
namespace {

// A connected loopback pair: `client` writes, `server` reads.
class TcpConnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string error;
    ASSERT_TRUE(listener_.Listen(0, &error)) << error;
    client_ = ConnectLoopback(listener_.port(), &error);
    ASSERT_TRUE(client_.valid()) << error;
    bool timed_out = false;
    server_ = listener_.AcceptWithTimeout(5000, &timed_out);
    ASSERT_TRUE(server_.valid());
  }

  TcpListener listener_;
  TcpConn client_;
  TcpConn server_;
};

TEST_F(TcpConnTest, BurstSplitAtAwkwardBoundariesReadsBackLineForLine) {
  // Blank lines, short lines and lines longer than one 64 KiB recv, with
  // '\r\n' and '\n' endings.
  std::vector<std::string> lines;
  std::string burst;
  for (size_t i = 0; i < 600; ++i) {
    const size_t length = i % 50 == 7 ? 70000 + i : i % 13;
    std::string line;
    for (size_t j = 0; j < length; ++j) {
      line.push_back(static_cast<char>('a' + (i + j) % 26));
    }
    burst += line;
    burst += i % 3 == 0 ? "\n" : "\r\n";
    lines.push_back(std::move(line));
  }
  // Written in pieces whose sizes cycle through odd lengths, so the cuts
  // land mid-line, between '\r' and '\n', and right after a '\n'.
  std::thread writer([&] {
    const size_t sizes[] = {1, 2, 3, 5, 7, 64, 4093, 65536, 65537, 131071};
    size_t at = 0;
    for (size_t k = 0; at < burst.size(); ++k) {
      const size_t n = std::min(sizes[k % 10], burst.size() - at);
      ASSERT_TRUE(client_.WriteAll(std::string_view(burst).substr(at, n)));
      at += n;
    }
  });
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string line;
    ASSERT_TRUE(server_.ReadLine(&line)) << "line " << i;
    ASSERT_EQ(line, lines[i]) << "line " << i;
  }
  writer.join();
  EXPECT_FALSE(server_.HasBufferedLine());
}

TEST_F(TcpConnTest, CrLfSplitAcrossWritesAndMovesKeepTheBuffer) {
  ASSERT_TRUE(client_.WriteAll("one\r"));
  ASSERT_TRUE(client_.WriteAll("\ntwo\r\nthr"));
  std::string line;
  ASSERT_TRUE(server_.ReadLine(&line));
  EXPECT_EQ(line, "one");

  // A moved connection keeps what it had buffered but not yet returned.
  TcpConn moved(std::move(server_));
  ASSERT_TRUE(moved.ReadLine(&line));
  EXPECT_EQ(line, "two");
  EXPECT_FALSE(moved.HasBufferedLine());  // "thr" has no '\n' yet.

  ASSERT_TRUE(client_.WriteAll("ee\r\n\n"));
  ASSERT_TRUE(moved.ReadLine(&line));
  EXPECT_EQ(line, "three");
  ASSERT_TRUE(moved.ReadLine(&line));
  EXPECT_EQ(line, "");

  // At EOF an unterminated tail is not a line.
  ASSERT_TRUE(client_.WriteAll("tail"));
  client_.Close();
  EXPECT_FALSE(moved.ReadLine(&line));
}

}  // namespace
}  // namespace serve
}  // namespace warp
