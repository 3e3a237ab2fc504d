// Endpoint spec parsing and the low-level socket helpers: listen/connect
// round trips over TCP loopback and UDS, ephemeral port resolution, and
// timeout/EOF Status codes from SendAll/RecvExactly.

#include "net/socket.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fstream>
#include <string>
#include <thread>

namespace ncl::net {
namespace {

TEST(EndpointTest, ParsesTcpSpecs) {
  auto endpoint = Endpoint::Parse("tcp:127.0.0.1:7070");
  ASSERT_TRUE(endpoint.ok()) << endpoint.status().ToString();
  EXPECT_EQ(endpoint->kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(endpoint->host, "127.0.0.1");
  EXPECT_EQ(endpoint->port, 7070);
  EXPECT_EQ(endpoint->ToString(), "tcp:127.0.0.1:7070");
}

TEST(EndpointTest, ParsesUnixSpecs) {
  auto endpoint = Endpoint::Parse("unix:/tmp/ncl.sock");
  ASSERT_TRUE(endpoint.ok());
  EXPECT_EQ(endpoint->kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(endpoint->path, "/tmp/ncl.sock");
  EXPECT_EQ(endpoint->ToString(), "unix:/tmp/ncl.sock");
}

TEST(EndpointTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(Endpoint::Parse("").ok());
  EXPECT_FALSE(Endpoint::Parse("tcp:").ok());
  EXPECT_FALSE(Endpoint::Parse("tcp:127.0.0.1").ok());       // no port
  EXPECT_FALSE(Endpoint::Parse("tcp:127.0.0.1:99999").ok()); // port overflow
  EXPECT_FALSE(Endpoint::Parse("tcp:127.0.0.1:abc").ok());
  EXPECT_FALSE(Endpoint::Parse("unix:").ok());               // empty path
  EXPECT_FALSE(Endpoint::Parse("http:127.0.0.1:80").ok());   // unknown scheme
}

TEST(SocketTest, EphemeralTcpPortIsResolved) {
  auto requested = Endpoint::Parse("tcp:127.0.0.1:0");
  ASSERT_TRUE(requested.ok());
  auto listener = Listen(*requested);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  auto bound = LocalEndpoint(*listener, *requested);
  ASSERT_TRUE(bound.ok());
  EXPECT_NE(bound->port, 0);  // kernel assigned a real port

  auto fd = Connect(*bound, /*timeout_ms=*/1000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
}

TEST(SocketTest, SendRecvRoundTripOverUds) {
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path =
      "/tmp/ncl_socket_test_" + std::to_string(::getpid()) + ".sock";
  auto listener = Listen(endpoint);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  std::thread peer([&] {
    int fd = ::accept(listener->get(), nullptr, nullptr);
    ASSERT_GE(fd, 0);
    Fd conn(fd);
    std::string received;
    ASSERT_TRUE(RecvExactly(conn.get(), 5, &received, 1000).ok());
    EXPECT_EQ(received, "hello");
    ASSERT_TRUE(SendAll(conn.get(), "world", 1000).ok());
  });

  auto fd = Connect(endpoint, 1000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ASSERT_TRUE(SendAll(fd->get(), "hello", 1000).ok());
  std::string reply;
  ASSERT_TRUE(RecvExactly(fd->get(), 5, &reply, 1000).ok());
  EXPECT_EQ(reply, "world");
  peer.join();
  ::unlink(endpoint.path.c_str());
}

TEST(SocketTest, RecvOnClosedPeerIsUnavailable) {
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path =
      "/tmp/ncl_socket_eof_" + std::to_string(::getpid()) + ".sock";
  auto listener = Listen(endpoint);
  ASSERT_TRUE(listener.ok());

  std::thread peer([&] {
    int fd = ::accept(listener->get(), nullptr, nullptr);
    ASSERT_GE(fd, 0);
    Fd conn(fd);  // close immediately: the client sees EOF
  });
  auto fd = Connect(endpoint, 1000);
  ASSERT_TRUE(fd.ok());
  peer.join();
  std::string out;
  Status status = RecvExactly(fd->get(), 1, &out, 1000);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  ::unlink(endpoint.path.c_str());
}

Endpoint UnixEndpoint(const std::string& name) {
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path = "/tmp/ncl_socket_" + name + "_" +
                  std::to_string(::getpid()) + ".sock";
  return endpoint;
}

TEST(SocketTest, ListenLeavesARegularFileAlone) {
  const Endpoint endpoint = UnixEndpoint("regular");
  std::ofstream(endpoint.path) << "precious";
  auto listener = Listen(endpoint);
  EXPECT_EQ(listener.status().code(), StatusCode::kAlreadyExists)
      << listener.status().ToString();
  std::string contents;
  std::getline(std::ifstream(endpoint.path), contents);
  EXPECT_EQ(contents, "precious");
  ::unlink(endpoint.path.c_str());
}

TEST(SocketTest, ListenDoesNotTakeALiveListenersPath) {
  const Endpoint endpoint = UnixEndpoint("live");
  auto first = Listen(endpoint);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = Listen(endpoint);
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists)
      << second.status().ToString();
  // New connections still reach the first listener.
  auto fd = Connect(endpoint, 1000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ::unlink(endpoint.path.c_str());
}

TEST(SocketTest, ListenReclaimsAStaleSocket) {
  // A listener that dies without unlinking (a crashed replica) leaves its
  // socket file behind; the next Listen on the path must succeed.
  const Endpoint endpoint = UnixEndpoint("stale");
  ASSERT_TRUE(Listen(endpoint).ok());
  auto listener = Listen(endpoint);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  auto fd = Connect(endpoint, 1000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ::unlink(endpoint.path.c_str());
}

TEST(SocketTest, ConnectToNothingFailsFast) {
  Endpoint endpoint;
  endpoint.kind = Endpoint::Kind::kUnix;
  endpoint.path = "/tmp/ncl_socket_nothing_here.sock";
  ::unlink(endpoint.path.c_str());
  auto fd = Connect(endpoint, 200);
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace ncl::net
