// Socket-layer tests: the non-blocking UDP wrapper the host runtime
// (src/host) is built on, exercised directly on loopback. The protocol
// over real sockets is covered by tests/host_test.cpp.
#include <gtest/gtest.h>

#include <sys/time.h>

#include <chrono>
#include <csignal>
#include <thread>

#include "src/transport/udp.h"

namespace co::transport {
namespace {

using namespace std::chrono_literals;

TEST(UdpTransport, SocketBindSendReceiveRoundTrip) {
  UdpSocket a, b;
  a.bind_loopback(0);
  b.bind_loopback(0);
  const std::vector<std::uint8_t> payload{1, 2, 3, 4};
  ASSERT_TRUE(a.send_to(b.local_endpoint(), payload));
  ASSERT_TRUE(b.wait_readable(1000));
  const auto got = b.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, payload);
  EXPECT_EQ(got->from.port, a.local_endpoint().port);
  EXPECT_FALSE(b.receive().has_value());  // queue drained
}

// Regression: wait_readable treated the first EINTR as "not readable",
// letting any interval timer collapse an 80 ms wait to microseconds and
// starve the caller. The wait must now be served in full, restarting with
// the residual budget after every signal.
TEST(UdpTransport, WaitReadableSurvivesSignalStorm) {
  UdpSocket sock;
  sock.bind_loopback(0);

  struct sigaction sa{}, old_sa{};
  sa.sa_handler = +[](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately NOT SA_RESTART: poll must see EINTR
  ASSERT_EQ(::sigaction(SIGALRM, &sa, &old_sa), 0);
  itimerval storm{}, old_timer{};
  storm.it_interval.tv_usec = 5'000;  // a signal every 5 ms, forever
  storm.it_value.tv_usec = 5'000;
  ASSERT_EQ(::setitimer(ITIMER_REAL, &storm, &old_timer), 0);

  // Phase 1: nothing readable — the full 80 ms budget must elapse even
  // though ~16 signals land inside it.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(sock.wait_readable(80));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 75ms);

  // Phase 2: a datagram arriving mid-storm still ends the wait early.
  UdpSocket sender;
  sender.bind_loopback(0);
  std::thread poker([&] {
    std::this_thread::sleep_for(20ms);
    const std::uint8_t byte = 7;
    sender.send_to(sock.local_endpoint(), {&byte, 1});
  });
  EXPECT_TRUE(sock.wait_readable(5'000));
  poker.join();

  ::setitimer(ITIMER_REAL, &old_timer, nullptr);
  ::sigaction(SIGALRM, &old_sa, nullptr);
}

}  // namespace
}  // namespace co::transport
