#include "exchange/http/exchange_http.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "exchange/exchange.h"
#include "exchange/http/http_io.h"
#include "vector/block.h"
#include "vector/page.h"

namespace presto {
namespace {

// Uncompressed frames keep wire sizes predictable for capacity math.
PageCodecOptions TestCodecOptions() {
  return PageCodecOptions{PageCompression::kNone, true, true};
}

PageCodec::Frame MakeFrame(std::vector<int64_t> values) {
  PageCodec codec(TestCodecOptions());
  return codec.Encode(Page({MakeBigintBlock(std::move(values))}));
}

HttpRequest Get(const std::string& path, int64_t max_wait_micros = 0) {
  HttpRequest request;
  request.method = "GET";
  request.path = path;
  request.headers["x-presto-max-wait-micros"] =
      std::to_string(max_wait_micros);
  return request;
}

HttpRequest Delete(const std::string& path) {
  HttpRequest request;
  request.method = "DELETE";
  request.path = path;
  return request;
}

/// Protocol fixture: a real server over loopback plus direct Handle()
/// access for header-level assertions. The stream under test is
/// query "q" fragment 1 task 0 partition 0 — task id "q.1.0".
class ExchangeHttpTest : public ::testing::Test {
 protected:
  static constexpr char kPath[] = "/v1/task/q.1.0/results/0";

  void SetUp() override {
    NetworkConfig network;
    network.latency_micros = 0;
    network.bytes_per_second = 0;
    network.transport = TransportMode::kHttp;
    network.http_long_poll_micros = 500'000;  // tests pick their own wait
    network.http_max_retries = 4;
    network.http_retry_backoff_micros = 100;
    manager_ =
        std::make_unique<ExchangeManager>(network, TestCodecOptions());
    service_ = std::make_unique<ExchangeHttpService>(manager_.get());
    ASSERT_TRUE(service_->Start().ok());
  }

  void TearDown() override {
    service_->Stop();
    FaultInjection::Instance().DisarmAll();
  }

  std::shared_ptr<ExchangeBuffer> CreateStream(int64_t capacity = 1 << 20) {
    manager_->CreateOutputBuffers("q", 1, 0, /*partitions=*/1, capacity);
    return manager_->GetBuffer({"q", 1, 0, 0});
  }

  ExchangeHttpClient MakeClient() {
    return ExchangeHttpClient(manager_.get(), service_->port(),
                              StreamId{"q", 1, 0, 0});
  }

  std::unique_ptr<ExchangeManager> manager_;
  std::unique_ptr<ExchangeHttpService> service_;
};

constexpr char ExchangeHttpTest::kPath[];

TEST_F(ExchangeHttpTest, TokenSequencingAcrossBatches) {
  auto buffer = CreateStream();
  PageCodec::Frame f0 = MakeFrame({1, 2, 3});
  PageCodec::Frame f1 = MakeFrame({4, 5});
  ASSERT_TRUE(buffer->TryEnqueue(f0));
  ASSERT_TRUE(buffer->TryEnqueue(f1));

  HttpResponse r = service_->Handle(Get(std::string(kPath) + "/0"));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.header("x-presto-page-token"), "0");
  EXPECT_EQ(r.header("x-presto-page-next-token"), "2");
  EXPECT_EQ(r.header("x-presto-frame-count"), "2");
  EXPECT_EQ(r.header("x-presto-buffer-complete"), "false");
  EXPECT_EQ(r.body, f0.bytes + f1.bytes);

  PageCodec::Frame f2 = MakeFrame({6});
  ASSERT_TRUE(buffer->TryEnqueue(f2));
  buffer->NoMorePages();

  // Requesting token 2 acks frames 0-1 and drains the rest of the stream.
  r = service_->Handle(Get(std::string(kPath) + "/2"));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.header("x-presto-page-token"), "2");
  EXPECT_EQ(r.header("x-presto-page-next-token"), "3");
  EXPECT_EQ(r.header("x-presto-buffer-complete"), "true");
  EXPECT_EQ(r.body, f2.bytes);

  // Final ack: empty, still complete.
  r = service_->Handle(Get(std::string(kPath) + "/3"));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.header("x-presto-frame-count"), "0");
  EXPECT_EQ(r.header("x-presto-buffer-complete"), "true");
  EXPECT_EQ(buffer->buffered_bytes(), 0);
}

TEST_F(ExchangeHttpTest, AckFreesProducerCapacity) {
  PageCodec::Frame frame = MakeFrame(std::vector<int64_t>(64, 7));
  // Capacity for exactly one frame.
  auto buffer = CreateStream(frame.wire_bytes());
  ASSERT_TRUE(buffer->TryEnqueue(frame));
  ASSERT_FALSE(buffer->TryEnqueue(frame));  // full: backpressure

  // Fetching without acking does NOT free capacity — the server must be
  // able to resend the un-acked frame after a lost response.
  HttpResponse r = service_->Handle(Get(std::string(kPath) + "/0"));
  ASSERT_EQ(r.status, 200);
  EXPECT_EQ(buffer->inflight_bytes(), frame.wire_bytes());
  EXPECT_FALSE(buffer->TryEnqueue(frame));

  // The ack (requesting the next token) retires the frame and unblocks
  // the producer.
  r = service_->Handle(Get(std::string(kPath) + "/1"));
  ASSERT_EQ(r.status, 200);
  EXPECT_EQ(buffer->inflight_bytes(), 0);
  EXPECT_TRUE(buffer->TryEnqueue(frame));
}

TEST_F(ExchangeHttpTest, DuplicateFetchReturnsIdenticalFrames) {
  auto buffer = CreateStream();
  ASSERT_TRUE(buffer->TryEnqueue(MakeFrame({10, 20})));
  ASSERT_TRUE(buffer->TryEnqueue(MakeFrame({30})));

  HttpResponse first = service_->Handle(Get(std::string(kPath) + "/0"));
  HttpResponse second = service_->Handle(Get(std::string(kPath) + "/0"));
  ASSERT_EQ(first.status, 200);
  ASSERT_EQ(second.status, 200);
  EXPECT_EQ(first.body, second.body);
  EXPECT_EQ(first.header("x-presto-page-token"),
            second.header("x-presto-page-token"));
  EXPECT_EQ(first.header("x-presto-page-next-token"),
            second.header("x-presto-page-next-token"));
}

// Regression: the coordinator's result-fetch loop can drop a fetched
// batch on its root-epoch check, so the client's internal delivered count
// overstates what the consumer actually committed. A reset that trusted
// the internal count would skip replayed frames nobody ever received —
// the caller passes its own committed count instead.
TEST_F(ExchangeHttpTest, ResetWithExplicitDeliveredCountReplaysEverything) {
  auto buffer = CreateStream();
  PageCodec::Frame f0 = MakeFrame({1});
  PageCodec::Frame f1 = MakeFrame({2});
  ASSERT_TRUE(buffer->TryEnqueue(f0));
  ASSERT_TRUE(buffer->TryEnqueue(f1));

  ExchangeHttpClient client = MakeClient();
  auto first = client.Fetch();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->frame_count, 2);
  EXPECT_EQ(first->skip_frames, 0);

  // The caller dropped that batch without consuming it: zero frames
  // committed. The replay must hand both frames over again, unskipped.
  client.ResetForReplacement(service_->port(), /*generation=*/0,
                             /*delivered=*/0);
  auto replay = client.Fetch();
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->frame_count, 2);
  EXPECT_EQ(replay->skip_frames, 0);
  EXPECT_EQ(replay->body, f0.bytes + f1.bytes);
}

TEST_F(ExchangeHttpTest, ResetDefaultSkipsInternallyDeliveredFrames) {
  auto buffer = CreateStream();
  ASSERT_TRUE(buffer->TryEnqueue(MakeFrame({1})));
  ASSERT_TRUE(buffer->TryEnqueue(MakeFrame({2})));

  ExchangeHttpClient client = MakeClient();
  auto first = client.Fetch();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->frame_count, 2);

  // A consumer that handed both frames downstream (the operator path)
  // re-fetches from token 0 after a producer replacement: both replayed
  // frames come back flagged for decode-and-drop.
  client.ResetForReplacement(service_->port(), /*generation=*/0);
  auto replay = client.Fetch();
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->frame_count, 2);
  EXPECT_EQ(replay->skip_frames, 2);
}

TEST_F(ExchangeHttpTest, TokenOutsideWindowIsBadRequest) {
  auto buffer = CreateStream();
  ASSERT_TRUE(buffer->TryEnqueue(MakeFrame({1})));
  ASSERT_TRUE(buffer->TryEnqueue(MakeFrame({2})));
  // Ack frame 0.
  ASSERT_EQ(service_->Handle(Get(std::string(kPath) + "/1")).status, 200);
  // A retired token can never be served again.
  EXPECT_EQ(service_->Handle(Get(std::string(kPath) + "/0")).status, 400);
  // A token past the produced range is a client bug, not a long-poll.
  EXPECT_EQ(service_->Handle(Get(std::string(kPath) + "/7")).status, 400);
}

TEST_F(ExchangeHttpTest, MalformedPathsAndTokens) {
  CreateStream();
  EXPECT_EQ(service_->Handle(Get("/v2/bogus")).status, 404);
  EXPECT_EQ(service_->Handle(Get("/v1/task/noDotsHere/results/0/0")).status,
            400);
  EXPECT_EQ(service_->Handle(Get(std::string(kPath) + "/abc")).status, 400);
  EXPECT_EQ(service_->Handle(Get(std::string(kPath) + "/-1")).status, 400);
  // GET without a token segment is malformed.
  EXPECT_EQ(service_->Handle(Get(kPath)).status, 400);
  // Unknown stream at token 0 is "not created yet" — with out-of-process
  // workers a consumer can legitimately poll before the producer's create
  // RPC lands, so the server answers an empty incomplete batch instead of
  // 404 and the consumer retries.
  {
    HttpResponse r = service_->Handle(Get("/v1/task/q.1.0/results/9/0"));
    EXPECT_EQ(r.status, 200);
    EXPECT_TRUE(r.body.empty());
    EXPECT_EQ(r.header("x-presto-buffer-complete"), "false");
  }
  // Past token 0 the buffer must have existed, so absence means "gone".
  EXPECT_EQ(service_->Handle(Get("/v1/task/q.1.0/results/9/3")).status, 404);
}

TEST_F(ExchangeHttpTest, DeleteMidStreamTearsDownBuffer) {
  auto buffer = CreateStream();
  ASSERT_TRUE(buffer->TryEnqueue(MakeFrame({1, 2, 3})));
  ASSERT_EQ(service_->Handle(Get(std::string(kPath) + "/0")).status, 200);

  EXPECT_EQ(service_->Handle(Delete(kPath)).status, 204);
  EXPECT_EQ(manager_->GetBuffer({"q", 1, 0, 0}), nullptr);
  // Fetching a deleted stream is 404; deleting again stays idempotent.
  EXPECT_EQ(service_->Handle(Get(std::string(kPath) + "/1")).status, 404);
  EXPECT_EQ(service_->Handle(Delete(kPath)).status, 204);
}

TEST_F(ExchangeHttpTest, LongPollTimesOutEmptyWithSameToken) {
  CreateStream();
  auto start = std::chrono::steady_clock::now();
  HttpResponse r =
      service_->Handle(Get(std::string(kPath) + "/0", /*wait=*/30'000));
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.header("x-presto-frame-count"), "0");
  EXPECT_EQ(r.header("x-presto-page-token"), "0");
  EXPECT_EQ(r.header("x-presto-page-next-token"), "0");
  EXPECT_EQ(r.header("x-presto-buffer-complete"), "false");
  EXPECT_TRUE(r.body.empty());
  EXPECT_GE(elapsed, 30'000);
}

TEST_F(ExchangeHttpTest, LongPollWakesOnEnqueue) {
  auto buffer = CreateStream();
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(buffer->TryEnqueue(MakeFrame({42})));
  });
  auto start = std::chrono::steady_clock::now();
  HttpResponse r =
      service_->Handle(Get(std::string(kPath) + "/0", /*wait=*/400'000));
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  producer.join();
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.header("x-presto-frame-count"), "1");
  // Woken by the enqueue, not the 400ms deadline.
  EXPECT_LT(elapsed, 300);
}

// ---------------------------------------------------------------------------
// Real sockets: client against server
// ---------------------------------------------------------------------------

TEST_F(ExchangeHttpTest, ClientPullsWholeStreamOverSockets) {
  auto buffer = CreateStream();
  std::vector<PageCodec::Frame> frames;
  for (int64_t i = 0; i < 5; ++i) {
    frames.push_back(MakeFrame({i * 10, i * 10 + 1}));
    ASSERT_TRUE(buffer->TryEnqueue(frames.back()));
  }
  buffer->NoMorePages();

  ExchangeHttpClient client = MakeClient();
  std::string all_bytes;
  int64_t total_frames = 0;
  bool complete = false;
  while (!complete) {
    auto fetch = client.Fetch();
    ASSERT_TRUE(fetch.ok()) << fetch.status().ToString();
    all_bytes += fetch->body;
    total_frames += fetch->frame_count;
    complete = fetch->complete;
  }
  EXPECT_EQ(total_frames, 5);
  EXPECT_EQ(client.next_token(), 5);

  std::string expected;
  for (const auto& frame : frames) expected += frame.bytes;
  EXPECT_EQ(all_bytes, expected);

  // Decode everything back and verify the payload survived the wire.
  size_t offset = 0;
  int64_t rows = 0;
  while (offset < all_bytes.size()) {
    auto page = manager_->codec().Decode(all_bytes, &offset);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    rows += page->num_rows();
  }
  EXPECT_EQ(rows, 10);

  EXPECT_TRUE(client.DeleteBuffer().ok());
  EXPECT_EQ(manager_->GetBuffer({"q", 1, 0, 0}), nullptr);
  EXPECT_GT(manager_->http_requests(), 0);
}

TEST_F(ExchangeHttpTest, ClientSurfacesDeletedBufferAsIOError) {
  auto buffer = CreateStream();
  ASSERT_TRUE(buffer->TryEnqueue(MakeFrame({1})));
  ExchangeHttpClient client = MakeClient();
  ASSERT_TRUE(client.Fetch().ok());
  manager_->RemoveStream({"q", 1, 0, 0});
  auto fetch = client.Fetch();
  ASSERT_FALSE(fetch.ok());
  EXPECT_EQ(fetch.status().code(), StatusCode::kIOError);
}

TEST_F(ExchangeHttpTest, MalformedFrameSurfacesAsIOErrorNotCrash) {
  auto buffer = CreateStream();
  ASSERT_TRUE(buffer->TryEnqueue(MakeFrame({1, 2, 3, 4})));
  ExchangeHttpClient client = MakeClient();
  auto fetch = client.Fetch();
  ASSERT_TRUE(fetch.ok());
  ASSERT_FALSE(fetch->body.empty());
  // A bit flip inside the payload must fail the checksum as IOError.
  std::string corrupt = fetch->body;
  corrupt[corrupt.size() - 1] ^= 0x01;
  size_t offset = 0;
  auto page = manager_->codec().Decode(corrupt, &offset);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kIOError);
  // Truncation mid-frame is equally survivable.
  offset = 0;
  auto truncated = manager_->codec().Decode(
      std::string_view(fetch->body.data(), fetch->body.size() / 2), &offset);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kIOError);
}

TEST_F(ExchangeHttpTest, ClientRetriesThrough5xx) {
  auto buffer = CreateStream();
  ASSERT_TRUE(buffer->TryEnqueue(MakeFrame({5, 6})));
  FaultSpec spec;
  spec.error = Status::Internal("injected server failure");
  spec.max_fires = 2;
  FaultInjection::Instance().Arm("exchange.http_server", spec);

  ExchangeHttpClient client = MakeClient();
  auto fetch = client.Fetch();
  ASSERT_TRUE(fetch.ok()) << fetch.status().ToString();
  EXPECT_EQ(fetch->frame_count, 1);
  EXPECT_GE(manager_->http_retries(), 2);
}

TEST_F(ExchangeHttpTest, ClientExhaustsRetryBudget) {
  auto buffer = CreateStream();
  ASSERT_TRUE(buffer->TryEnqueue(MakeFrame({5})));
  FaultSpec spec;
  spec.error = Status::Internal("injected server failure");
  FaultInjection::Instance().Arm("exchange.http_server", spec);  // always

  ExchangeHttpClient client = MakeClient();
  auto fetch = client.Fetch();
  ASSERT_FALSE(fetch.ok());
  EXPECT_EQ(fetch.status().code(), StatusCode::kIOError);
  EXPECT_NE(fetch.status().message().find("retries exhausted"),
            std::string::npos)
      << fetch.status().ToString();
  // http_max_retries=4 -> 5 attempts total.
  EXPECT_EQ(FaultInjection::Instance().fires("exchange.http_server"), 5);
}

TEST_F(ExchangeHttpTest, ServerRejectsGarbageBytes) {
  // A client speaking not-HTTP gets a 400 (best-effort) or a hangup —
  // never a crash or a wedged server.
  auto conn = ConnectToLoopback(service_->port(), 500'000);
  ASSERT_TRUE(conn.ok());
  HttpRequest garbage;
  garbage.method = "PGF1\x01\x02";
  garbage.path = "not-a-path";
  (void)(*conn)->WriteRequest(garbage);
  auto response = (*conn)->ReadResponse();
  if (response.ok()) {
    EXPECT_EQ(response->status, 400);
  }
  // The server is still fully functional afterwards.
  auto buffer = CreateStream();
  ASSERT_TRUE(buffer->TryEnqueue(MakeFrame({9})));
  ExchangeHttpClient client = MakeClient();
  auto fetch = client.Fetch();
  ASSERT_TRUE(fetch.ok()) << fetch.status().ToString();
  EXPECT_EQ(fetch->frame_count, 1);
}

namespace {
// Writes raw bytes on the connection's socket, bypassing WriteRequest's
// framing (the hardening tests need deliberately broken framing).
void SendRaw(HttpConnection* conn, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(conn->fd(), data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
}
}  // namespace

TEST_F(ExchangeHttpTest, OversizedBodyRefusedWith413) {
  auto conn = ConnectToLoopback(service_->port(), 2'000'000);
  ASSERT_TRUE(conn.ok());
  // Content-length over the 256 MiB cap: refused up front, before any
  // body bytes are read (none are even sent here).
  SendRaw(conn->get(),
          "POST /v1/task/q.1.0/results/0 HTTP/1.1\r\n"
          "content-length: 300000000\r\n\r\n");
  auto response = (*conn)->ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 413);
}

TEST_F(ExchangeHttpTest, OversizedRequestLineRefusedWith431) {
  auto conn = ConnectToLoopback(service_->port(), 2'000'000);
  ASSERT_TRUE(conn.ok());
  std::string request_line =
      "GET /" + std::string(80 << 10, 'a') + " HTTP/1.1\r\n\r\n";
  SendRaw(conn->get(), request_line);
  auto response = (*conn)->ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 431);
}

TEST_F(ExchangeHttpTest, TooManyHeadersRefusedWith431) {
  auto conn = ConnectToLoopback(service_->port(), 2'000'000);
  ASSERT_TRUE(conn.ok());
  std::string request = "GET /v1/task/q.1.0/results/0/0 HTTP/1.1\r\n";
  for (int i = 0; i < 200; ++i) {
    request += "x-filler-" + std::to_string(i) + ": v\r\n";
  }
  request += "\r\n";
  SendRaw(conn->get(), request);
  auto response = (*conn)->ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 431);
}

TEST_F(ExchangeHttpTest, ServerFaultPointAnswers500) {
  FaultSpec spec;
  spec.error = Status::Internal("injected server failure");
  FaultInjection::Instance().Arm("http.server_serve", spec);
  auto conn = ConnectToLoopback(service_->port(), 2'000'000);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE((*conn)->WriteRequest(Get(std::string(kPath) + "/0")).ok());
  auto response = (*conn)->ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 500);
  FaultInjection::Instance().DisarmAll();
  // The connection and server both survive the injected failure.
  ASSERT_TRUE((*conn)->WriteRequest(Get(std::string(kPath) + "/0")).ok());
  auto healthy = (*conn)->ReadResponse();
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ(healthy->status, 200);
}

}  // namespace
}  // namespace presto
