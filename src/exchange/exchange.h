#ifndef PRESTOCPP_EXCHANGE_EXCHANGE_H_
#define PRESTOCPP_EXCHANGE_EXCHANGE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/wakeup.h"
#include "vector/page_codec.h"

namespace presto {

class Histogram;
class TraceRegistry;

/// How serialized frames move between tasks (§IV-E2).
enum class TransportMode : uint8_t {
  /// Consumers poll producer buffers directly through the shared
  /// ExchangeManager map; each frame carries a simulated arrival time that
  /// stands in for the network.
  kInProcess = 0,
  /// Consumers pull over real localhost HTTP/1.1 sockets: long-poll GET
  /// /v1/task/{taskId}/results/{bufferId}/{token} with ack-based frame
  /// retirement and client-side retry (src/exchange/http/).
  kHttp = 1,
};

/// Network characteristics of the shuffle fabric. latency/bytes_per_second
/// drive the simulated cost model of the in-process transport (a frame
/// arrives latency + wire_bytes/bytes_per_second after it is sent, with
/// the bandwidth shared by the frames of one buffer; 0 turns either term
/// off); the http_* knobs tune the real socket transport.
struct NetworkConfig {
  int64_t latency_micros = 50;
  int64_t bytes_per_second = 4LL << 30;  // 4 GB/s
  TransportMode transport = TransportMode::kInProcess;
  /// Server-side long-poll wait when a buffer has no data yet. The consumer
  /// holds its executor thread for the wait, so it is kept short; a driver
  /// whose poll came back empty re-polls after a fixed re-arm delay.
  int64_t http_long_poll_micros = 10'000;
  /// Maximum frame bytes returned by one GET (at least one frame always).
  int64_t http_response_max_bytes = 1 << 20;
  /// Client retry policy: attempts beyond the first on timeout/5xx/transport
  /// errors, with exponential backoff starting at http_retry_backoff_micros.
  int http_max_retries = 5;
  int64_t http_retry_backoff_micros = 500;
  /// Client socket receive timeout (must exceed the long-poll wait).
  int64_t http_io_timeout_micros = 2'000'000;
};

/// A bounded single-producer buffer for one (producer task, consumer
/// partition) pair, holding pages in serialized form (§IV-E2 "pages
/// transferred in serialized form"): producers enqueue encoded frames, and
/// capacity, utilization, and backpressure are all charged in actual wire
/// bytes rather than in-memory size estimates. Producers block
/// (backpressure) when the buffer is full.
///
/// Consumption follows the paper's token protocol ("the server retains data
/// until the client requests the next segment using a token"): frames carry
/// monotonically increasing sequence tokens, GetBatch(token) retires —
/// frees — everything below `token` and returns the frames at and after it,
/// so a lost response is recovered by re-requesting the same un-acked token.
/// Poll() is the in-process shortcut: fetch + immediate ack of one frame.
///
/// Blocked drivers wait on a buffer through Wakeup handles: a consumer is
/// woken by the next enqueue or NoMorePages, a producer (on a full buffer,
/// or parked by the executor for backpressure) by the next ack.
class ExchangeBuffer {
 public:
  using Clock = std::chrono::steady_clock;

  /// `wire_total`/`raw_total`, when set, receive every enqueued frame's
  /// wire/pre-compression bytes (the manager's cumulative serde counters,
  /// which must survive buffer teardown at query end). `generation` stamps
  /// the producer incarnation (ISSUE 7); with `retain_for_replay` set,
  /// acked frames are kept (capacity still freed) so a replacement consumer
  /// can re-fetch the stream from token 0 after a task retry.
  /// `wire_latency_micros`/`wire_bytes_per_second` set the simulated link
  /// Poll() delivers over (see NetworkConfig); zero means no delay.
  explicit ExchangeBuffer(int64_t capacity_bytes,
                          std::atomic<int64_t>* wire_total = nullptr,
                          std::atomic<int64_t>* raw_total = nullptr,
                          int generation = 0, bool retain_for_replay = false,
                          int64_t wire_latency_micros = 0,
                          int64_t wire_bytes_per_second = 0)
      : capacity_bytes_(capacity_bytes),
        generation_(generation),
        retain_(retain_for_replay),
        wire_latency_micros_(wire_latency_micros),
        wire_bytes_per_second_(wire_bytes_per_second),
        wire_total_(wire_total),
        raw_total_(raw_total) {}

  /// Producer side: returns false when the buffer is full (§IV-E2 "full
  /// output buffers cause split execution to stall"); `waiter` is then
  /// fired by the next ack. Copies the frame only when it is admitted, so
  /// a rejected enqueue is cheap to retry. Unacked (in-flight) frames still
  /// occupy capacity until the consumer's next token retires them.
  bool TryEnqueue(const PageCodec::Frame& frame,
                  const WakeupPtr& waiter = nullptr);
  void NoMorePages();

  /// Consumer side (in-process transport): nullopt when no frame has
  /// arrived; *finished set when the stream ended and everything was
  /// consumed. Equivalent to GetBatch of one frame with an immediate ack.
  /// Frames arrive over the simulated link: when the next frame is still
  /// on the wire, *arrives_at (if given) receives its arrival time;
  /// when the buffer is empty and open, `waiter` is fired by the next
  /// enqueue or NoMorePages. Never sleeps.
  std::optional<PageCodec::Frame> Poll(bool* finished,
                                       const WakeupPtr& waiter = nullptr,
                                       Clock::time_point* arrives_at = nullptr);

  /// One long-poll response worth of frames.
  struct FrameBatch {
    std::vector<PageCodec::Frame> frames;
    int64_t token = 0;       // sequence of frames.front() (== requested)
    int64_t next_token = 0;  // token the client must request (ack) next
    bool complete = false;   // stream ended and nothing remains after this
  };

  /// Consumer side (HTTP transport): acks — retires, freeing capacity —
  /// every frame below `token`, then returns frames starting at `token`
  /// up to `max_bytes` (always at least one when available), waiting up to
  /// `wait_micros` for data when none is queued. A repeated request for an
  /// un-acked token returns identical frames (idempotent re-fetch); an
  /// already-retired or not-yet-produced token is InvalidArgument.
  Result<FrameBatch> GetBatch(int64_t token, int64_t max_bytes,
                              int64_t wait_micros);

  /// Fraction of capacity in use (drives concurrency reduction, §IV-E2).
  double utilization() const;
  /// True if utilization() exceeds `threshold`; `waiter` is then fired by
  /// the next ack.
  bool UtilizationAbove(double threshold, const WakeupPtr& waiter);
  bool finished() const;
  int64_t buffered_bytes() const;
  /// Bytes handed to a consumer via GetBatch but not yet acked.
  int64_t inflight_bytes() const;
  /// Bytes of acked frames kept for replay (0 unless retain_for_replay).
  int64_t retained_bytes() const;
  int generation() const { return generation_; }
  int64_t total_bytes_sent() const { return total_bytes_.load(); }
  int64_t total_raw_bytes_sent() const { return total_raw_bytes_.load(); }
  int64_t total_rows_sent() const { return total_rows_.load(); }

 private:
  /// A frame plus the time it reaches the consumer over the simulated link
  /// (the epoch when there is no link).
  struct Queued {
    PageCodec::Frame frame;
    Clock::time_point arrival;
  };
  double UtilizationLocked() const;
  mutable std::mutex mu_;
  std::condition_variable cv_;  // notified on enqueue / NoMorePages
  std::deque<Queued> frames_;
  int64_t base_token_ = 0;   // sequence token of frames_.front()
  int64_t acked_token_ = 0;  // lowest un-acked token (== base_ w/o retain)
  int64_t sent_token_ = 0;   // highest next_token ever returned by GetBatch
  int64_t buffered_bytes_ = 0;
  int64_t retained_bytes_ = 0;  // acked-but-kept bytes (retain mode)
  int64_t capacity_bytes_;
  int generation_ = 0;
  bool retain_ = false;
  bool no_more_ = false;
  int64_t wire_latency_micros_;
  int64_t wire_bytes_per_second_;
  Clock::time_point wire_free_{};  // when the simulated link is next idle
  WaitList data_waiters_;   // consumers: enqueue / NoMorePages
  WaitList space_waiters_;  // producers: ack
  std::atomic<int64_t> total_bytes_{0};
  std::atomic<int64_t> total_raw_bytes_{0};
  std::atomic<int64_t> total_rows_{0};
  std::atomic<int64_t>* wire_total_;
  std::atomic<int64_t>* raw_total_;
};

/// Identifies one directed stream: query/fragment/task on the producing
/// side, partition on the consuming side.
struct StreamId {
  std::string query_id;
  int fragment = 0;
  int task = 0;
  int partition = 0;

  bool operator<(const StreamId& other) const {
    return std::tie(query_id, fragment, task, partition) <
           std::tie(other.query_id, other.fragment, other.task,
                    other.partition);
  }
};

/// Process-wide shuffle registry: producers create their output buffers up
/// front; consumers look them up by stream id (in-process transport) or pull
/// them over HTTP from the owning worker's exchange server (kHttp), routed
/// via the task-endpoint registry. Owns the wire codec every stream shares;
/// sinks encode with it and sources decode with it.
class ExchangeManager {
 public:
  /// Default wire options: preserve encodings (§V-E), LZ4, checksummed.
  static PageCodecOptions DefaultCodecOptions() {
    return PageCodecOptions{PageCompression::kLz4,
                            /*preserve_encodings=*/true,
                            /*checksum=*/true};
  }

  explicit ExchangeManager(NetworkConfig network = {},
                           PageCodecOptions codec_options =
                               DefaultCodecOptions())
      : network_(network), codec_(codec_options) {}

  const NetworkConfig& network() const { return network_; }
  const PageCodec& codec() const { return codec_; }

  /// Creates buffers for all partitions of (query, fragment, task) stamped
  /// with `generation`. Existing buffers of the same-or-newer generation
  /// are left untouched (idempotent create); an older generation's buffers
  /// are replaced (a recovery re-creation on the same worker, ISSUE 7).
  void CreateOutputBuffers(const std::string& query_id, int fragment,
                           int task, int partitions, int64_t capacity_bytes,
                           int generation = 0);

  /// Drops every partition buffer of one task (recovery supersede).
  void RemoveTaskBuffers(const std::string& query_id, int fragment, int task);

  /// Buffer for a stream; nullptr if not (yet) created, in which case
  /// `waiter` is fired by the next CreateOutputBuffers.
  std::shared_ptr<ExchangeBuffer> GetBuffer(
      const StreamId& id, const WakeupPtr& waiter = nullptr);

  /// Maximum output-buffer utilization across partitions of one task.
  double OutputUtilization(const std::string& query_id, int fragment,
                           int task) const;
  /// True if any output buffer of the task is fuller than `threshold`
  /// (§IV-E2 backpressure); `waiter` is then fired by the next ack on one
  /// of those buffers.
  bool OutputAbove(const std::string& query_id, int fragment, int task,
                   double threshold, const WakeupPtr& waiter) const;

  /// Drops all buffers (and task endpoints) of a query (cleanup / kill).
  void RemoveQuery(const std::string& query_id);

  /// Drops one stream's buffer (the client's DELETE teardown). Idempotent.
  void RemoveStream(const StreamId& id);

  /// kHttp routing: the coordinator records which worker's exchange server
  /// owns the output buffers of (query, fragment, task) and under which
  /// producer generation; consumers resolve both before opening a client.
  struct TaskEndpoint {
    int port = -1;      // -1 when unknown (not yet launched)
    int generation = 0;
  };
  void RegisterTaskEndpoint(const std::string& query_id, int fragment,
                            int task, int port, int generation = 0);
  int LookupTaskEndpoint(const std::string& query_id, int fragment,
                         int task) const;
  TaskEndpoint LookupTaskEndpointInfo(const std::string& query_id,
                                      int fragment, int task) const;

  /// Counts `bytes` (actual wire bytes) moved through the transport.
  void RecordTransfer(int64_t bytes) const {
    transferred_bytes_.fetch_add(bytes);
  }

  /// Bytes currently buffered across every stream of every query.
  int64_t TotalBufferedBytes() const;

  /// Bytes handed to consumers but not yet acked, across every stream.
  int64_t TotalInflightBytes() const;

  /// Acked-but-retained replay bytes across every stream (retain mode).
  int64_t TotalRetainedBytes() const;

  /// When set, buffers created from now on retain acked frames for replay
  /// (task recovery, ISSUE 7). Sticky per manager; workers flip it on the
  /// first create request that asks for it, before any sink runs.
  void set_retain_for_replay(bool retain) { retain_for_replay_.store(retain); }
  bool retain_for_replay() const { return retain_for_replay_.load(); }

  /// Cumulative bytes moved through the transport since startup.
  int64_t transferred_bytes() const { return transferred_bytes_.load(); }

  /// Cumulative serialized (wire) bytes enqueued across all streams, and
  /// the pre-compression payload bytes behind them. raw/wire is the fleet
  /// compression ratio.
  int64_t serialized_wire_bytes() const { return serialized_wire_.load(); }
  int64_t serialized_raw_bytes() const { return serialized_raw_.load(); }

  /// HTTP transport counters (presto_exchange_http_* gauges).
  void RecordHttpRequest() { http_requests_.fetch_add(1); }
  void RecordHttpRetry() { http_retries_.fetch_add(1); }
  int64_t http_requests() const { return http_requests_.load(); }
  int64_t http_retries() const { return http_retries_.load(); }

  /// Trace-context resolution for `x-presto-trace` headers: the engine
  /// installs its registry so HTTP services/clients can attach spans to the
  /// right query recorder. May stay null (no tracing).
  void SetTraceRegistry(TraceRegistry* traces) { traces_.store(traces); }
  TraceRegistry* traces() const { return traces_.load(); }

  /// Latency histograms (seconds), installed by the engine: server-side
  /// long-poll wait and client-side HTTP request round trips. May be null.
  void set_poll_wait_histogram(Histogram* histogram) {
    poll_wait_histogram_.store(histogram);
  }
  Histogram* poll_wait_histogram() const {
    return poll_wait_histogram_.load();
  }
  void set_http_request_histogram(Histogram* histogram) {
    http_request_histogram_.store(histogram);
  }
  Histogram* http_request_histogram() const {
    return http_request_histogram_.load();
  }

 private:
  NetworkConfig network_;
  PageCodec codec_;
  mutable std::mutex mu_;
  std::map<StreamId, std::shared_ptr<ExchangeBuffer>> buffers_;
  WaitList create_waiters_;  // consumers of not-yet-created buffers
  /// (query, fragment, task) -> endpoint, keyed as StreamId partition 0.
  std::map<StreamId, TaskEndpoint> endpoints_;
  std::atomic<bool> retain_for_replay_{false};
  mutable std::atomic<int64_t> transferred_bytes_{0};
  std::atomic<int64_t> serialized_wire_{0};
  std::atomic<int64_t> serialized_raw_{0};
  std::atomic<int64_t> http_requests_{0};
  std::atomic<int64_t> http_retries_{0};
  std::atomic<TraceRegistry*> traces_{nullptr};
  std::atomic<Histogram*> poll_wait_histogram_{nullptr};
  std::atomic<Histogram*> http_request_histogram_{nullptr};
};

}  // namespace presto

#endif  // PRESTOCPP_EXCHANGE_EXCHANGE_H_
