#include "exchange/exchange.h"

#include <algorithm>
#include <chrono>

namespace presto {

bool ExchangeBuffer::TryEnqueue(const PageCodec::Frame& frame,
                                const WakeupPtr& waiter) {
  std::vector<WakeupPtr> wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t bytes = frame.wire_bytes();
    // Admit a frame only if it fits within capacity. The empty-buffer
    // exception guarantees progress for a single frame larger than the
    // whole buffer — without it an oversized page could never be shipped at
    // all. Unacked frames count against capacity: a consumer that never
    // acks eventually stalls its producer (backpressure end to end).
    if (buffered_bytes_ > 0 && buffered_bytes_ + bytes > capacity_bytes_) {
      space_waiters_.Add(waiter);
      return false;
    }
    buffered_bytes_ += bytes;
    total_bytes_.fetch_add(bytes);
    total_raw_bytes_.fetch_add(frame.raw_bytes);
    total_rows_.fetch_add(frame.rows);
    if (wire_total_ != nullptr) wire_total_->fetch_add(bytes);
    if (raw_total_ != nullptr) raw_total_->fetch_add(frame.raw_bytes);
    // Simulated link: the frame's bits go out once the link is free (one
    // buffer's frames share its bandwidth) and land `latency` after the
    // last bit left. Frames of different buffers overlap, as on a real
    // network.
    Clock::time_point arrival{};
    if (wire_latency_micros_ > 0 || wire_bytes_per_second_ > 0) {
      Clock::time_point start = std::max(Clock::now(), wire_free_);
      wire_free_ = start;
      if (wire_bytes_per_second_ > 0) {
        wire_free_ += std::chrono::nanoseconds(bytes * 1'000'000'000 /
                                               wire_bytes_per_second_);
      }
      arrival = wire_free_ + std::chrono::microseconds(wire_latency_micros_);
    }
    frames_.push_back(Queued{frame, arrival});
    wake = data_waiters_.Take();
  }
  cv_.notify_all();
  FireAll(wake);
  return true;
}

void ExchangeBuffer::NoMorePages() {
  std::vector<WakeupPtr> wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    no_more_ = true;
    wake = data_waiters_.Take();
  }
  cv_.notify_all();
  FireAll(wake);
}

std::optional<PageCodec::Frame> ExchangeBuffer::Poll(
    bool* finished, const WakeupPtr& waiter, Clock::time_point* arrives_at) {
  // In-process transport only; never mixed with retain mode (which exists
  // for the HTTP replay path), so pop-and-ack keeps base == acked.
  std::vector<WakeupPtr> wake;
  std::optional<PageCodec::Frame> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    *finished = false;
    if (frames_.empty()) {
      *finished = no_more_;
      if (!no_more_) data_waiters_.Add(waiter);
      return std::nullopt;
    }
    Clock::time_point arrival = frames_.front().arrival;
    if (arrival != Clock::time_point{} && arrival > Clock::now()) {
      if (arrives_at != nullptr) *arrives_at = arrival;
      return std::nullopt;  // still on the wire
    }
    out = std::move(frames_.front().frame);
    frames_.pop_front();
    buffered_bytes_ -= out->wire_bytes();
    ++base_token_;  // fetch + immediate ack
    acked_token_ = base_token_;
    sent_token_ = std::max(sent_token_, base_token_);
    wake = space_waiters_.Take();
  }
  FireAll(wake);
  return out;
}

Result<ExchangeBuffer::FrameBatch> ExchangeBuffer::GetBatch(
    int64_t token, int64_t max_bytes, int64_t wait_micros) {
  std::unique_lock<std::mutex> lock(mu_);
  if (token < base_token_) {
    return Status::InvalidArgument("token " + std::to_string(token) +
                                   " already retired (acked past " +
                                   std::to_string(base_token_) + ")");
  }
  int64_t end_token = base_token_ + static_cast<int64_t>(frames_.size());
  if (token > end_token) {
    return Status::InvalidArgument("token " + std::to_string(token) +
                                   " not yet produced (have up to " +
                                   std::to_string(end_token) + ")");
  }
  // Ack: a request for token n retires everything below n, freeing capacity
  // for the producer. In retain mode the frames themselves are kept (their
  // bytes move to the retained pool) so a replacement consumer can replay
  // the stream from token 0 after a task retry (ISSUE 7). A replay request
  // (token < acked_token_) acks nothing — those frames were already freed.
  while (acked_token_ < token) {
    PageCodec::Frame& acked =
        frames_[static_cast<size_t>(acked_token_ - base_token_)].frame;
    buffered_bytes_ -= acked.wire_bytes();
    if (retain_) {
      retained_bytes_ += acked.wire_bytes();
      ++acked_token_;
    } else {
      frames_.pop_front();
      ++base_token_;
      ++acked_token_;
    }
  }
  // The ack freed capacity: wake parked producers before any long-poll
  // wait, not after it.
  if (!space_waiters_.empty()) {
    std::vector<WakeupPtr> wake = space_waiters_.Take();
    lock.unlock();
    FireAll(wake);
    lock.lock();
  }
  // Long-poll: wait (releasing the lock) for data at/after `token` or
  // end-of-stream.
  auto have_data = [this, token] {
    return token < base_token_ + static_cast<int64_t>(frames_.size()) ||
           no_more_;
  };
  if (!have_data() && wait_micros > 0) {
    cv_.wait_for(lock, std::chrono::microseconds(wait_micros), have_data);
  }
  if (token < base_token_) {
    // A concurrent request for a later token acked past ours while the
    // lock was released.
    return Status::InvalidArgument("token " + std::to_string(token) +
                                   " retired while waiting");
  }
  FrameBatch batch;
  batch.token = token;
  int64_t bytes = 0;
  for (size_t i = static_cast<size_t>(token - base_token_);
       i < frames_.size(); ++i) {
    const auto& frame = frames_[i].frame;
    if (!batch.frames.empty() && bytes + frame.wire_bytes() > max_bytes) {
      break;
    }
    batch.frames.push_back(frame);
    bytes += frame.wire_bytes();
  }
  batch.next_token = token + static_cast<int64_t>(batch.frames.size());
  batch.complete =
      no_more_ &&
      batch.next_token == base_token_ + static_cast<int64_t>(frames_.size());
  sent_token_ = std::max(sent_token_, batch.next_token);
  return batch;
}

double ExchangeBuffer::utilization() const {
  std::lock_guard<std::mutex> lock(mu_);
  return UtilizationLocked();
}

double ExchangeBuffer::UtilizationLocked() const {
  // A buffer with no (or nonsensical) capacity is saturated the moment it
  // holds data — reporting 0 here would hide backpressure from the §IV-E3
  // writer-scaling trigger and the §IV-E2 concurrency reduction.
  if (capacity_bytes_ <= 0) return buffered_bytes_ > 0 ? 1.0 : 0.0;
  double u = static_cast<double>(buffered_bytes_) /
             static_cast<double>(capacity_bytes_);
  return u > 1.0 ? 1.0 : u;
}

bool ExchangeBuffer::UtilizationAbove(double threshold,
                                      const WakeupPtr& waiter) {
  std::lock_guard<std::mutex> lock(mu_);
  if (UtilizationLocked() <= threshold) return false;
  space_waiters_.Add(waiter);
  return true;
}

bool ExchangeBuffer::finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return no_more_ && frames_.empty();
}

int64_t ExchangeBuffer::buffered_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffered_bytes_;
}

int64_t ExchangeBuffer::inflight_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Frames sent but not yet acked: [acked_token_, min(sent_token_, end)).
  int64_t from = std::max(acked_token_, base_token_);
  int64_t to = std::min(sent_token_,
                        base_token_ + static_cast<int64_t>(frames_.size()));
  int64_t bytes = 0;
  for (int64_t t = from; t < to; ++t) {
    bytes += frames_[static_cast<size_t>(t - base_token_)].frame.wire_bytes();
  }
  return bytes;
}

int64_t ExchangeBuffer::retained_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retained_bytes_;
}

void ExchangeManager::CreateOutputBuffers(const std::string& query_id,
                                          int fragment, int task,
                                          int partitions,
                                          int64_t capacity_bytes,
                                          int generation) {
  std::unique_lock<std::mutex> lock(mu_);
  bool retain = retain_for_replay_.load();
  // Only the in-process transport simulates the wire; HTTP frames pay
  // real socket costs.
  const bool simulate = network_.transport == TransportMode::kInProcess;
  for (int p = 0; p < partitions; ++p) {
    StreamId id{query_id, fragment, task, p};
    auto it = buffers_.find(id);
    // Same-or-newer generation: idempotent create, keep the buffer. Older
    // generation: a recovery re-creation superseded the task on this
    // worker — its stale stream must not be served to the new consumers.
    if (it != buffers_.end() && it->second->generation() >= generation) {
      continue;
    }
    buffers_[id] = std::make_shared<ExchangeBuffer>(
        capacity_bytes, &serialized_wire_, &serialized_raw_, generation,
        retain, simulate ? network_.latency_micros : 0,
        simulate ? network_.bytes_per_second : 0);
  }
  std::vector<WakeupPtr> wake = create_waiters_.Take();
  lock.unlock();
  FireAll(wake);
}

void ExchangeManager::RemoveTaskBuffers(const std::string& query_id,
                                        int fragment, int task) {
  std::lock_guard<std::mutex> lock(mu_);
  StreamId lo{query_id, fragment, task, 0};
  for (auto it = buffers_.lower_bound(lo); it != buffers_.end();) {
    if (it->first.query_id != query_id || it->first.fragment != fragment ||
        it->first.task != task) {
      break;
    }
    it = buffers_.erase(it);
  }
}

std::shared_ptr<ExchangeBuffer> ExchangeManager::GetBuffer(
    const StreamId& id, const WakeupPtr& waiter) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = buffers_.find(id);
  if (it != buffers_.end()) return it->second;
  create_waiters_.Add(waiter);
  return nullptr;
}

double ExchangeManager::OutputUtilization(const std::string& query_id,
                                          int fragment, int task) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Maximum across partitions: a single full buffer stalls the producer
  // (and is the §IV-E3 writer-scaling trigger).
  double max_utilization = 0;
  StreamId lo{query_id, fragment, task, 0};
  for (auto it = buffers_.lower_bound(lo); it != buffers_.end(); ++it) {
    if (it->first.query_id != query_id || it->first.fragment != fragment ||
        it->first.task != task) {
      break;
    }
    max_utilization = std::max(max_utilization, it->second->utilization());
  }
  return max_utilization;
}

bool ExchangeManager::OutputAbove(const std::string& query_id, int fragment,
                                  int task, double threshold,
                                  const WakeupPtr& waiter) const {
  std::lock_guard<std::mutex> lock(mu_);
  bool above = false;
  StreamId lo{query_id, fragment, task, 0};
  for (auto it = buffers_.lower_bound(lo); it != buffers_.end(); ++it) {
    if (it->first.query_id != query_id || it->first.fragment != fragment ||
        it->first.task != task) {
      break;
    }
    // No early exit: every full buffer must register the waiter, since an
    // ack on any of them may be the one that lifts the backpressure.
    if (it->second->UtilizationAbove(threshold, waiter)) above = true;
  }
  return above;
}

void ExchangeManager::RemoveQuery(const std::string& query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = buffers_.begin(); it != buffers_.end();) {
    if (it->first.query_id == query_id) {
      it = buffers_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = endpoints_.begin(); it != endpoints_.end();) {
    if (it->first.query_id == query_id) {
      it = endpoints_.erase(it);
    } else {
      ++it;
    }
  }
}

void ExchangeManager::RemoveStream(const StreamId& id) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.erase(id);
}

void ExchangeManager::RegisterTaskEndpoint(const std::string& query_id,
                                           int fragment, int task, int port,
                                           int generation) {
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_[StreamId{query_id, fragment, task, 0}] =
      TaskEndpoint{port, generation};
}

int ExchangeManager::LookupTaskEndpoint(const std::string& query_id,
                                        int fragment, int task) const {
  return LookupTaskEndpointInfo(query_id, fragment, task).port;
}

ExchangeManager::TaskEndpoint ExchangeManager::LookupTaskEndpointInfo(
    const std::string& query_id, int fragment, int task) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = endpoints_.find(StreamId{query_id, fragment, task, 0});
  return it == endpoints_.end() ? TaskEndpoint{} : it->second;
}

int64_t ExchangeManager::TotalBufferedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [id, buffer] : buffers_) {
    total += buffer->buffered_bytes();
  }
  return total;
}

int64_t ExchangeManager::TotalInflightBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [id, buffer] : buffers_) {
    total += buffer->inflight_bytes();
  }
  return total;
}

int64_t ExchangeManager::TotalRetainedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [id, buffer] : buffers_) {
    total += buffer->retained_bytes();
  }
  return total;
}

}  // namespace presto
