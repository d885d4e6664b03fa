#include "obs/span.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>

namespace proof::obs {

namespace {

uint64_t raw_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Sharded trace buffer: spans are coarse (stage granularity), so a short
/// per-shard mutex push is cheap and keeps the merge logic trivial.
struct TraceShard {
  std::mutex mu;
  std::vector<TraceEvent> events;
};

struct TraceBuffer {
  std::array<TraceShard, kShards> shards;
  std::atomic<size_t> recorded{0};
  std::atomic<uint64_t> dropped{0};
};

TraceBuffer& trace_buffer() {
  static TraceBuffer* buffer = new TraceBuffer();  // leaked, like the registry
  return *buffer;
}

std::atomic<uint32_t> g_next_tid{0};

/// Small stable per-OS-thread track id (1-based, in order of first span).
uint32_t thread_track_id() {
  thread_local const uint32_t tid =
      g_next_tid.fetch_add(1, std::memory_order_relaxed) + 1;
  return tid;
}

}  // namespace

uint64_t now_ns() {
  static const uint64_t anchor = raw_now_ns();
  return raw_now_ns() - anchor;
}

void Span::finish() {
  const uint64_t end_ns = now_ns();
  const uint64_t dur_ns = end_ns > start_ns_ ? end_ns - start_ns_ : 0;
  site_->hist.observe_ns(dur_ns);

  TraceBuffer& buffer = trace_buffer();
  if (buffer.recorded.fetch_add(1, std::memory_order_relaxed) >=
      kMaxTraceEvents) {
    buffer.recorded.fetch_sub(1, std::memory_order_relaxed);
    buffer.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent event{site_->name, thread_track_id(), start_ns_, dur_ns};
  TraceShard& shard = buffer.shards[shard_index()];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.events.push_back(event);
}

std::vector<TraceEvent> trace_events() {
  std::vector<TraceEvent> out;
  TraceBuffer& buffer = trace_buffer();
  for (TraceShard& shard : buffer.shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.insert(out.end(), shard.events.begin(), shard.events.end());
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.tid < b.tid;
  });
  return out;
}

size_t trace_event_count() {
  // A completion past the cap holds its slot in `recorded` for an instant
  // before giving it back; never report more than the buffer can hold.
  return std::min(trace_buffer().recorded.load(std::memory_order_relaxed),
                  kMaxTraceEvents);
}

uint64_t trace_dropped() {
  return trace_buffer().dropped.load(std::memory_order_relaxed);
}

void clear_trace() {
  TraceBuffer& buffer = trace_buffer();
  size_t removed = 0;
  for (TraceShard& shard : buffer.shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    removed += shard.events.size();
    shard.events.clear();
  }
  buffer.recorded.fetch_sub(removed, std::memory_order_relaxed);
  buffer.dropped.store(0, std::memory_order_relaxed);
}

}  // namespace proof::obs
