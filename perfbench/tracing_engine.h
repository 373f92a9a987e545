// Timing io::Engine decorator for the repo benchmark's traced runs.
//
// Wraps the engine io::Engine::create() builds and is handed to the library
// through its public `engine` seams (StorageNode::Options::io.engine,
// IoPipeline::Options::engine, ScrubOptions::engine), so every chunk
// transfer the node, the pipelines and the scrubber submit is timed from
// outside the library: one span per transfer, submit -> completion, recorded
// before the caller's callback runs (the callback's own work is not IO).
// Counts and bytes are kept per direction, plus the in-flight high-water mark.
//
// Recording can be switched off at run time; the decorator then only
// forwards, which is how the traced run measures its own overhead.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "util/latency.h"
#include "util/stripe_io.h"

namespace perfbench {

class TracingEngine final : public stair::io::Engine {
 public:
  struct Snapshot {
    std::uint64_t reads = 0, writes = 0;
    std::uint64_t read_bytes = 0, write_bytes = 0;
    std::uint64_t inflight_high_water = 0;
    stair::LatencyHistogram read_ns, write_ns;
  };

  explicit TracingEngine(std::unique_ptr<stair::io::Engine> inner) : inner_(std::move(inner)) {}

  void set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }

  /// Counters and span histograms since construction or the last reset().
  Snapshot snapshot() const {
    Snapshot s;
    s.reads = reads_.load(std::memory_order_relaxed);
    s.writes = writes_.load(std::memory_order_relaxed);
    s.read_bytes = read_bytes_.load(std::memory_order_relaxed);
    s.write_bytes = write_bytes_.load(std::memory_order_relaxed);
    s.inflight_high_water = high_water_.load(std::memory_order_relaxed);
    s.read_ns = read_ns_->snapshot();
    s.write_ns = write_ns_->snapshot();
    return s;
  }

  /// Clears every counter. Call with no transfers in flight.
  void reset() {
    reads_ = writes_ = read_bytes_ = write_bytes_ = 0;
    high_water_ = inflight_.load();
    read_ns_ = std::make_unique<stair::ConcurrentHistogram>();
    write_ns_ = std::make_unique<stair::ConcurrentHistogram>();
  }

  stair::io::Backend backend() const override { return inner_->backend(); }

  void read(int fd, std::uint64_t offset, std::span<std::uint8_t> buf,
            stair::io::Callback cb) override {
    inner_->read(fd, offset, buf, traced(true, std::move(cb)));
  }
  void write(int fd, std::uint64_t offset, std::span<const std::uint8_t> buf,
             stair::io::Callback cb) override {
    inner_->write(fd, offset, buf, traced(false, std::move(cb)));
  }
  void read_fixed(int fd, std::uint64_t offset, std::span<std::uint8_t> buf, int buf_index,
                  stair::io::Callback cb) override {
    inner_->read_fixed(fd, offset, buf, buf_index, traced(true, std::move(cb)));
  }
  void write_fixed(int fd, std::uint64_t offset, std::span<const std::uint8_t> buf,
                   int buf_index, stair::io::Callback cb) override {
    inner_->write_fixed(fd, offset, buf, buf_index, traced(false, std::move(cb)));
  }
  void flush() override { inner_->flush(); }
  int open_read(const std::string& path, stair::io::OpenMode mode) override {
    return inner_->open_read(path, mode);
  }
  int open_write(const std::string& path, stair::io::OpenMode mode) override {
    return inner_->open_write(path, mode);
  }
  int open_update(const std::string& path, stair::io::OpenMode mode) override {
    return inner_->open_update(path, mode);
  }
  void close(int fd) override { inner_->close(fd); }
  std::uint64_t file_size(int fd) const override { return inner_->file_size(fd); }
  int truncate(int fd, std::uint64_t size) override { return inner_->truncate(fd, size); }
  int register_buffers(std::span<const std::span<std::uint8_t>> regions) override {
    return inner_->register_buffers(regions);
  }
  void unregister_buffers() override { inner_->unregister_buffers(); }
  int register_files(std::span<const int> fds) override { return inner_->register_files(fds); }
  void unregister_files() override { inner_->unregister_files(); }
  Stats stats() const override { return inner_->stats(); }

 private:
  stair::io::Callback traced(bool is_read, stair::io::Callback cb) {
    if (!recording_.load(std::memory_order_relaxed)) return cb;
    const std::uint64_t now = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::uint64_t seen = high_water_.load(std::memory_order_relaxed);
    while (now > seen && !high_water_.compare_exchange_weak(seen, now)) {
    }
    const auto start = std::chrono::steady_clock::now();
    return [this, is_read, start, cb = std::move(cb)](const stair::io::Result& r) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      (is_read ? reads_ : writes_).fetch_add(1, std::memory_order_relaxed);
      (is_read ? read_bytes_ : write_bytes_).fetch_add(r.bytes, std::memory_order_relaxed);
      (is_read ? read_ns_ : write_ns_)->record(static_cast<std::uint64_t>(ns));
      cb(r);
    };
  }

  std::unique_ptr<stair::io::Engine> inner_;
  std::atomic<bool> recording_{true};
  std::atomic<std::uint64_t> reads_{0}, writes_{0}, read_bytes_{0}, write_bytes_{0};
  std::atomic<std::uint64_t> inflight_{0}, high_water_{0};
  std::unique_ptr<stair::ConcurrentHistogram> read_ns_ =
      std::make_unique<stair::ConcurrentHistogram>();
  std::unique_ptr<stair::ConcurrentHistogram> write_ns_ =
      std::make_unique<stair::ConcurrentHistogram>();
};

// The decorator must override every Engine virtual, or a transfer kind
// would bypass the spans.
template <typename T>
struct member_class;
template <typename R, typename C, typename... A>
struct member_class<R (C::*)(A...)> {
  using type = C;
};
template <typename R, typename C, typename... A>
struct member_class<R (C::*)(A...) const> {
  using type = C;
};
#define PERFBENCH_CHECK_OVERRIDE(name)                                                   \
  static_assert(                                                                         \
      std::is_same_v<member_class<decltype(&TracingEngine::name)>::type, TracingEngine>, \
      "TracingEngine must override Engine::" #name);
STAIR_IO_ENGINE_VIRTUALS(PERFBENCH_CHECK_OVERRIDE)
#undef PERFBENCH_CHECK_OVERRIDE

}  // namespace perfbench
