#include "stair/service.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "util/thread_pool.h"

namespace stair {

namespace detail {

/// One submitted request's lifetime: queue bookkeeping while queued, the
/// completion rendezvous afterwards. Futures share it; the scheduler holds
/// one reference while the request is queued or in service.
struct RequestState {
  Request req;
  Response response;

  std::chrono::steady_clock::time_point admitted{};
  std::chrono::steady_clock::time_point dispatched{};

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  std::atomic<bool> done{false};
};

}  // namespace detail

using detail::RequestState;

bool StorageNode::Future::done() const {
  return state_ && state_->done.load(std::memory_order_acquire);
}

const Response& StorageNode::Future::wait() const {
  if (!state_) throw std::runtime_error("StorageNode::Future: invalid handle");
  if (!state_->done.load(std::memory_order_acquire)) {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock,
                    [&] { return state_->done.load(std::memory_order_acquire); });
  }
  return state_->response;
}

// ---------------------------------------------------------------------------
// Scheduler storage + per-worker scratch
// ---------------------------------------------------------------------------

struct StorageNode::Queues {
  /// q[tenant][class] — bounded per tenant across classes, FIFO per class.
  std::vector<std::array<std::deque<StatePtr>, kRequestClasses>> q;

  std::size_t tenant_depth(std::size_t t) const {
    std::size_t total = 0;
    for (const auto& d : q[t]) total += d.size();
    return total;
  }
};

struct StorageNode::WriteSlot {
  /// Stripe coding scratch, sized for the session geometry on first write.
  std::unique_ptr<StripeBuffer> stripe;
  /// Full-width data staging (tail-stripe payloads are shorter than the
  /// stripe's data extent; the remainder must encode as zeros).
  AlignedBuffer data;
  /// Batch-read staging: the union stripe span a read batch shares.
  std::vector<std::uint8_t> span;
};

// ---------------------------------------------------------------------------
// StripeRangeLock
// ---------------------------------------------------------------------------

void StorageNode::StripeRangeLock::resize(std::size_t stripes) {
  std::lock_guard<std::mutex> lock(mu_);
  state_.assign(stripes, 0);
}

void StorageNode::StripeRangeLock::lock_shared(std::size_t lo, std::size_t hi) {
  std::unique_lock<std::mutex> lock(mu_);
  for (std::size_t s = lo; s <= hi; ++s) {
    cv_.wait(lock, [&] { return state_[s] >= 0; });
    ++state_[s];
  }
}

void StorageNode::StripeRangeLock::unlock_shared(std::size_t lo, std::size_t hi) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t s = lo; s <= hi; ++s) --state_[s];
  cv_.notify_all();
}

void StorageNode::StripeRangeLock::lock_exclusive(std::size_t stripe) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return state_[stripe] == 0; });
  state_[stripe] = -1;
}

void StorageNode::StripeRangeLock::unlock_exclusive(std::size_t stripe) {
  std::lock_guard<std::mutex> lock(mu_);
  state_[stripe] = 0;
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

StorageNode::StorageNode(Codec& codec, std::string store_dir)
    : StorageNode(codec, std::move(store_dir), Options{}) {}

StorageNode::StorageNode(Codec& codec, std::string store_dir, Options options)
    : codec_(codec), store_dir_(std::move(store_dir)), options_(options) {
  if (options_.tenants == 0) throw std::runtime_error("StorageNode: tenants must be >= 1");
  if (options_.queue_capacity == 0)
    throw std::runtime_error("StorageNode: queue_capacity must be >= 1");
  if (options_.batch_limit == 0) options_.batch_limit = 1;
}

StorageNode::~StorageNode() {
  try {
    stop();
  } catch (...) {
    // Destruction must not throw. A failed final compaction leaves the
    // previous snapshot and the journal in place, so a reload still sees
    // every committed write. (The snapshot rename is atomic against a
    // process crash, not a power cut: nothing is synced.)
  }
}

void StorageNode::start() {
  if (started_) throw std::runtime_error("StorageNode: already started");
  store_ = StripeStore::load(store_dir_);
  if (!(store_.cfg == codec_.code().config())) {
    throw std::runtime_error("StorageNode: store config " + store_.cfg.to_string() +
                             " does not match codec config " +
                             codec_.code().config().to_string());
  }
  stripe_data_ = codec_.code().data_symbol_count() * store_.symbol_bytes;

  // Per-stripe data-hash folds, maintained incrementally by the write path so
  // a write never re-reads content bytes.
  stripe_hashes_.assign(store_.stripes, 0);
  for (std::size_t s = 0; s < store_.stripes; ++s)
    stripe_hashes_[s] = store_.data_hash(s, codec_.code().layout());

  snapshot_bytes_ = std::filesystem::file_size(StripeStore::manifest_path(store_dir_));
  // Appends resume at the replayed prefix: cutting off a torn or rejected
  // tail keeps it from hiding the records written after it.
  const std::string journal = StripeStore::journal_path(store_dir_);
  journal_fd_ = ::open(journal.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (journal_fd_ < 0 ||
      ::ftruncate(journal_fd_, static_cast<off_t>(store_.journal_bytes)) != 0) {
    const int err = errno;
    if (journal_fd_ >= 0) ::close(journal_fd_);
    journal_fd_ = -1;
    throw std::runtime_error("StorageNode: cannot open " + journal + ": " + std::strerror(err));
  }
  journal_bytes_ = store_.journal_bytes;

  if (options_.io.engine) {
    engine_ = options_.io.engine;
  } else {
    owned_engine_ = io::Engine::create(options_.io.backend, options_.io.io);
    engine_ = owned_engine_.get();
  }

  // Long-lived write-path fds. O_DIRECT only when the layout is padded (a
  // block-1 legacy store has no alignment to offer), mirroring the pipeline.
  const bool direct = options_.io.direct && store_.block_bytes > 1;
  const io::OpenMode mode = direct ? io::OpenMode::kDirect : io::OpenMode::kBuffered;
  dev_fds_.assign(store_.cfg.n, -1);
  for (std::size_t j = 0; j < store_.cfg.n; ++j) {
    dev_fds_[j] = engine_->open_update(StripeStore::device_path(store_dir_, j), mode);
    if (dev_fds_[j] < 0) {
      const int err = errno;
      for (int fd : dev_fds_)
        if (fd >= 0) engine_->close(fd);
      dev_fds_.clear();
      ::close(journal_fd_);
      journal_fd_ = -1;
      throw std::runtime_error("StorageNode: cannot open " +
                               StripeStore::device_path(store_dir_, j) + ": " +
                               std::strerror(err));
    }
  }

  std::size_t workers = options_.workers;
  if (workers == 0)
    workers = std::min<std::size_t>(4, std::max<std::size_t>(2, codec_.pool().concurrency()));

  // One pipeline per worker: read_range mutates per-pipeline staging on first
  // use, and the engine's single registered-buffer set cannot be shared — so
  // workers never share a pipeline, and none of them registers (fixed off).
  IoPipeline::Options popt = options_.io;
  popt.engine = engine_;
  popt.fixed_buffers = false;
  pipelines_.clear();
  write_slots_.clear();
  for (std::size_t w = 0; w < workers; ++w) {
    pipelines_.push_back(std::make_unique<IoPipeline>(codec_, popt));
    write_slots_.push_back(std::make_unique<WriteSlot>());
  }
  write_staging_ = std::make_unique<IoBufferPool>(
      store_.padded_chunk_bytes(), std::max<std::size_t>(store_.block_bytes, 64),
      workers * store_.cfg.n);

  range_lock_.resize(store_.stripes);
  queues_ = std::make_unique<Queues>();
  queues_->q.resize(options_.tenants);
  tenant_counters_.clear();
  for (std::size_t t = 0; t < options_.tenants; ++t)
    tenant_counters_.push_back(std::make_unique<TenantCounters>());
  queued_total_.store(0, std::memory_order_relaxed);
  in_service_.store(0, std::memory_order_relaxed);
  rr_cursor_.fill(0);
  draining_ = false;
  stopping_ = false;
  stopped_ = false;

  started_ = true;  // before worker/scrubber spawn: both read node state

  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });

  if (options_.scrub) {
    ScrubOptions sopt = options_.scrub_options;
    if (!sopt.engine) sopt.engine = engine_;
    if (!sopt.hold) {
      // One priority policy: scrub holds while the node has foreground work
      // queued or in service, composing with the Scrubber's own Codec
      // idle-slot gate (and bounded by its max_stall, so a saturated node
      // still gets scrubbed eventually).
      sopt.hold = [this] { return foreground_pressure(); };
    }
    scrubber_ = std::make_unique<Scrubber>(codec_, sopt);
    scrubber_->start(store_dir_);
  }
}

bool StorageNode::foreground_pressure() const {
  return queued_total_.load(std::memory_order_relaxed) > 0 ||
         in_service_.load(std::memory_order_relaxed) > 0;
}

void StorageNode::drain() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    if (draining_) {
      // Second drainer: just wait for quiescence below.
    }
    draining_ = true;
  }
  // Stop background maintenance first — the remaining queue drains faster
  // with the codec to itself, and the scrubber's hold gate dies with it.
  if (scrubber_) {
    scrub_final_.accumulate(scrubber_->stop());
  }
  {
    std::unique_lock<std::mutex> lock(sched_mu_);
    drain_cv_.wait(lock, [&] {
      return queued_total_.load(std::memory_order_relaxed) == 0 &&
             in_service_.load(std::memory_order_relaxed) == 0;
    });
  }
  std::lock_guard<std::mutex> lock(manifest_mu_);
  compact_journal();
}

void StorageNode::stop() {
  if (!started_ || stopped_) return;
  drain();
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    stopping_ = true;
  }
  sched_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  scrubber_.reset();
  pipelines_.clear();
  write_staging_.reset();
  for (int fd : dev_fds_) engine_->close(fd);
  dev_fds_.clear();
  ::close(journal_fd_);
  journal_fd_ = -1;
  stopped_ = true;
  started_ = false;
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

StorageNode::Future StorageNode::submit(Request request) {
  if (!started_) throw std::runtime_error("StorageNode: not started");
  if (request.tenant >= options_.tenants)
    throw std::runtime_error("StorageNode: tenant " + std::to_string(request.tenant) +
                             " out of range (tenants=" + std::to_string(options_.tenants) + ")");

  auto state = std::make_shared<RequestState>();
  state->req = request;
  state->admitted = std::chrono::steady_clock::now();

  TenantCounters& tc = *tenant_counters_[request.tenant];
  tc.submitted.fetch_add(1, std::memory_order_relaxed);

  // Shape checks complete immediately (ok=false), they don't reject: the
  // request was understood and refused on its merits, not on queue pressure.
  std::string shape_error;
  if (request.type == RequestType::kWrite) {
    if (request.stripe >= store_.stripes) {
      shape_error = "write stripe out of range";
    } else {
      const std::size_t expected =
          std::min(stripe_data_, store_.file_size - request.stripe * stripe_data_);
      if (request.data.size() != expected)
        shape_error = "write payload is " + std::to_string(request.data.size()) +
                      " bytes, stripe holds " + std::to_string(expected);
    }
  } else {
    if (request.offset + request.out.size() > store_.file_size)
      shape_error = "read past end of file";
  }
  if (!shape_error.empty()) {
    Response r;
    r.ok = false;
    r.error = std::move(shape_error);
    complete(state, std::move(r));
    return Future(state);
  }
  if (request.type != RequestType::kWrite && request.out.empty()) {
    Response r;
    r.ok = true;
    complete(state, std::move(r));
    return Future(state);
  }

  bool was_draining = false;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    was_draining = draining_;
    if (!draining_ && queues_->tenant_depth(request.tenant) < options_.queue_capacity) {
      queues_->q[request.tenant][static_cast<std::size_t>(request.type)].push_back(state);
      queued_total_.fetch_add(1, std::memory_order_relaxed);
      sched_cv_.notify_one();
      return Future(state);
    }
  }

  // Reject-with-backpressure: full tenant queue or draining node. The caller
  // learns immediately; no queue ever grows past its bound.
  tc.rejected.fetch_add(1, std::memory_order_relaxed);
  Response r;
  r.ok = false;
  r.rejected = true;
  r.error = was_draining ? "node draining" : "tenant queue full";
  complete(state, std::move(r));
  return Future(state);
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

std::vector<StorageNode::StatePtr> StorageNode::next_batch() {
  std::unique_lock<std::mutex> lock(sched_mu_);
  sched_cv_.wait(lock, [&] {
    return stopping_ || queued_total_.load(std::memory_order_relaxed) > 0;
  });
  if (queued_total_.load(std::memory_order_relaxed) == 0) return {};  // stopping

  // Strict priority across classes, round-robin across tenants within one.
  std::vector<StatePtr> batch;
  batch.reserve(1);
  std::size_t cls = 0, leader_tenant = 0;
  for (; cls < kRequestClasses; ++cls) {
    for (std::size_t i = 0; i < options_.tenants; ++i) {
      const std::size_t t = (rr_cursor_[cls] + i) % options_.tenants;
      auto& dq = queues_->q[t][cls];
      if (dq.empty()) continue;
      batch.push_back(std::move(dq.front()));
      dq.pop_front();
      leader_tenant = t;
      rr_cursor_[cls] = (t + 1) % options_.tenants;
      break;
    }
    if (!batch.empty()) break;
  }
  if (batch.empty()) return {};
  std::size_t taken = 1;

  // Backlogged reads coalesce: riders whose whole range lies inside the
  // leader's stripe span share its read_range submission. Riders are pulled
  // round-robin from the leader's successor so coalescing never becomes a
  // side door around fairness.
  if (cls == static_cast<std::size_t>(RequestType::kRead) && options_.batch_limit > 1 &&
      queued_total_.load(std::memory_order_relaxed) - taken >= options_.batch_min_backlog) {
    const Request& lead = batch[0]->req;
    const std::size_t s0 = static_cast<std::size_t>(lead.offset / stripe_data_);
    const std::size_t s1 =
        static_cast<std::size_t>((lead.offset + lead.out.size() - 1) / stripe_data_);
    const std::uint64_t span_lo = std::uint64_t{s0} * stripe_data_;
    const std::uint64_t span_hi =
        std::min<std::uint64_t>(std::uint64_t{s1 + 1} * stripe_data_, store_.file_size);
    for (std::size_t i = 0; i < options_.tenants && batch.size() < options_.batch_limit; ++i) {
      const std::size_t t = (leader_tenant + 1 + i) % options_.tenants;
      auto& dq = queues_->q[t][cls];
      for (auto it = dq.begin(); it != dq.end() && batch.size() < options_.batch_limit;) {
        const Request& r = (*it)->req;
        if (r.offset >= span_lo && r.offset + r.out.size() <= span_hi) {
          batch.push_back(std::move(*it));
          it = dq.erase(it);
          ++taken;
        } else {
          ++it;
        }
      }
    }
  }

  queued_total_.fetch_sub(taken, std::memory_order_relaxed);
  in_service_.fetch_add(batch.size(), std::memory_order_relaxed);
  return batch;
}

void StorageNode::worker_loop(std::size_t worker) {
  for (;;) {
    std::vector<StatePtr> batch = next_batch();
    if (batch.empty()) return;

    const auto now = std::chrono::steady_clock::now();
    for (const StatePtr& s : batch) s->dispatched = now;

    if (batch[0]->req.type == RequestType::kWrite) {
      serve_write(worker, batch[0]);
    } else {
      serve_reads(worker, batch);
    }

    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      in_service_.fetch_sub(batch.size(), std::memory_order_relaxed);
    }
    drain_cv_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

void StorageNode::serve_reads(std::size_t worker, std::vector<StatePtr>& batch) {
  IoPipeline& pipeline = *pipelines_[worker];

  // The union span is the leader's stripe span (riders were chosen inside
  // it); lock it shared so a concurrent stripe write cannot tear the bytes.
  std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
  for (const StatePtr& s : batch) {
    lo = std::min(lo, s->req.offset);
    hi = std::max(hi, s->req.offset + s->req.out.size());
  }
  const std::size_t s0 = static_cast<std::size_t>(lo / stripe_data_);
  const std::size_t s1 = static_cast<std::size_t>((hi - 1) / stripe_data_);
  range_lock_.lock_shared(s0, s1);

  IoPipeline::Stats st;
  if (batch.size() == 1) {
    st = pipeline.read_range(store_, store_dir_, batch[0]->req.offset, batch[0]->req.out);
  } else {
    // One shared submission serves the whole batch: read the union span into
    // worker staging, then scatter each member's sub-range.
    WriteSlot& slot = *write_slots_[worker];
    const std::uint64_t span_lo = std::uint64_t{s0} * stripe_data_;
    const std::uint64_t span_hi =
        std::min<std::uint64_t>(std::uint64_t{s1 + 1} * stripe_data_, store_.file_size);
    slot.span.resize(static_cast<std::size_t>(span_hi - span_lo));
    st = pipeline.read_range(store_, store_dir_, span_lo, slot.span);
    if (st.ok) {
      for (const StatePtr& s : batch) {
        std::memcpy(s->req.out.data(), slot.span.data() + (s->req.offset - span_lo),
                    s->req.out.size());
      }
    }
  }

  range_lock_.unlock_shared(s0, s1);

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const StatePtr& s = batch[i];
    Response r;
    r.ok = st.ok;
    r.error = st.error;
    r.degraded_stripes = st.degraded_stripes;
    r.bytes = st.ok ? s->req.out.size() : 0;
    if (i > 0) {
      tenant_counters_[s->req.tenant]->batched.fetch_add(1, std::memory_order_relaxed);
      batched_reads_.fetch_add(1, std::memory_order_relaxed);
    }
    complete(s, std::move(r));
  }
}

void StorageNode::serve_write(std::size_t worker, const StatePtr& state) {
  const Request& req = state->req;
  const StairConfig& cfg = store_.cfg;
  WriteSlot& slot = *write_slots_[worker];
  Response resp;

  if (!slot.stripe) {
    slot.stripe = std::make_unique<StripeBuffer>(codec_.code(), store_.symbol_bytes);
    slot.data = AlignedBuffer(slot.stripe->data_size());
  }

  // Stage the payload at full stripe width (tail stripes encode zero-padded,
  // exactly like encode_file laid them down).
  std::memcpy(slot.data.data(), req.data.data(), req.data.size());
  if (req.data.size() < slot.data.size())
    std::memset(slot.data.data() + req.data.size(), 0, slot.data.size() - req.data.size());
  slot.stripe->set_data(slot.data.span());

  range_lock_.lock_exclusive(req.stripe);

  Codec::Handle encoded = codec_.submit_encode(slot.stripe->view());
  bool ok = true;
  std::string error;
  try {
    encoded.wait();
  } catch (const std::exception& e) {
    ok = false;
    error = e.what();
  }

  std::vector<std::uint64_t> new_checksums;
  if (ok) {
    // Stage each device's chunk with its sector checksums, and rewrite all n
    // chunks in place through the long-lived fds.
    new_checksums.assign(cfg.n * cfg.r, 0);

    std::mutex io_mu;
    std::condition_variable io_cv;
    std::size_t io_pending = cfg.n;
    int io_error = 0;

    std::vector<IoBufferPool::Lease> chunks(cfg.n);
    for (std::size_t j = 0; j < cfg.n; ++j) {
      chunks[j] = write_staging_->acquire();
      store_.stage_chunk(slot.stripe->view(), j, chunks[j]->data,
                         std::span(new_checksums).subspan(j * cfg.r, cfg.r));
      engine_->write(dev_fds_[j], store_.chunk_offset(req.stripe),
                     std::span<const std::uint8_t>(chunks[j]->data, store_.padded_chunk_bytes()),
                     [&](const io::Result& r) {
                       std::lock_guard<std::mutex> lock(io_mu);
                       if (!r.ok() && io_error == 0) io_error = r.error;
                       if (--io_pending == 0) io_cv.notify_all();
                     });
    }
    {
      std::unique_lock<std::mutex> lock(io_mu);
      io_cv.wait(lock, [&] { return io_pending == 0; });
    }
    if (io_error != 0) {
      ok = false;
      error = std::string("chunk write failed: ") + std::strerror(io_error);
    }
  }

  if (ok) {
    // The store's new truth: sector checksums, this stripe's data fold, the
    // whole-file fold — committed as one fixed-size journal record. The
    // snapshot is rewritten only once the journal has grown to its size,
    // which keeps the metadata cost per write O(1), amortized.
    std::lock_guard<std::mutex> lock(manifest_mu_);
    std::copy(new_checksums.begin(), new_checksums.end(),
              store_.stripe_checksums(req.stripe).begin());
    stripe_hashes_[req.stripe] = store_.data_hash(req.stripe, codec_.code().layout());
    store_.data_checksum = store_.fold_stripe_hashes(stripe_hashes_);
    try {
      // At the committed end rather than O_APPEND: a short write leaves
      // journal_bytes_ where it was, so the next record overwrites the tear.
      const std::vector<std::uint8_t> record = store_.journal_record(req.stripe);
      const ssize_t n = ::pwrite(journal_fd_, record.data(), record.size(),
                                 static_cast<off_t>(journal_bytes_));
      if (n != static_cast<ssize_t>(record.size()))
        throw std::runtime_error(std::string("journal append failed: ") +
                                 (n < 0 ? std::strerror(errno) : "short write"));
      journal_bytes_ += record.size();
      if (journal_bytes_ >= snapshot_bytes_) compact_journal();
    } catch (const std::exception& e) {
      // Chunks are on disk and self-consistent in memory; drain's
      // compaction persists them.
      error = e.what();
    }
  }

  range_lock_.unlock_exclusive(req.stripe);

  resp.ok = ok;
  resp.error = std::move(error);
  resp.bytes = ok ? req.data.size() : 0;
  complete(state, std::move(resp));
}

void StorageNode::compact_journal() {
  store_.save(store_dir_);
  snapshot_bytes_ = std::filesystem::file_size(StripeStore::manifest_path(store_dir_));
  // An empty journal renamed over the old one, not a truncate in place: a
  // load() that opened the old journal before reading a snapshot still
  // replays every record of it (see StripeStore::load).
  const std::string path = StripeStore::journal_path(store_dir_);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw std::runtime_error("StorageNode: cannot create " + tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw std::runtime_error("StorageNode: cannot publish " + path);
  }
  ::close(journal_fd_);
  journal_fd_ = fd;
  journal_bytes_ = 0;
}

void StorageNode::complete(const StatePtr& state, Response response) {
  const auto now = std::chrono::steady_clock::now();
  const bool dispatched = state->dispatched.time_since_epoch().count() != 0;
  response.queue_seconds =
      std::chrono::duration<double>((dispatched ? state->dispatched : now) - state->admitted)
          .count();
  response.service_seconds =
      dispatched ? std::chrono::duration<double>(now - state->dispatched).count() : 0.0;
  const std::uint64_t total_nanos = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - state->admitted).count());

  if (!response.rejected) {
    switch (state->req.type) {
      case RequestType::kRead:
        reads_.fetch_add(1, std::memory_order_relaxed);
        read_latency_.record(total_nanos);
        break;
      case RequestType::kWrite:
        writes_.fetch_add(1, std::memory_order_relaxed);
        write_latency_.record(total_nanos);
        break;
      case RequestType::kScan:
        scans_.fetch_add(1, std::memory_order_relaxed);
        scan_latency_.record(total_nanos);
        break;
    }
    if (response.degraded_stripes > 0)
      degraded_reads_.fetch_add(1, std::memory_order_relaxed);
    if (!response.ok) failed_requests_.fetch_add(1, std::memory_order_relaxed);
    tenant_counters_[state->req.tenant]->completed.fetch_add(1, std::memory_order_relaxed);
  }

  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->response = std::move(response);
    state->done.store(true, std::memory_order_release);
  }
  state->cv.notify_all();
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

StorageNode::Stats StorageNode::stats() const {
  Stats s;
  s.tenants.resize(options_.tenants);
  for (std::size_t t = 0; t < tenant_counters_.size(); ++t) {
    const TenantCounters& tc = *tenant_counters_[t];
    s.tenants[t].submitted = tc.submitted.load(std::memory_order_relaxed);
    s.tenants[t].completed = tc.completed.load(std::memory_order_relaxed);
    s.tenants[t].rejected = tc.rejected.load(std::memory_order_relaxed);
    s.tenants[t].batched = tc.batched.load(std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    if (queues_) {
      for (std::size_t t = 0; t < options_.tenants; ++t)
        s.tenants[t].queue_depth = queues_->tenant_depth(t);
    }
    s.queue_depth = queued_total_.load(std::memory_order_relaxed);
    s.in_service = in_service_.load(std::memory_order_relaxed);
  }
  s.reads = reads_.load(std::memory_order_relaxed);
  s.writes = writes_.load(std::memory_order_relaxed);
  s.scans = scans_.load(std::memory_order_relaxed);
  s.degraded_reads = degraded_reads_.load(std::memory_order_relaxed);
  s.failed_requests = failed_requests_.load(std::memory_order_relaxed);
  s.batched_reads = batched_reads_.load(std::memory_order_relaxed);
  s.scrub = scrubber_ ? scrubber_->background_report() : ScrubReport{};
  s.scrub.accumulate(scrub_final_);
  if (engine_) s.io = engine_->stats();
  s.read_latency = read_latency_.snapshot();
  s.write_latency = write_latency_.snapshot();
  s.scan_latency = scan_latency_.snapshot();
  return s;
}

// ---------------------------------------------------------------------------
// Environment knobs
// ---------------------------------------------------------------------------

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (!raw || !*raw) return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  if (errno != 0 || end == raw || *end != '\0')
    throw std::runtime_error(std::string(name) + ": invalid value '" + raw + "'");
  return static_cast<std::size_t>(v);
}

bool env_bool(const char* name, bool fallback) {
  const char* raw = std::getenv(name);
  if (!raw || !*raw) return fallback;
  const std::string v(raw);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::runtime_error(std::string(name) + ": invalid value '" + v + "'");
}

}  // namespace

StorageNode::Options node_options_from_env(StorageNode::Options base) {
  base.tenants = env_size("STAIR_NODE_TENANTS", base.tenants);
  base.queue_capacity = env_size("STAIR_NODE_QUEUE", base.queue_capacity);
  base.workers = env_size("STAIR_NODE_WORKERS", base.workers);
  base.batch_limit = env_size("STAIR_NODE_BATCH", base.batch_limit);
  base.scrub = env_bool("STAIR_NODE_SCRUB", base.scrub);
  if (base.tenants == 0) throw std::runtime_error("STAIR_NODE_TENANTS: must be >= 1");
  if (base.queue_capacity == 0) throw std::runtime_error("STAIR_NODE_QUEUE: must be >= 1");
  return base;
}

}  // namespace stair
