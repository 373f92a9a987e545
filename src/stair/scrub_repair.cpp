#include "stair/scrub_repair.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.h"

namespace stair {

SharedBandwidth::SharedBandwidth(double rate_mbps, double burst_bytes)
    : rate_mbps_(rate_mbps), burst_bytes_(burst_bytes) {}

bool SharedBandwidth::acquire(std::size_t bytes, const std::function<bool()>& cancel) {
  granted_.fetch_add(bytes, std::memory_order_relaxed);
  if (!(rate_mbps_ > 0.0)) return false;
  using clock = std::chrono::steady_clock;
  const double rate = rate_mbps_ * 1024.0 * 1024.0;
  const double burst = std::max(burst_bytes_, static_cast<double>(bytes));
  bool waited = false;
  while (!(cancel && cancel())) {
    double deficit_s = 0.0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto now = clock::now();
      if (refill_ == clock::time_point{}) refill_ = now;
      tokens_ = std::min(
          burst, tokens_ + std::chrono::duration<double>(now - refill_).count() * rate);
      refill_ = now;
      if (tokens_ >= static_cast<double>(bytes)) {
        tokens_ -= static_cast<double>(bytes);
        return waited;
      }
      deficit_s = (static_cast<double>(bytes) - tokens_) / rate;
    }
    waited = true;
    std::this_thread::sleep_for(std::chrono::duration<double>(std::min(deficit_s, 0.01)));
  }
  return waited;
}

void ScrubReport::accumulate(const ScrubReport& p) {
  ok = ok && p.ok;
  completed = completed && p.completed;
  if (error.empty()) error = p.error;
  stripes = p.stripes;
  stripes_scanned += p.stripes_scanned;
  stripes_degraded += p.stripes_degraded;
  stripes_unrecoverable += p.stripes_unrecoverable;
  chunks_missing += p.chunks_missing;
  sectors_corrupt += p.sectors_corrupt;
  sectors_repaired += p.sectors_repaired;
  repair_failures += p.repair_failures;
  throttle_stalls += p.throttle_stalls;
  bytes_read += p.bytes_read;
  bytes_written += p.bytes_written;
}

/// Per-pass shared state; lives on the run_pass stack, drain() guarantees
/// no callback outlives it (the IoPipeline::Run idiom).
struct Scrubber::Pass {
  const StripeStore* store = nullptr;
  std::string dir;
  std::optional<std::size_t> rebuild;  // device being rebuilt, if any
  bool repair = true;
  io::IoPhase read_phase = io::IoPhase::kScrub;
  std::size_t symbol_bytes = 0;
  std::size_t padded_chunk = 0;  // on-disk stride/transfer length per chunk
  /// Open mode for chunk reads and the rebuild target (whole aligned
  /// transfers only). Sector-patch open_update fds stay buffered.
  io::OpenMode dev_mode = io::OpenMode::kBuffered;

  std::vector<int> read_fds;   // -1: missing/skip (rebuild target)
  std::vector<int> write_fds;  // -2: not opened yet; guarded by fd_mu
  std::mutex fd_mu;

  std::mutex mu;
  std::condition_variable cv;
  std::size_t in_flight = 0;  // guarded by mu
  std::string error;          // first fatal failure; guarded by mu

  std::atomic<std::size_t> scanned{0}, degraded{0}, unrecoverable{0}, missing{0},
      corrupt{0}, repaired{0}, repair_failed{0}, stalls{0};
  std::atomic<std::uint64_t> bytes_read{0}, bytes_written{0};

  bool has_fatal() {
    std::lock_guard<std::mutex> lock(mu);
    return !error.empty();
  }
  void fatal(std::string message) {
    std::lock_guard<std::mutex> lock(mu);
    if (error.empty()) error = std::move(message);
  }
  void retire() {
    // Notify under the lock: once in_flight hits 0 a racing drain returns
    // and this stack-allocated Pass is destroyed.
    std::lock_guard<std::mutex> lock(mu);
    --in_flight;
    cv.notify_all();
  }
};

Scrubber::Scrubber(Codec& codec, ScrubOptions options)
    : codec_(codec), options_(std::move(options)) {
  if (options_.stripes_in_flight == 0) options_.stripes_in_flight = 1;
  if (options_.engine) {
    engine_ = options_.engine;
  } else {
    const io::Backend requested = options_.backend == io::Backend::kAuto
                                      ? io::backend_from_env()
                                      : options_.backend;
    owned_engine_ = io::Engine::create(requested, options_.io);
    engine_ = owned_engine_.get();
  }
  background_report_.ok = background_report_.completed = true;
}

Scrubber::~Scrubber() { stop(); }

ScrubReport Scrubber::scrub(const std::string& store_dir) {
  return run_pass(store_dir, std::nullopt);
}

ScrubReport Scrubber::rebuild_device(const std::string& store_dir, std::size_t device) {
  return run_pass(store_dir, device);
}

void Scrubber::pace(Pass& pass, std::size_t bytes) {
  using clock = std::chrono::steady_clock;
  bool stalled = false;
  // Idle-slot gate: foreground pressure is Codec jobs beyond this
  // Scrubber's own in-flight decodes. Bounded: a node that is never idle
  // still gets scrubbed, just never at full tilt.
  auto gated = [&] {
    if (options_.hold) return options_.hold();
    if (!options_.yield_to_foreground) return false;
    return codec_.jobs_in_flight() > own_jobs_.load(std::memory_order_relaxed);
  };
  const auto gate_deadline = clock::now() + options_.max_stall;
  while (!stop_.load(std::memory_order_relaxed) && gated() && clock::now() < gate_deadline) {
    stalled = true;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // Token bucket on scanned bytes: refill at rate, spend per stripe, sleep
  // off the deficit in short slices so stop() stays responsive.
  if (options_.rate_mbps > 0.0) {
    const double rate = options_.rate_mbps * 1024.0 * 1024.0;
    const double burst = std::max<double>(options_.burst_bytes, static_cast<double>(bytes));
    while (!stop_.load(std::memory_order_relaxed)) {
      double deficit_s = 0.0;
      {
        std::lock_guard<std::mutex> lock(bucket_mu_);
        const auto now = clock::now();
        if (bucket_refill_ == clock::time_point{}) bucket_refill_ = now;
        tokens_ = std::min(burst,
                           tokens_ + std::chrono::duration<double>(now - bucket_refill_).count() * rate);
        bucket_refill_ = now;
        if (tokens_ >= static_cast<double>(bytes)) {
          tokens_ -= static_cast<double>(bytes);
          break;
        }
        deficit_s = (static_cast<double>(bytes) - tokens_) / rate;
      }
      stalled = true;
      std::this_thread::sleep_for(std::chrono::duration<double>(std::min(deficit_s, 0.01)));
    }
  }
  // Cluster-wide cap last: an array throttled by its own bucket should not
  // hold shared tokens it cannot spend yet.
  if (options_.shared_bandwidth &&
      options_.shared_bandwidth->acquire(
          bytes, [this] { return stop_.load(std::memory_order_relaxed); }))
    stalled = true;
  if (stalled) pass.stalls.fetch_add(1, std::memory_order_relaxed);
}

ScrubReport Scrubber::run_pass(const std::string& store_dir,
                               std::optional<std::size_t> rebuild) {
  ScrubReport rep;
  StripeStore store;
  try {
    store = StripeStore::load(store_dir);
  } catch (const std::exception& e) {
    rep.error = e.what();
    return rep;
  }
  const StairCode& code = codec_.code();
  if (!(store.cfg == code.config())) {
    rep.error = "store config " + store.cfg.to_string() + " does not match codec config " +
                code.config().to_string();
    return rep;
  }
  if (rebuild && *rebuild >= store.cfg.n) {
    rep.error = "rebuild device out of range";
    return rep;
  }

  Pass pass;
  pass.store = &store;
  pass.dir = store_dir;
  pass.rebuild = rebuild;
  pass.repair = rebuild ? true : options_.repair;
  pass.read_phase = rebuild ? io::IoPhase::kRebuild : io::IoPhase::kScrub;
  pass.symbol_bytes = store.symbol_bytes;
  pass.padded_chunk = store.padded_chunk_bytes();
  // Direct only engages on padded stores: a legacy (block 1) layout has no
  // alignment to offer, so it always reads buffered regardless of the knob.
  pass.dev_mode = options_.direct && store.block_bytes > 1 ? io::OpenMode::kDirect
                                                          : io::OpenMode::kBuffered;
  // One pass runs at a time per Scrubber, so swapping the staging pool at
  // pass start is safe (outstanding leases pin the old backing store).
  const std::size_t align = std::max<std::size_t>(store.block_bytes, 64);
  if (!buffers_ || buffers_->buffer_bytes() < pass.padded_chunk ||
      buffers_->alignment() != align)
    buffers_ = std::make_unique<IoBufferPool>(
        pass.padded_chunk, align, options_.stripes_in_flight * store.cfg.n);
  pass.read_fds.assign(store.cfg.n, -1);
  pass.write_fds.assign(store.cfg.n, -2);
  for (std::size_t j = 0; j < store.cfg.n; ++j) {
    if (rebuild && *rebuild == j) continue;  // target column is re-derived
    pass.read_fds[j] =
        engine_->open_read(StripeStore::device_path(store_dir, j), pass.dev_mode);
  }
  if (rebuild) {
    // The target file is recreated from scratch (truncate): every chunk is
    // about to be reconstructed and written back in stripe order. It only
    // ever takes whole padded-chunk writes from aligned staging, so it is
    // direct-capable like the read side.
    pass.write_fds[*rebuild] = engine_->open_write(
        StripeStore::device_path(store_dir, *rebuild), pass.dev_mode);
    if (pass.write_fds[*rebuild] < 0)
      pass.fatal("cannot recreate " + StripeStore::device_path(store_dir, *rebuild));
  }

  for (std::size_t s = 0; s < store.stripes; ++s) {
    if (stop_.load(std::memory_order_relaxed) || pass.has_fatal()) break;
    pace(pass, store.cfg.n * pass.padded_chunk);
    if (stop_.load(std::memory_order_relaxed)) break;
    scan_stripe(pass, s);
  }
  {
    std::unique_lock<std::mutex> lock(pass.mu);
    pass.cv.wait(lock, [&] { return pass.in_flight == 0; });
  }
  // No engine flush: every transfer this pass submitted has retired through
  // its slot countdown, and flushing would also wait out unrelated
  // foreground IO on a shared engine.
  for (int fd : pass.read_fds) engine_->close(fd);
  for (int fd : pass.write_fds)
    if (fd >= 0) engine_->close(fd);

  rep.stripes = store.stripes;
  rep.stripes_scanned = pass.scanned.load();
  rep.stripes_degraded = pass.degraded.load();
  rep.stripes_unrecoverable = pass.unrecoverable.load();
  rep.chunks_missing = pass.missing.load();
  rep.sectors_corrupt = pass.corrupt.load();
  rep.sectors_repaired = pass.repaired.load();
  rep.repair_failures = pass.repair_failed.load();
  rep.throttle_stalls = pass.stalls.load();
  rep.bytes_read = pass.bytes_read.load();
  rep.bytes_written = pass.bytes_written.load();
  {
    std::lock_guard<std::mutex> lock(pass.mu);
    rep.error = pass.error;
  }
  rep.ok = rep.error.empty();
  rep.completed = rep.ok && rep.stripes_scanned == rep.stripes;
  return rep;
}

void Scrubber::scan_stripe(Pass& pass, std::size_t stripe) {
  {
    std::unique_lock<std::mutex> lock(pass.mu);
    pass.cv.wait(lock, [&] { return pass.in_flight < options_.stripes_in_flight; });
    ++pass.in_flight;
  }
  WorkspacePool<StripeSlot>::Lease slot = slots_.acquire();
  const StairConfig& cfg = pass.store->cfg;
  slot->prepare(codec_.code(), pass.symbol_bytes, pass.padded_chunk, *buffers_);
  slot->pending.store(cfg.n, std::memory_order_relaxed);
  pass.scanned.fetch_add(1, std::memory_order_relaxed);

  StripeSlot* raw = slot.get();
  io::PhaseScope phase(pass.read_phase);
  for (std::size_t j = 0; j < cfg.n; ++j) {
    auto complete = [this, &pass, slot, stripe, j](const io::Result& r) mutable {
      slot->results[j] = r;  // devices are disjoint; countdown publishes
      // Verify (r checksum passes) is real work: bounce it onto the codec
      // pool so engine completion threads keep completing IO. Per chunk, not
      // per stripe — the bytes are hashed while they are still warm.
      codec_.pool().submit([this, &pass, slot = std::move(slot), stripe, j]() mutable {
        verify_chunk(pass, std::move(slot), stripe, j);
      });
    };
    if (pass.read_fds[j] < 0) {
      complete(io::Result{ENOENT, 0});
    } else {
      engine_->read(pass.read_fds[j], pass.store->chunk_offset(stripe),
                    std::span(raw->chunks[j]->data, pass.padded_chunk), complete);
    }
  }
}

void Scrubber::verify_chunk(Pass& pass, WorkspacePool<StripeSlot>::Lease slot,
                            std::size_t stripe, std::size_t device) {
  StripeSlot& sl = *slot;
  const io::Result& r = sl.results[device];
  // When decode cannot run zero-copy over the staging (odd symbol size),
  // rebuild stages surviving sectors into the stripe buffer here, warm —
  // every rebuild stripe decodes. Scrub passes defer the copy to
  // assemble_stripe, paying it only on the rare damaged stripe.
  StripeBuffer* into = pass.rebuild && pass.symbol_bytes % 64 != 0 ? &*sl.buf : nullptr;
  const auto verdict = pass.store->verify_chunk(stripe, device, r, sl.chunks[device]->data,
                                                sl.sector_bad, into);
  // The rebuild target is never read: its erased column is the premise of
  // the pass, not damage found.
  if (!(pass.rebuild && *pass.rebuild == device)) {
    pass.bytes_read.fetch_add(r.bytes, std::memory_order_relaxed);
    pass.missing.fetch_add(verdict.missing, std::memory_order_relaxed);
    pass.corrupt.fetch_add(verdict.corrupt, std::memory_order_relaxed);
  }
  if (sl.pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
    assemble_stripe(pass, std::move(slot), stripe);
}

void Scrubber::assemble_stripe(Pass& pass, WorkspacePool<StripeSlot>::Lease slot,
                               std::size_t stripe) {
  try {
    const StairConfig& cfg = pass.store->cfg;
    StripeSlot& sl = *slot;
    const std::size_t erased = StripeStore::erasure_mask(sl.sector_bad, sl.mask);
    // Damage beyond the rebuild premise (the target's r erased rows).
    const bool damage = erased > (pass.rebuild ? cfg.r : 0);
    if (damage) pass.degraded.fetch_add(1, std::memory_order_relaxed);
    const bool masked = erased > 0;
    if (!masked || !pass.repair) {
      if (masked && !pass.repair) {
        // Detect-only scrub still reports coverage misses.
        if (!codec_.code().is_recoverable(sl.mask))
          pass.unrecoverable.fetch_add(1, std::memory_order_relaxed);
      }
      slot.reset();
      pass.retire();
      return;
    }
    // Decode zero-copy where the layout allows it: surviving symbols are
    // read straight out of the aligned staging leases (still warm from the
    // hash pass) and only the reconstructed symbols land in the stripe
    // buffer. The 64-byte guard keeps kernel and altmap regions on the
    // alignment every other call site gives them; odd symbol sizes take the
    // staging copy instead.
    StripeView view = sl.buf->view();
    const bool zero_copy = pass.symbol_bytes % 64 == 0;
    for (std::size_t j = 0; j < cfg.n; ++j)
      for (std::size_t i = 0; i < cfg.r; ++i) {
        if (sl.mask[i * cfg.n + j]) continue;
        if (zero_copy)
          view.stored[i * cfg.n + j] =
              std::span(sl.chunks[j]->data + i * pass.symbol_bytes, pass.symbol_bytes);
        else if (!pass.rebuild)  // rebuild staged these warm in verify_chunk
          std::memcpy(sl.buf->symbol(i, j).data(),
                      sl.chunks[j]->data + i * pass.symbol_bytes, pass.symbol_bytes);
      }
    own_jobs_.fetch_add(1, std::memory_order_relaxed);
    // The degraded read resolves through the session plan cache: a rebuild
    // (or a recurring corruption shape) pays one inversion for the epoch.
    codec_.submit_decode(view, sl.mask,
                         [this, &pass, slot = std::move(slot), stripe](bool ok) mutable {
                           own_jobs_.fetch_sub(1, std::memory_order_relaxed);
                           if (!ok) {
                             // Outside coverage: counted, never thrown.
                             pass.unrecoverable.fetch_add(1, std::memory_order_relaxed);
                             slot.reset();
                             pass.retire();
                             return;
                           }
                           repair_stripe(pass, std::move(slot), stripe);
                         });
  } catch (const std::exception& e) {
    pass.fatal(std::string("scrub verify failed: ") + e.what());
    slot.reset();
    pass.retire();
  }
}

void Scrubber::repair_stripe(Pass& pass, WorkspacePool<StripeSlot>::Lease slot,
                             std::size_t stripe) {
  try {
    const StairConfig& cfg = pass.store->cfg;
    StripeSlot& sl = *slot;
    // Re-verify before rewrite: every reconstructed sector must match its
    // manifest checksum, or the repair writes nothing — a scrubber must
    // never "repair" a store with bytes it cannot prove.
    for (std::size_t j = 0; j < cfg.n; ++j)
      for (std::size_t i = 0; i < cfg.r; ++i)
        if (sl.mask[i * cfg.n + j] &&
            !pass.store->sector_ok(stripe, j, i, sl.buf->symbol(i, j))) {
          pass.repair_failed.fetch_add(1, std::memory_order_relaxed);
          slot.reset();
          pass.retire();
          return;
        }

    // Plan the write set per device: a fully-masked column rewrites its
    // chunk in one transfer (gathered into the chunk staging), scattered
    // sector hits are patched individually straight from the stripe buffer.
    struct WriteOp {
      int fd;
      std::uint64_t offset;
      std::span<const std::uint8_t> bytes;
      std::size_t sectors;
    };
    std::vector<WriteOp> writes;
    for (std::size_t j = 0; j < cfg.n; ++j) {
      std::size_t masked = 0;
      for (std::size_t i = 0; i < cfg.r; ++i) masked += sl.mask[i * cfg.n + j];
      if (masked == 0) continue;
      int fd;
      {
        std::lock_guard<std::mutex> lock(pass.fd_mu);
        if (pass.write_fds[j] == -2)
          pass.write_fds[j] = engine_->open_update(StripeStore::device_path(pass.dir, j));
        fd = pass.write_fds[j];
      }
      if (fd < 0) {
        pass.repair_failed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (masked == cfg.r) {
        // Whole chunk in one padded transfer from the aligned staging (pad
        // tail zeroed — the store is byte-identical across modes), which is
        // also what keeps the rebuild target's O_DIRECT fd happy.
        IoBuffer& chunk = *sl.chunks[j];
        pass.store->stage_chunk(sl.buf->view(), j, chunk.data, {});
        writes.push_back({fd, pass.store->chunk_offset(stripe),
                          std::span<const std::uint8_t>(chunk.data, pass.padded_chunk),
                          cfg.r});
      } else {
        for (std::size_t i = 0; i < cfg.r; ++i)
          if (sl.mask[i * cfg.n + j])
            writes.push_back({fd,
                              pass.store->chunk_offset(stripe) + i * pass.symbol_bytes,
                              std::span<const std::uint8_t>(sl.buf->symbol(i, j)), 1});
      }
    }
    if (writes.empty()) {
      slot.reset();
      pass.retire();
      return;
    }
    sl.pending.store(writes.size(), std::memory_order_relaxed);
    io::PhaseScope phase(io::IoPhase::kRepair);
    for (const WriteOp& w : writes) {
      engine_->write(w.fd, w.offset, w.bytes,
                     [this, &pass, slot, len = w.bytes.size(),
                      sectors = w.sectors](const io::Result& r) mutable {
                       pass.bytes_written.fetch_add(r.bytes, std::memory_order_relaxed);
                       if (r.error || r.bytes < len)
                         pass.repair_failed.fetch_add(1, std::memory_order_relaxed);
                       else
                         pass.repaired.fetch_add(sectors, std::memory_order_relaxed);
                       if (slot->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                         slot.reset();
                         pass.retire();
                       }
                     });
    }
  } catch (const std::exception& e) {
    pass.fatal(std::string("scrub repair failed: ") + e.what());
    slot.reset();
    pass.retire();
  }
}

void Scrubber::start(const std::string& store_dir, std::chrono::milliseconds pass_gap) {
  if (loop_.joinable()) return;
  stop_.store(false);
  loop_ = std::thread([this, store_dir, pass_gap] {
    while (!stop_.load()) {
      ScrubReport rep = run_pass(store_dir, std::nullopt);
      {
        std::lock_guard<std::mutex> lock(report_mu_);
        background_report_.accumulate(rep);
      }
      if (rep.completed) passes_completed_.fetch_add(1, std::memory_order_relaxed);
      const auto deadline = std::chrono::steady_clock::now() + pass_gap;
      while (!stop_.load() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

ScrubReport Scrubber::stop() {
  stop_.store(true);
  if (loop_.joinable()) loop_.join();
  stop_.store(false);
  std::lock_guard<std::mutex> lock(report_mu_);
  ScrubReport rep = background_report_;
  background_report_ = ScrubReport{};
  background_report_.ok = background_report_.completed = true;
  return rep;
}

ScrubReport Scrubber::background_report() const {
  std::lock_guard<std::mutex> lock(report_mu_);
  return background_report_;
}

}  // namespace stair
