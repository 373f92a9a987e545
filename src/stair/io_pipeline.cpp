#include "stair/io_pipeline.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>

#include <unistd.h>

#include "util/thread_pool.h"

namespace stair {

std::vector<std::size_t> parse_coverage_list(const std::string& text) {
  std::vector<std::size_t> values;
  std::size_t pos = 0;
  do {
    std::size_t next = text.find(',', pos);
    if (next == std::string::npos) next = text.size();
    const std::string token = text.substr(pos, next - pos);
    errno = 0;
    const unsigned long long v = std::strtoull(token.c_str(), nullptr, 10);
    if (token.empty() || token.find_first_not_of("0123456789") != std::string::npos ||
        errno == ERANGE)
      throw std::invalid_argument("coverage list '" + text + "': bad entry '" + token + "'");
    values.push_back(static_cast<std::size_t>(v));
    pos = next + 1;
  } while (pos <= text.size());
  return values;
}

std::uint64_t content_hash64(std::span<const std::uint8_t> bytes) {
  // 8 input bytes per multiply+rotate round; sectors are hashed on the hot
  // pipeline path, so this must keep pace with the region kernels.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ (bytes.size() * 0x100000001b3ULL);
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h ^= w;
    h *= 0xff51afd7ed558ccdULL;
    h = (h << 31) | (h >> 33);
  }
  std::uint64_t tail = 0;
  for (int k = 0; i < bytes.size(); ++i, k += 8) tail |= std::uint64_t{bytes[i]} << k;
  h ^= tail ^ 0xc4ceb9fe1a85ec53ULL;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 29);
}

// Stripes retire out of order; folding their already-computed hashes in
// index order stays deterministic and never rereads content bytes.
std::uint64_t combine_hashes(std::span<const std::uint64_t> hashes) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(hashes.size() * 8);
  for (std::uint64_t h : hashes)
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(h >> (8 * i)));
  return content_hash64(bytes);
}

// ---------------------------------------------------------------------------
// StripeStore
// ---------------------------------------------------------------------------

std::string StripeStore::device_path(const std::string& dir, std::size_t device) {
  char name[32];
  std::snprintf(name, sizeof name, "dev_%02zu.bin", device);
  return dir + "/" + name;
}

std::string StripeStore::manifest_path(const std::string& dir) {
  return dir + "/manifest.txt";
}

std::string StripeStore::journal_path(const std::string& dir) {
  return dir + "/manifest.log";
}

namespace {

void put_le64(std::uint8_t* at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) at[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t get_le64(const std::uint8_t* at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{at[i]} << (8 * i);
  return v;
}

}  // namespace

std::vector<std::uint8_t> StripeStore::journal_record(std::size_t stripe) const {
  // [stripe][n * r sector checksums][data_checksum][hash of the preceding words]
  const std::size_t sectors = cfg.n * cfg.r;
  std::vector<std::uint8_t> rec(journal_record_bytes());
  put_le64(rec.data(), stripe);
  for (std::size_t i = 0; i < sectors; ++i)
    put_le64(rec.data() + 8 * (1 + i), sector_checksums[stripe * sectors + i]);
  put_le64(rec.data() + 8 * (1 + sectors), data_checksum);
  put_le64(rec.data() + rec.size() - 8,
           content_hash64(std::span(rec.data(), rec.size() - 8)));
  return rec;
}

bool StripeStore::sector_ok(std::size_t stripe, std::size_t device, std::size_t row,
                            std::span<const std::uint8_t> bytes) const {
  return content_hash64(bytes) == sector_checksums[(stripe * cfg.n + device) * cfg.r + row];
}

StripeStore::ChunkVerdict StripeStore::verify_chunk(std::size_t stripe, std::size_t device,
                                                    const io::Result& result,
                                                    const std::uint8_t* staging,
                                                    std::span<std::uint8_t> bad,
                                                    StripeBuffer* into) const {
  ChunkVerdict verdict;
  if (result.error != 0 || result.bytes != padded_chunk_bytes()) {
    // The transfer itself failed (missing device, EIO, short chunk): nothing
    // in this chunk can be trusted — erase the whole column.
    verdict.missing = true;
    for (std::size_t i = 0; i < cfg.r; ++i) bad[i * cfg.n + device] = 1;
    return verdict;
  }
  // Sector by sector: only the sectors whose content lies (torn write, bit
  // rot) are erased, which is what turns a scribbled-on chunk into a
  // *sector* failure pattern instead of burning a device credit.
  for (std::size_t i = 0; i < cfg.r; ++i) {
    const std::span<const std::uint8_t> sector(staging + i * symbol_bytes, symbol_bytes);
    const bool ok = sector_ok(stripe, device, i, sector);
    bad[i * cfg.n + device] = ok ? 0 : 1;
    if (!ok)
      ++verdict.corrupt;
    else if (into)
      std::memcpy(into->symbol(i, device).data(), sector.data(), symbol_bytes);
  }
  return verdict;
}

std::size_t StripeStore::erasure_mask(std::span<const std::uint8_t> bad,
                                      std::vector<bool>& mask) {
  mask.assign(bad.begin(), bad.end());
  return static_cast<std::size_t>(std::count(mask.begin(), mask.end(), true));
}

void StripeStore::stage_chunk(const StripeView& view, std::size_t device,
                              std::uint8_t* staging, std::span<std::uint64_t> hashes) const {
  for (std::size_t i = 0; i < cfg.r; ++i) {
    const std::span<const std::uint8_t> symbol = view.stored[i * cfg.n + device];
    std::memcpy(staging + i * symbol_bytes, symbol.data(), symbol_bytes);
    if (!hashes.empty()) hashes[i] = content_hash64(symbol);
  }
  // Pad bytes are written as zeros: the padded row goes in one aligned write,
  // and the files stay identical whether or not O_DIRECT engaged.
  std::memset(staging + chunk_bytes(), 0, padded_chunk_bytes() - chunk_bytes());
}

std::uint64_t StripeStore::data_hash(std::size_t stripe, const StairLayout& layout) const {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(layout.data_ids().size());
  for (std::uint32_t id : layout.data_ids())
    hashes.push_back(
        sector_checksums[(stripe * cfg.n + layout.col_of(id)) * cfg.r + layout.row_of(id)]);
  return combine_hashes(hashes);
}

std::uint64_t StripeStore::fold_data_checksum(const StairLayout& layout) const {
  std::vector<std::uint64_t> hashes(stripes);
  for (std::size_t s = 0; s < stripes; ++s) hashes[s] = data_hash(s, layout);
  return combine_hashes(hashes);
}

void StripeStore::save(const std::string& dir) const {
  // Write-aside + rename: the snapshot must never be observable
  // half-written. The temp name is unique per call (concurrent savers each
  // rename a complete file; last rename wins atomically).
  static std::atomic<std::uint64_t> save_seq{0};
  const std::string path = manifest_path(dir);
  const std::string tmp =
      path + ".tmp" + std::to_string(save_seq.fetch_add(1, std::memory_order_relaxed)) +
      "." + std::to_string(static_cast<unsigned long>(::getpid()));
  std::ofstream out(tmp, std::ios::trunc);
  if (!out) throw std::runtime_error("StripeStore: cannot write " + tmp);
  out << "stair_store 1\n"
      << "n " << cfg.n << "\nr " << cfg.r << "\nm " << cfg.m << "\ne ";
  for (std::size_t i = 0; i < cfg.e.size(); ++i) out << (i ? "," : "") << cfg.e[i];
  if (cfg.e.empty()) out << "-";
  out << "\nw " << cfg.w << "\nsymbol " << symbol_bytes << "\nblock " << block_bytes
      << "\nfile_size " << file_size << "\nstripes " << stripes << "\ndata_checksum "
      << data_checksum << "\n";
  // One line per (stripe, device) chunk: its r sector checksums in row order.
  for (std::size_t s = 0; s < stripes; ++s)
    for (std::size_t j = 0; j < cfg.n; ++j) {
      out << "chunk " << s << " " << j;
      for (std::size_t i = 0; i < cfg.r; ++i)
        out << " " << sector_checksums[(s * cfg.n + j) * cfg.r + i];
      out << "\n";
    }
  out.flush();
  out.close();
  if (!out) {
    std::remove(tmp.c_str());
    throw std::runtime_error("StripeStore: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("StripeStore: cannot publish " + path);
  }
}

namespace {

[[noreturn]] void manifest_fail(const std::string& what) {
  throw std::runtime_error("StripeStore: manifest " + what);
}

/// Checked extraction: a truncated or garbled manifest must fail the parse,
/// not hand back a zero that happens to pass a later range check.
template <typename T>
T manifest_read(std::istream& in, const char* what) {
  T value;
  if (!(in >> value)) manifest_fail(std::string("truncated or garbled at ") + what);
  return value;
}

}  // namespace

StripeStore StripeStore::load(const std::string& dir) {
  // The journal is opened before the snapshot is read. Compaction publishes
  // a new snapshot and then renames an empty journal over the old one, so
  // a load racing it holds either the old journal (whose records replay to
  // no change on the new snapshot) or the new one, never a snapshot
  // missing the records of a journal it no longer sees.
  std::ifstream journal(journal_path(dir), std::ios::binary);
  std::ifstream in(manifest_path(dir));
  if (!in) manifest_fail("missing: " + manifest_path(dir));
  // Every value below is parse-checked as it is read, and the geometry is
  // overflow- and plausibility-checked *before* it sizes or indexes
  // sector_checksums: the unchecked (stripe * n + device) * r + row
  // arithmetic everywhere else relies on a loaded store being
  // self-consistent, so an adversarial manifest has to be stopped here.
  constexpr std::size_t kMaxSectors = std::size_t{1} << 32;  // 2^32 checksums = 32 GiB
  StripeStore store;
  std::size_t chunk_lines = 0;
  std::vector<bool> seen;
  std::string key;
  while (in >> key) {
    if (key == "stair_store") {
      if (manifest_read<int>(in, "version") != 1) manifest_fail("version unsupported");
    } else if (key == "n") {
      store.cfg.n = manifest_read<std::size_t>(in, "n");
    } else if (key == "r") {
      store.cfg.r = manifest_read<std::size_t>(in, "r");
    } else if (key == "m") {
      store.cfg.m = manifest_read<std::size_t>(in, "m");
    } else if (key == "e") {
      const auto v = manifest_read<std::string>(in, "e");
      try {
        store.cfg.e = v == "-" ? std::vector<std::size_t>{} : parse_coverage_list(v);
      } catch (const std::exception& e) {
        manifest_fail(std::string("e invalid: ") + e.what());
      }
    } else if (key == "w") {
      store.cfg.w = manifest_read<int>(in, "w");
    } else if (key == "symbol") {
      store.symbol_bytes = manifest_read<std::size_t>(in, "symbol");
    } else if (key == "block") {
      // Layout block (padding stride). Absent in pre-raw-IO manifests, whose
      // stores are unpadded: block_bytes keeps its default of 1.
      store.block_bytes = manifest_read<std::size_t>(in, "block");
      if (store.block_bytes == 0) manifest_fail("block size zero");
      if (store.block_bytes > (std::size_t{1} << 24)) manifest_fail("block size implausible");
    } else if (key == "file_size") {
      store.file_size = manifest_read<std::size_t>(in, "file_size");
    } else if (key == "stripes") {
      store.stripes = manifest_read<std::size_t>(in, "stripes");
    } else if (key == "data_checksum") {
      store.data_checksum = manifest_read<std::uint64_t>(in, "data_checksum");
    } else if (key == "chunk") {
      // Header keys precede chunk lines (we write the manifest), so the
      // geometry is known — and validated — here, before the first index.
      if (store.cfg.n == 0 || store.cfg.r == 0) manifest_fail("chunk line before geometry");
      if (store.sector_checksums.empty()) {
        try {
          store.cfg.validate();
        } catch (const std::exception& e) {
          manifest_fail(std::string("geometry invalid: ") + e.what());
        }
        if (store.cfg.n > kMaxSectors / store.cfg.r ||
            store.stripes > kMaxSectors / (store.cfg.n * store.cfg.r))
          manifest_fail("geometry implausible (stripes * n * r overflows)");
        store.sector_checksums.assign(store.stripes * store.cfg.n * store.cfg.r, 0);
        seen.assign(store.stripes * store.cfg.n, false);
      }
      const auto s = manifest_read<std::size_t>(in, "chunk stripe");
      const auto j = manifest_read<std::size_t>(in, "chunk device");
      if (s >= store.stripes || j >= store.cfg.n) manifest_fail("chunk line out of range");
      if (seen[s * store.cfg.n + j]) manifest_fail("duplicate chunk line");
      seen[s * store.cfg.n + j] = true;
      ++chunk_lines;
      for (std::size_t i = 0; i < store.cfg.r; ++i)
        store.sector_checksums[(s * store.cfg.n + j) * store.cfg.r + i] =
            manifest_read<std::uint64_t>(in, "sector checksum");
    } else {
      manifest_fail("has unknown key '" + key + "'");
    }
  }
  if (in.bad()) manifest_fail("read failed: " + manifest_path(dir));
  try {
    store.cfg.validate();
  } catch (const std::exception& e) {
    manifest_fail(std::string("geometry invalid: ") + e.what());
  }
  if (store.symbol_bytes == 0) manifest_fail("missing symbol size");
  // Ranged reads index the checksums of every stripe file_size reaches, so
  // file_size may not claim more data than `stripes` stripes hold.
  std::size_t capacity = 0;
  if (__builtin_mul_overflow(store.cfg.data_symbols_inside(), store.symbol_bytes, &capacity) ||
      __builtin_mul_overflow(capacity, store.stripes, &capacity) ||
      store.file_size > capacity)
    manifest_fail("file_size " + std::to_string(store.file_size) + " exceeds " +
                  std::to_string(store.stripes) + " stripes");
  if (chunk_lines != store.stripes * store.cfg.n)
    manifest_fail("truncated: " + std::to_string(chunk_lines) + " of " +
                  std::to_string(store.stripes * store.cfg.n) + " chunk lines");

  // Replay, last record wins. A short record is a torn append; a bad hash
  // or an out-of-range stripe is damage. Either way nothing after it can be
  // trusted to follow it in commit order, so replay stops there.
  const std::size_t sectors = store.cfg.n * store.cfg.r;
  std::vector<std::uint8_t> rec(store.journal_record_bytes());
  while (journal.read(reinterpret_cast<char*>(rec.data()),
                      static_cast<std::streamsize>(rec.size()))) {
    const std::uint64_t stripe = get_le64(rec.data());
    if (get_le64(rec.data() + rec.size() - 8) !=
            content_hash64(std::span(rec.data(), rec.size() - 8)) ||
        stripe >= store.stripes)
      break;
    for (std::size_t i = 0; i < sectors; ++i)
      store.sector_checksums[stripe * sectors + i] = get_le64(rec.data() + 8 * (1 + i));
    store.data_checksum = get_le64(rec.data() + 8 * (1 + sectors));
    store.journal_bytes += rec.size();
  }
  return store;
}

// ---------------------------------------------------------------------------
// IoPipeline
// ---------------------------------------------------------------------------

void StripeSlot::prepare(const StairCode& code, std::size_t symbol_bytes,
                         std::size_t padded_chunk, IoBufferPool& pool) {
  const StairConfig& cfg = code.config();
  if (!buf || buf->symbol_size() != symbol_bytes) buf.emplace(code, symbol_bytes);
  chunks.resize(cfg.n);
  for (auto& lease : chunks)
    if (!lease || lease->bytes < padded_chunk) lease = pool.acquire();
  results.assign(cfg.n, io::Result{});
  sector_bad.assign(cfg.r * cfg.n, 0);
}

/// Per-operation shared state. Lives on the encode_file/decode_file stack;
/// drain() guarantees no callback outlives it.
struct IoPipeline::Run {
  StripeStore* store = nullptr;  // encode commits each stripe's checksums into it
  int file_fd = -1;  // input (encode) / output (decode)
  std::vector<int> dev_fds;
  std::size_t symbol_bytes = 0;
  std::size_t stripe_data = 0;  // data bytes per stripe
  std::size_t padded_chunk = 0;  // on-disk chunk stride and transfer length
  bool use_fixed = false;        // chunk transfers take the *_fixed path
  bool files_registered = false; // dev fds registered with the engine

  std::mutex mu;
  std::condition_variable cv;
  std::size_t in_flight = 0;  // stripes currently owning a slot; guarded by mu
  std::string error;          // first fatal failure; guarded by mu

  std::atomic<std::size_t> degraded{0}, failed{0}, missing{0}, corrupt{0};
  std::atomic<std::uint64_t> bytes_read{0}, bytes_written{0};

  bool has_fatal() {
    std::lock_guard<std::mutex> lock(mu);
    return !error.empty();
  }
};

IoPipeline::IoPipeline(Codec& codec) : IoPipeline(codec, Options{}) {}

IoPipeline::IoPipeline(Codec& codec, Options options)
    : codec_(codec), options_(options) {
  if (options_.queue_depth == 0) options_.queue_depth = 1;
  if (options_.engine) {
    engine_ = options_.engine;
  } else {
    // kAuto defers to STAIR_IO_BACKEND; an explicit option wins over the env.
    const io::Backend requested = options_.backend == io::Backend::kAuto
                                      ? io::backend_from_env()
                                      : options_.backend;
    owned_engine_ = io::Engine::create(requested, options_.io);
    engine_ = owned_engine_.get();
  }
}

IoPipeline::~IoPipeline() {
  // The staging pool outlives every run but not the engine registration:
  // unpin before the pool (and, for owned engines, the ring) goes away.
  if (fixed_active_) engine_->unregister_buffers();
}

void IoPipeline::ensure_buffers(std::size_t bytes, std::size_t alignment,
                                std::size_t capacity) {
  const std::size_t target = (bytes + alignment - 1) / alignment * alignment;
  if (!buffers_ || buffers_->buffer_bytes() != target ||
      buffers_->alignment() != alignment) {
    if (fixed_active_) {
      engine_->unregister_buffers();
      fixed_active_ = false;
    }
    // Old leases (held by warm slots) keep the old pool's backing store
    // alive until StripeSlot::prepare swaps them for right-sized ones.
    buffers_ = std::make_unique<IoBufferPool>(bytes, alignment, capacity);
  }
  if (options_.fixed_buffers && !fixed_active_) {
    const auto regions = buffers_->regions();
    // ENOTSUP (thread backend) or EBUSY/ENOMEM just mean the plain path:
    // the buffers stay aligned and valid either way.
    fixed_active_ =
        engine_->register_buffers({regions.data(), regions.size()}) == 0;
  }
}

IoPipeline::SlotLease IoPipeline::acquire_slot(Run& run) {
  {
    std::unique_lock<std::mutex> lock(run.mu);
    run.cv.wait(lock, [&] { return run.in_flight < options_.queue_depth; });
    ++run.in_flight;
  }
  return slots_.acquire();
}

void IoPipeline::retire_slot(Run& run) {
  // Notify under the lock: once in_flight hits 0 a racing drain() returns
  // and the stack-allocated Run (and its cv) is destroyed.
  std::lock_guard<std::mutex> lock(run.mu);
  --run.in_flight;
  run.cv.notify_all();
}

void IoPipeline::fatal(Run& run, std::string message) {
  std::lock_guard<std::mutex> lock(run.mu);
  if (run.error.empty()) run.error = std::move(message);
}

void IoPipeline::drain(Run& run) {
  std::unique_lock<std::mutex> lock(run.mu);
  run.cv.wait(lock, [&] { return run.in_flight == 0; });
}

namespace {

std::string errno_text(int err) {
  return err ? std::string(std::strerror(err)) : std::string("short transfer");
}

}  // namespace

IoPipeline::Stats IoPipeline::encode_file(const std::string& input_path,
                                          const std::string& store_dir) {
  Stats st;
  const StairCode& code = codec_.code();
  const StairConfig& cfg = code.config();

  std::error_code ec;
  std::filesystem::create_directories(store_dir, ec);

  const int in_fd = engine_->open_read(input_path);
  if (in_fd < 0) {
    st.error = "cannot open input " + input_path;
    return st;
  }
  const std::uint64_t file_size = engine_->file_size(in_fd);

  Run run;
  run.symbol_bytes = options_.symbol_bytes;
  run.stripe_data = code.data_symbol_count() * run.symbol_bytes;
  const std::size_t stripes =
      file_size ? static_cast<std::size_t>((file_size + run.stripe_data - 1) / run.stripe_data)
                : 0;

  // Raw-device mode decides the layout, not just the open flags: chunk rows
  // are padded to the block so every transfer is aligned, and the geometry
  // goes in the manifest. The layout is chosen by the *request*, never by
  // whether O_DIRECT actually engaged, so a store encoded on tmpfs (where
  // direct falls back to buffered) is byte-identical to one from a real fs.
  const std::size_t block =
      options_.direct && options_.block_bytes > 1 ? options_.block_bytes : 1;
  const io::OpenMode dev_mode =
      block > 1 ? io::OpenMode::kDirect : io::OpenMode::kBuffered;

  StripeStore store;
  store.cfg = cfg;
  store.symbol_bytes = run.symbol_bytes;
  store.block_bytes = block;
  store.file_size = static_cast<std::size_t>(file_size);
  store.stripes = stripes;
  store.sector_checksums.assign(stripes * cfg.n * cfg.r, 0);
  run.store = &store;
  run.file_fd = in_fd;
  run.padded_chunk = store.padded_chunk_bytes();
  ensure_buffers(run.padded_chunk, std::max<std::size_t>(block, 64),
                 options_.queue_depth * cfg.n);
  run.use_fixed = fixed_active_;

  run.dev_fds.assign(cfg.n, -1);
  for (std::size_t j = 0; j < cfg.n; ++j) {
    run.dev_fds[j] = engine_->open_write(StripeStore::device_path(store_dir, j), dev_mode);
    if (run.dev_fds[j] < 0)
      fatal(run, "cannot create " + StripeStore::device_path(store_dir, j));
  }
  // Long-lived chunk fds: register so uring submissions skip the per-IO fd
  // lookup/refcount (IOSQE_FIXED_FILE). Optional like everything else here.
  if (options_.fixed_buffers && !run.has_fatal())
    run.files_registered = engine_->register_files(run.dev_fds) == 0;

  if (!run.has_fatal()) {
    for (std::size_t s = 0; s < stripes; ++s) {
      if (run.has_fatal()) break;
      SlotLease slot = acquire_slot(run);
      slot->prepare(code, run.symbol_bytes, run.padded_chunk, *buffers_);
      slot->data.resize(run.stripe_data);
      const std::size_t offset = s * run.stripe_data;
      const std::size_t len =
          std::min<std::size_t>(run.stripe_data, static_cast<std::size_t>(file_size) - offset);
      std::fill(slot->data.begin() + static_cast<std::ptrdiff_t>(len), slot->data.end(), 0);
      StripeSlot* raw = slot.get();
      // The continuation (1+ MB set_data + submit) is bounced onto the codec
      // pool: IO completion threads — the single uring reaper in particular —
      // must stay free to complete transfers, not process stripes.
      engine_->read(run.file_fd, offset, std::span(raw->data.data(), len),
                    [this, &run, slot = std::move(slot), s, len](const io::Result& r) mutable {
                      codec_.pool().submit([this, &run, slot = std::move(slot), s, len, r]() mutable {
                        encode_on_input_read(run, std::move(slot), s, len, r);
                      });
                    });
    }
  }
  drain(run);
  engine_->flush();
  if (run.files_registered) engine_->unregister_files();
  engine_->close(in_fd);
  for (int fd : run.dev_fds) engine_->close(fd);

  st.stripes = stripes;
  st.bytes_read = run.bytes_read.load();
  st.bytes_written = run.bytes_written.load();
  {
    std::lock_guard<std::mutex> lock(run.mu);
    st.error = run.error;
  }
  if (st.error.empty()) {
    store.data_checksum = store.fold_data_checksum(code.layout());
    try {
      // A journal left by an earlier store in this directory describes
      // chunks that no longer exist: drop it before the fresh snapshot is
      // published, or the next load would replay it over that snapshot.
      std::filesystem::remove(StripeStore::journal_path(store_dir));
      store.save(store_dir);
      st.ok = true;
    } catch (const std::exception& e) {
      st.error = e.what();
    }
  }
  return st;
}

void IoPipeline::encode_on_input_read(Run& run, SlotLease slot, std::size_t stripe,
                                      std::size_t data_len, const io::Result& r) {
  run.bytes_read.fetch_add(r.bytes, std::memory_order_relaxed);
  if (r.error || r.bytes < data_len) {
    fatal(run, "input read failed at stripe " + std::to_string(stripe) + ": " +
                   errno_text(r.error));
    slot.reset();
    retire_slot(run);
    return;
  }
  try {
    slot->buf->set_data(slot->data);
    StripeSlot* raw = slot.get();
    codec_.submit_encode(raw->buf->view(), options_.method,
                         [this, &run, slot = std::move(slot), stripe](bool ok) mutable {
                           encode_on_encoded(run, std::move(slot), stripe, ok);
                         });
  } catch (const std::exception& e) {
    fatal(run, std::string("submit_encode failed: ") + e.what());
    retire_slot(run);
  }
}

void IoPipeline::encode_on_encoded(Run& run, SlotLease slot, std::size_t stripe, bool ok) {
  if (!ok) {
    fatal(run, "encode job failed at stripe " + std::to_string(stripe));
    slot.reset();
    retire_slot(run);
    return;
  }
  try {
    const StairConfig& cfg = codec_.code().config();
    StripeSlot& sl = *slot;
    // Stage each device's chunk and record its sector checksums; the
    // manifest rows are disjoint per stripe.
    for (std::size_t j = 0; j < cfg.n; ++j)
      run.store->stage_chunk(sl.buf->view(), j, sl.chunks[j]->data,
                             run.store->stripe_checksums(stripe).subspan(j * cfg.r, cfg.r));
    sl.pending.store(cfg.n, std::memory_order_relaxed);
    for (std::size_t j = 0; j < cfg.n; ++j) {
      StripeSlot* raw = slot.get();
      const IoBuffer& chunk = *raw->chunks[j];
      const std::span<const std::uint8_t> out(chunk.data, run.padded_chunk);
      auto done = [this, &run, slot](const io::Result& r) mutable {
        run.bytes_written.fetch_add(r.bytes, std::memory_order_relaxed);
        if (r.error || r.bytes < run.padded_chunk)
          fatal(run, "device write failed: " + errno_text(r.error));
        if (slot->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          slot.reset();
          retire_slot(run);
        }
      };
      if (run.use_fixed)
        engine_->write_fixed(run.dev_fds[j], stripe * run.padded_chunk, out,
                             chunk.index, std::move(done));
      else
        engine_->write(run.dev_fds[j], stripe * run.padded_chunk, out, std::move(done));
    }
  } catch (const std::exception& e) {
    fatal(run, std::string("encode completion failed: ") + e.what());
    retire_slot(run);
  }
}

IoPipeline::Stats IoPipeline::decode_file(const std::string& store_dir,
                                          const std::string& output_path) {
  Stats st;
  StripeStore store;
  try {
    store = StripeStore::load(store_dir);
  } catch (const std::exception& e) {
    // A bad manifest is a counted, clean failure — the store's recovery
    // point is gone, which callers distinguish from a recoverable stripe.
    st.manifest_errors = 1;
    st.error = e.what();
    return st;
  }
  const StairCode& code = codec_.code();
  if (!(store.cfg == code.config())) {
    st.error = "store config " + store.cfg.to_string() + " does not match codec config " +
               code.config().to_string();
    return st;
  }

  Run run;
  run.store = &store;
  run.symbol_bytes = store.symbol_bytes;
  run.stripe_data = code.data_symbol_count() * store.symbol_bytes;
  run.padded_chunk = store.padded_chunk_bytes();
  ensure_buffers(run.padded_chunk, std::max<std::size_t>(store.block_bytes, 64),
                 options_.queue_depth * store.cfg.n);
  run.use_fixed = fixed_active_;

  // O_DIRECT needs the padded layout; a legacy (block 1) store is read
  // buffered even when direct mode is requested, since its rows and offsets
  // have no alignment to offer.
  const io::OpenMode dev_mode = options_.direct && store.block_bytes > 1
                                    ? io::OpenMode::kDirect
                                    : io::OpenMode::kBuffered;
  run.dev_fds.assign(store.cfg.n, -1);
  bool all_devs_open = true;
  for (std::size_t j = 0; j < store.cfg.n; ++j) {
    run.dev_fds[j] = engine_->open_read(StripeStore::device_path(store_dir, j), dev_mode);
    all_devs_open = all_devs_open && run.dev_fds[j] >= 0;
  }
  // Fixed files only when every device opened: sparse registrations (-1
  // entries) predate some kernels this runs on, and a degraded decode is
  // not the case to optimize anyway.
  if (options_.fixed_buffers && all_devs_open)
    run.files_registered = engine_->register_files(run.dev_fds) == 0;

  run.file_fd = engine_->open_write(output_path);
  if (run.file_fd < 0) {
    if (run.files_registered) engine_->unregister_files();
    for (int fd : run.dev_fds) engine_->close(fd);
    st.error = "cannot create output " + output_path;
    return st;
  }

  for (std::size_t s = 0; s < store.stripes; ++s) {
    if (run.has_fatal()) break;
    SlotLease slot = acquire_slot(run);
    slot->prepare(code, run.symbol_bytes, run.padded_chunk, *buffers_);
    slot->data.resize(run.stripe_data);
    slot->pending.store(store.cfg.n, std::memory_order_relaxed);
    StripeSlot* raw = slot.get();
    for (std::size_t j = 0; j < store.cfg.n; ++j) {
      if (run.dev_fds[j] < 0) {
        decode_on_chunk_read(run, slot, s, j, io::Result{ENOENT, 0});
        continue;
      }
      const IoBuffer& chunk = *raw->chunks[j];
      const std::span<std::uint8_t> in(chunk.data, run.padded_chunk);
      auto done = [this, &run, slot, s, j](const io::Result& r) mutable {
        decode_on_chunk_read(run, std::move(slot), s, j, r);
      };
      if (run.use_fixed)
        engine_->read_fixed(run.dev_fds[j], s * run.padded_chunk, in, chunk.index,
                            std::move(done));
      else
        engine_->read(run.dev_fds[j], s * run.padded_chunk, in, std::move(done));
    }
    slot.reset();  // stages own their copies now
  }
  drain(run);
  engine_->flush();
  if (run.files_registered) engine_->unregister_files();
  // Failed trailing stripes must not shorten the file silently; recoverable
  // content has been written at its exact offsets either way.
  if (engine_->truncate(run.file_fd, store.file_size) != 0)
    fatal(run, "truncate on output failed");
  engine_->close(run.file_fd);
  for (int fd : run.dev_fds) engine_->close(fd);

  st.stripes = store.stripes;
  st.degraded_stripes = run.degraded.load();
  st.failed_stripes = run.failed.load();
  st.chunks_missing = run.missing.load();
  st.sectors_corrupt = run.corrupt.load();
  st.bytes_read = run.bytes_read.load();
  st.bytes_written = run.bytes_written.load();
  {
    std::lock_guard<std::mutex> lock(run.mu);
    st.error = run.error;
  }
  if (st.error.empty()) {
    if (st.failed_stripes) {
      st.error = std::to_string(st.failed_stripes) + " stripe(s) unrecoverable";
    } else if (store.fold_data_checksum(code.layout()) != store.data_checksum) {
      st.error = "reassembled data does not match the manifest checksum";
    } else {
      st.ok = true;
    }
  }
  return st;
}

namespace {

/// Per-stripe completion gate for the synchronous ranged-read path: waits
/// for exactly this stripe's transfers, unlike Engine::flush() which would
/// also wait out unrelated in-flight IO (a background scrub pass sharing
/// the engine, rebuild traffic) and so couple foreground latency to it.
struct CompletionLatch {
  explicit CompletionLatch(std::size_t n) : remaining(n) {}
  void done() {
    std::lock_guard<std::mutex> lock(mu);
    if (--remaining == 0) cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return remaining == 0; });
  }
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining;
};

}  // namespace

IoPipeline::Stats IoPipeline::read_range(const std::string& store_dir, std::uint64_t offset,
                                         std::span<std::uint8_t> out) {
  Stats st;
  StripeStore store;
  try {
    store = StripeStore::load(store_dir);
  } catch (const std::exception& e) {
    st.manifest_errors = 1;
    st.error = e.what();
    return st;
  }
  return read_range(store, store_dir, offset, out);
}

IoPipeline::Stats IoPipeline::read_range(const StripeStore& store,
                                         const std::string& store_dir, std::uint64_t offset,
                                         std::span<std::uint8_t> out) {
  Stats st;
  const StairCode& code = codec_.code();
  if (!(store.cfg == code.config())) {
    st.error = "store config " + store.cfg.to_string() + " does not match codec config " +
               code.config().to_string();
    return st;
  }
  if (out.empty()) {
    st.ok = true;
    return st;
  }
  if (offset > store.file_size || out.size() > store.file_size - offset) {
    st.error = "range exceeds file size " + std::to_string(store.file_size);
    return st;
  }

  const std::size_t symbol = store.symbol_bytes;
  const std::size_t padded = store.padded_chunk_bytes();
  const std::size_t block = store.block_bytes;
  // Aligned mode: O_DIRECT chunk fds accept only block-aligned transfers,
  // so sector reads widen to the enclosing block window inside the padded
  // chunk (read into an aligned lease, copy out the wanted span). A legacy
  // unpadded store, or direct mode off, keeps exact positioned reads.
  const bool aligned = options_.direct && block > 1;
  const io::OpenMode dev_mode = aligned ? io::OpenMode::kDirect : io::OpenMode::kBuffered;
  ensure_buffers(padded, std::max<std::size_t>(block, 64),
                 options_.queue_depth * store.cfg.n);
  const std::size_t stripe_data = code.data_symbol_count() * symbol;
  const StairLayout& layout = code.layout();
  // (row, device) of data symbol d, in data order — the same order
  // set_data/get_data use, so data index d of stripe k covers original-file
  // bytes [k * stripe_data + d * symbol, ... + symbol).
  auto pos = [&](std::size_t d) {
    const std::uint32_t id = layout.data_ids()[d];
    return std::pair{layout.row_of(id), layout.col_of(id)};
  };

  // Devices are opened lazily: a short range touches few of them.
  std::vector<int> fds(store.cfg.n, -2);
  auto dev_fd = [&](std::size_t j) {
    if (fds[j] == -2)
      fds[j] = engine_->open_read(StripeStore::device_path(store_dir, j), dev_mode);
    return fds[j];
  };

  std::vector<std::uint8_t> sectors;  // wanted-sector staging, happy path
  const std::size_t first_stripe = offset / stripe_data;
  const std::size_t last_stripe = (offset + out.size() - 1) / stripe_data;
  for (std::size_t s = first_stripe; s <= last_stripe && st.error.empty(); ++s) {
    ++st.stripes;
    const std::uint64_t base = std::uint64_t{s} * stripe_data;
    const std::size_t lo = static_cast<std::size_t>(std::max(offset, base) - base);
    const std::size_t hi = static_cast<std::size_t>(
        std::min<std::uint64_t>(offset + out.size(), base + stripe_data) - base);
    const std::size_t d_lo = lo / symbol;
    const std::size_t d_hi = (hi - 1) / symbol;
    const std::size_t count = d_hi - d_lo + 1;

    // Happy path: positioned reads of exactly the sectors the range needs
    // (widened to block windows in aligned mode), each verified against the
    // manifest before a byte is copied out.
    sectors.assign(count * symbol, 0);
    std::vector<io::Result> results(count);
    std::vector<IoBufferPool::Lease> window_leases;
    std::vector<std::pair<std::size_t, std::size_t>> windows;  // {start, len} per k
    if (aligned) {
      window_leases.resize(count);
      windows.resize(count);
    }
    {
      CompletionLatch latch(count);
      for (std::size_t k = 0; k < count; ++k) {
        const auto [row, dev] = pos(d_lo + k);
        const int fd = dev_fd(dev);
        if (fd < 0) {
          results[k] = io::Result{ENOENT, 0};
          latch.done();
          continue;
        }
        const std::size_t sec_off = row * symbol;
        auto done = [&results, &latch, k](const io::Result& r) {
          results[k] = r;
          latch.done();
        };
        if (aligned) {
          const std::size_t wlo = sec_off / block * block;
          const std::size_t whi =
              std::min(padded, (sec_off + symbol + block - 1) / block * block);
          windows[k] = {wlo, whi - wlo};
          window_leases[k] = buffers_->acquire();
          engine_->read(fd, std::uint64_t{s} * padded + wlo,
                        std::span(window_leases[k]->data, whi - wlo), std::move(done));
        } else {
          engine_->read(fd, std::uint64_t{s} * padded + sec_off,
                        std::span(sectors.data() + k * symbol, symbol), std::move(done));
        }
      }
      latch.wait();
    }
    bool clean = true;
    for (std::size_t k = 0; k < count; ++k) {
      const auto [row, dev] = pos(d_lo + k);
      st.bytes_read += results[k].bytes;
      const std::size_t expected = aligned ? windows[k].second : symbol;
      const bool got = results[k].ok() && results[k].bytes == expected;
      if (got && aligned)
        std::memcpy(sectors.data() + k * symbol,
                    window_leases[k]->data + (row * symbol - windows[k].first), symbol);
      clean = clean && got &&
              store.sector_ok(s, dev, row, std::span(sectors.data() + k * symbol, symbol));
    }
    const std::size_t out_at = static_cast<std::size_t>(base + lo - offset);
    if (clean) {
      std::memcpy(out.data() + out_at, sectors.data() + (lo - d_lo * symbol), hi - lo);
      continue;
    }

    // Degraded: something the range needs is missing or lying. Read the
    // whole stripe, build the true erasure mask from per-sector verifies,
    // and decode only the wanted symbols — the backward slice that
    // build_degraded_read_schedule cuts from the full decode plan.
    ++st.degraded_stripes;
    std::vector<IoBufferPool::Lease> chunk_leases(store.cfg.n);
    std::vector<io::Result> chunk_results(store.cfg.n);
    {
      CompletionLatch latch(store.cfg.n);
      for (std::size_t j = 0; j < store.cfg.n; ++j) {
        const int fd = dev_fd(j);
        if (fd < 0) {
          chunk_results[j] = io::Result{ENOENT, 0};
          latch.done();
          continue;
        }
        chunk_leases[j] = buffers_->acquire();
        engine_->read(fd, std::uint64_t{s} * padded,
                      std::span(chunk_leases[j]->data, padded),
                      [&chunk_results, &latch, j](const io::Result& r) {
                        chunk_results[j] = r;
                        latch.done();
                      });
      }
      latch.wait();
    }
    try {
      StripeBuffer buf(code, symbol);
      std::vector<std::uint8_t> bad(store.cfg.r * store.cfg.n);
      for (std::size_t j = 0; j < store.cfg.n; ++j) {
        st.bytes_read += chunk_results[j].bytes;
        const auto verdict = store.verify_chunk(
            s, j, chunk_results[j], chunk_leases[j] ? chunk_leases[j]->data : nullptr, bad, &buf);
        st.chunks_missing += verdict.missing;
        st.sectors_corrupt += verdict.corrupt;
      }
      std::vector<bool> mask;
      StripeStore::erasure_mask(bad, mask);
      std::vector<std::size_t> wanted;
      wanted.reserve(count);
      for (std::size_t k = 0; k < count; ++k) {
        const auto [row, dev] = pos(d_lo + k);
        wanted.push_back(layout.stored_index(row, dev));
      }
      auto slice = code.build_degraded_read_schedule(mask, wanted);
      if (!slice) {
        ++st.failed_stripes;
        st.error = "stripe " + std::to_string(s) + " unrecoverable for ranged read";
        break;
      }
      code.execute(*slice, buf.view());
      // The end-to-end guard: every wanted symbol — read or reconstructed —
      // must match its manifest checksum before its bytes are served.
      for (std::size_t k = 0; k < count && st.error.empty(); ++k) {
        const auto [row, dev] = pos(d_lo + k);
        if (!store.sector_ok(s, dev, row, buf.symbol(row, dev))) {
          ++st.failed_stripes;
          st.error = "stripe " + std::to_string(s) + " reconstruction failed verification";
        }
      }
      if (!st.error.empty()) break;
      for (std::size_t k = 0; k < count; ++k) {
        const auto [row, dev] = pos(d_lo + k);
        const std::size_t sym_lo = std::max(lo, (d_lo + k) * symbol);
        const std::size_t sym_hi = std::min(hi, (d_lo + k + 1) * symbol);
        std::memcpy(out.data() + (base + sym_lo - offset),
                    buf.symbol(row, dev).data() + (sym_lo - (d_lo + k) * symbol),
                    sym_hi - sym_lo);
      }
    } catch (const std::exception& e) {
      st.error = std::string("ranged degraded read failed: ") + e.what();
    }
  }
  for (int fd : fds)
    if (fd >= 0) engine_->close(fd);
  st.ok = st.error.empty();
  return st;
}

void IoPipeline::decode_on_chunk_read(Run& run, SlotLease slot, std::size_t stripe,
                                      std::size_t device, const io::Result& r) {
  run.bytes_read.fetch_add(r.bytes, std::memory_order_relaxed);
  slot->results[device] = r;  // devices are disjoint; countdown publishes
  if (slot->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Assembly (per-sector verify + stripe scatter) is real work: bounce it
    // onto the codec pool so IO completion threads keep completing IO and
    // clean-stripe decode parallelizes across the pool, not the reaper.
    codec_.pool().submit([this, &run, slot = std::move(slot), stripe]() mutable {
      decode_assemble(run, std::move(slot), stripe);
    });
  }
}

void IoPipeline::decode_assemble(Run& run, SlotLease slot, std::size_t stripe) {
  try {
    StripeSlot& sl = *slot;
    for (std::size_t j = 0; j < run.store->cfg.n; ++j) {
      const auto verdict = run.store->verify_chunk(stripe, j, sl.results[j],
                                                   sl.chunks[j]->data, sl.sector_bad, &*sl.buf);
      run.missing.fetch_add(verdict.missing, std::memory_order_relaxed);
      run.corrupt.fetch_add(verdict.corrupt, std::memory_order_relaxed);
    }
    if (StripeStore::erasure_mask(sl.sector_bad, sl.mask) == 0) {
      decode_write_data(run, std::move(slot), stripe);
      return;
    }
    run.degraded.fetch_add(1, std::memory_order_relaxed);
    StripeSlot* raw = slot.get();
    // The degraded-read path: the mask resolves through the session's plan
    // cache, so every stripe of a failure epoch replays one compiled plan.
    codec_.submit_decode(raw->buf->view(), sl.mask,
                         [this, &run, slot = std::move(slot), stripe](bool ok) mutable {
                           if (!ok) {
                             // Outside the code's coverage: a failed stripe,
                             // counted, not thrown.
                             run.failed.fetch_add(1, std::memory_order_relaxed);
                             slot.reset();
                             retire_slot(run);
                             return;
                           }
                           decode_write_data(run, std::move(slot), stripe);
                         });
  } catch (const std::exception& e) {
    fatal(run, std::string("decode assemble failed: ") + e.what());
    retire_slot(run);
  }
}

void IoPipeline::decode_write_data(Run& run, SlotLease slot, std::size_t stripe) {
  try {
    const StairConfig& cfg = run.store->cfg;
    const StairLayout& layout = codec_.code().layout();
    StripeSlot& sl = *slot;
    // The end-to-end guard: a reconstructed data sector must match its
    // manifest checksum (read sectors already did) before it is written.
    for (std::uint32_t id : layout.data_ids()) {
      const std::size_t row = layout.row_of(id), dev = layout.col_of(id);
      if (sl.mask[row * cfg.n + dev] &&
          !run.store->sector_ok(stripe, dev, row, sl.buf->symbol(row, dev))) {
        run.failed.fetch_add(1, std::memory_order_relaxed);
        slot.reset();
        retire_slot(run);
        return;
      }
    }
    sl.buf->get_data(sl.data);
    const std::size_t offset = stripe * run.stripe_data;
    const std::size_t len = std::min(run.stripe_data, run.store->file_size - offset);
    StripeSlot* raw = slot.get();
    engine_->write(run.file_fd, offset, std::span(raw->data.data(), len),
                   [this, &run, slot = std::move(slot), len](const io::Result& r) mutable {
                     run.bytes_written.fetch_add(r.bytes, std::memory_order_relaxed);
                     if (r.error || r.bytes < len)
                       fatal(run, "output write failed: " + errno_text(r.error));
                     slot.reset();
                     retire_slot(run);
                   });
  } catch (const std::exception& e) {
    fatal(run, std::string("decode write failed: ") + e.what());
    retire_slot(run);
  }
}

}  // namespace stair
