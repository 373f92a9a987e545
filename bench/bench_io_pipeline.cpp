// IO pipeline throughput: pipelined file encode/decode vs the same staged
// pipeline running against memory, swept over queue depth (stripes in
// flight).
//
// Three tiers per op:
//   codec   — pure in-memory Codec batch: region compute only, no staging,
//             no checksums, no IO. The physics ceiling (bench_batch's cells).
//   mem     — the full pipeline (staging copies, per-sector checksums,
//             manifest) against an in-memory "filesystem" engine: every
//             stage except real file IO.
//   file    — the full pipeline against real files through the async engine.
//
// The acceptance shape this bench guards: at queue depth >= 4, file-backed
// encode and decode reach >= 0.8x the mem tier — real IO overlaps compute
// instead of serializing in front of it (`vs_mem` in the JSON). `vs_codec`
// reports what the integrity+staging machinery itself costs, which depth
// cannot hide on a saturated machine — that is the pipeline's price, not
// the IO engine's.
//
// A `hash` cell times the sector checksum on its own: content_hash64 (the
// 8-lane version-2 hash) against content_hash64_v1 (the serial chain that
// version-1 stores keep), 16 KiB sectors, the two interleaved trial by trial
// in this process and the best of each kept, so the ratio holds on a noisy
// host. CI asserts v2 >= 3x v1.
//
// Every cell lands in BENCH_io_pipeline.json; STAIR_BENCH_SMOKE=1 is the CI
// configuration (smaller file, JSON to the repo root).
// STAIR_IO_BACKEND=threads|uring pins the IO engine (auto otherwise).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.h"
#include "gf/kernel.h"
#include "stair/io_pipeline.h"

using namespace stair;
using namespace stair::bench;

namespace fs = std::filesystem;

namespace {

/// In-memory "filesystem" engine: path-keyed byte buffers, transfers are
/// memcpys completing inline. The pipeline's stages all run; only real file
/// IO is absent — the baseline that isolates what disk adds.
class MemEngine : public io::Engine {
 public:
  io::Backend backend() const override { return io::Backend::kThreads; }

  // OpenMode is irrelevant in memory: direct requests just open "buffered".
  int open_read(const std::string& path,
                io::OpenMode = io::OpenMode::kBuffered) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (!files_.count(path)) return -1;
    handles_[next_fd_] = path;
    return next_fd_++;
  }

  int open_write(const std::string& path,
                 io::OpenMode = io::OpenMode::kBuffered) override {
    std::lock_guard<std::mutex> lock(mu_);
    files_[path].clear();
    handles_[next_fd_] = path;
    return next_fd_++;
  }

  void close(int fd) override {
    std::lock_guard<std::mutex> lock(mu_);
    handles_.erase(fd);
  }

  std::uint64_t file_size(int fd) const override {
    std::lock_guard<std::mutex> lock(mu_);
    auto h = handles_.find(fd);
    return h == handles_.end() ? 0 : files_.at(h->second).size();
  }

  // Both transfer memcpys stay under mu_: a concurrent write to the same
  // file may resize (reallocate) its vector out from under them.

  void read(int fd, std::uint64_t offset, std::span<std::uint8_t> buf,
            io::Callback cb) override {
    io::Result r{9 /*EBADF*/, 0};
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto h = handles_.find(fd);
      if (h != handles_.end()) {
        const std::vector<std::uint8_t>& f = files_[h->second];
        const std::size_t have =
            offset >= f.size() ? 0 : std::min<std::size_t>(buf.size(), f.size() - offset);
        std::memcpy(buf.data(), f.data() + offset, have);
        r = {0, have};
      }
    }
    cb(r);
  }

  void write(int fd, std::uint64_t offset, std::span<const std::uint8_t> buf,
             io::Callback cb) override {
    io::Result r{9, 0};
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto h = handles_.find(fd);
      if (h != handles_.end()) {
        std::vector<std::uint8_t>& f = files_[h->second];
        if (f.size() < offset + buf.size()) f.resize(offset + buf.size());
        std::memcpy(f.data() + offset, buf.data(), buf.size());
        r = {0, buf.size()};
      }
    }
    cb(r);
  }

  void flush() override {}

  int truncate(int fd, std::uint64_t size) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto h = handles_.find(fd);
    if (h == handles_.end()) return 9;
    files_[h->second].resize(size);
    return 0;
  }

  void put(const std::string& path, std::vector<std::uint8_t> bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    files_[path] = std::move(bytes);
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<std::uint8_t>> files_;
  std::map<int, std::string> handles_;
  int next_fd_ = 1 << 20;  // synthetic handles, disjoint from real fds
};

struct HashCell {
  static constexpr std::size_t kSector = 16 * 1024;
  static constexpr int kTrials = 21;
  double v2_gbps = 0, v1_gbps = 0;
};

/// Best-of-kTrials GB/s of each sector hash, one 16 KiB sector per call; the
/// two hashes alternate trial by trial so host drift hits both alike.
HashCell measure_hash() {
  constexpr std::size_t kSectors = 64;  // 1 MiB: stays in L2
  std::vector<std::uint8_t> bytes(HashCell::kSector * kSectors);
  Rng(11).fill(bytes);
  volatile std::uint64_t sink = 0;  // keeps the hashes from being elided
  auto trial = [&](std::uint64_t (*hash)(std::span<const std::uint8_t>)) {
    constexpr int kPasses = 32;
    std::uint64_t acc = 0;
    Stopwatch watch;
    for (int pass = 0; pass < kPasses; ++pass)
      for (std::size_t i = 0; i < kSectors; ++i)
        acc ^= hash(std::span(bytes).subspan(i * HashCell::kSector, HashCell::kSector));
    const double seconds = watch.elapsed_seconds();
    sink = acc;
    return static_cast<double>(bytes.size()) * kPasses / seconds / 1e9;
  };
  HashCell cell;
  for (int t = 0; t < HashCell::kTrials; ++t) {
    cell.v2_gbps = std::max(cell.v2_gbps, trial(content_hash64));
    cell.v1_gbps = std::max(cell.v1_gbps, trial(content_hash64_v1));
  }
  return cell;
}

struct Cell {
  std::string op;  // "encode" | "decode" | "decode_degraded"
  std::size_t queue_depth;
  double mbps;
  double vs_mem;    // ratio against the mem-engine pipeline (same op)
  double vs_codec;  // ratio against the pure in-memory Codec batch
};

}  // namespace

int main(int argc, char** argv) {
  const BenchEnv env = parse_env(argc, argv);
  const StairConfig cfg{.n = 8, .r = 16, .m = 2, .e = {1, 2}};
  const std::size_t symbol = env.smoke ? (16u * 1024) : (64u * 1024);
  const std::size_t stripes = env.smoke ? 12 : 32;

  const StairCode code(cfg);
  Codec codec(code);
  const std::size_t stripe_bytes = symbol * cfg.n * cfg.r;
  const std::size_t stripe_data = code.data_symbol_count() * symbol;
  const std::size_t file_bytes = stripes * stripe_data;

  const fs::path dir = fs::temp_directory_path() / "stair_bench_io_pipeline";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path input = dir / "input.bin";
  const fs::path store = dir / "store";
  const fs::path output = dir / "output.bin";
  std::vector<std::uint8_t> input_bytes(file_bytes);
  {
    Rng rng(7);
    rng.fill(input_bytes);
    std::ofstream out(input, std::ios::binary);
    out.write(reinterpret_cast<const char*>(input_bytes.data()),
              static_cast<std::streamsize>(input_bytes.size()));
  }

  const char* io_backend = io::backend_name(IoPipeline(codec).engine().backend());
  std::cout << "=== IO pipeline: file coding vs memory-backed pipeline vs pure codec ===\n"
            << cfg.to_string() << ", " << (stripe_bytes >> 20) << " MB stripes, "
            << stripes << "-stripe file (" << (file_bytes >> 20) << " MB), pool width "
            << env.pool_width() << ", IO backend " << io_backend
            << (env.smoke ? "  [smoke]" : "") << "\n\n";

  const HashCell hash = measure_hash();
  std::printf("sector hash (16 KiB):   content_hash64 %.2f GB/s, content_hash64_v1 %.2f GB/s "
              "(%.2fx)\n",
              hash.v2_gbps, hash.v1_gbps, hash.v2_gbps / hash.v1_gbps);

  // --- tier 1: pure in-memory Codec batch (no staging, checksums, or IO) ---
  const std::size_t mem_batch = 8;
  std::vector<StripeBuffer> mem_stripes;
  for (std::size_t i = 0; i < mem_batch; ++i)
    mem_stripes.push_back(make_encoded_stripe(code, symbol, 42 + i));
  std::vector<bool> mask(cfg.n * cfg.r, false);
  for (std::size_t i = 0; i < cfg.r; ++i) mask[i * cfg.n + 3] = true;

  const double codec_encode = measure_mbps(
      [&] {
        for (auto& s : mem_stripes) codec.submit_encode(s.view());
        codec.wait_all();
      },
      stripe_bytes * mem_batch);
  const double codec_decode = measure_mbps(
      [&] {
        for (auto& s : mem_stripes) codec.submit_decode(s.view(), mask);
        codec.wait_all();
      },
      stripe_bytes * mem_batch);

  // --- tier 2: full pipeline against the in-memory engine ------------------
  MemEngine mem_fs;
  mem_fs.put(input.string(), input_bytes);
  // The mem baseline stays buffered/unpadded regardless of STAIR_IO_DIRECT:
  // it is the fixed reference the file tiers are measured against.
  IoPipeline mem_pipeline(codec, {.queue_depth = 4, .symbol_bytes = symbol,
                                  .direct = false, .engine = &mem_fs});
  const double mem_encode = measure_mbps(
      [&] {
        const auto st = mem_pipeline.encode_file(input.string(), store.string());
        if (!st.ok) {
          std::fprintf(stderr, "mem encode failed: %s\n", st.error.c_str());
          std::exit(1);
        }
      },
      stripe_bytes * stripes);
  const double mem_decode = measure_mbps(
      [&] {
        const auto st = mem_pipeline.decode_file(store.string(), output.string());
        if (!st.ok) {
          std::fprintf(stderr, "mem decode failed: %s\n", st.error.c_str());
          std::exit(1);
        }
      },
      stripe_bytes * stripes);

  std::printf("pure codec batch:       encode %.0f MB/s, decode %.0f MB/s\n", codec_encode,
              codec_decode);
  std::printf("mem-backed pipeline:    encode %.0f MB/s, decode %.0f MB/s "
              "(staging+checksum cost: %.2fx / %.2fx)\n\n",
              mem_encode, mem_decode, mem_encode / codec_encode,
              mem_decode / codec_decode);

  // --- tier 3: real files, swept over queue depth --------------------------
  std::vector<Cell> cells;
  TablePrinter table("file-backed pipeline (MB/s over stripe bytes) vs queue depth");
  table.set_header({"depth", "encode", "vs mem", "decode", "vs mem", "degraded", "vs mem"});
  for (std::size_t depth : {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    IoPipeline pipeline(codec, {.queue_depth = depth, .symbol_bytes = symbol});
    const double enc = measure_mbps(
        [&] {
          const auto st = pipeline.encode_file(input.string(), store.string());
          if (!st.ok) {
            std::fprintf(stderr, "encode failed: %s\n", st.error.c_str());
            std::exit(1);
          }
        },
        stripe_bytes * stripes);
    const double dec = measure_mbps(
        [&] {
          const auto st = pipeline.decode_file(store.string(), output.string());
          if (!st.ok) {
            std::fprintf(stderr, "decode failed: %s\n", st.error.c_str());
            std::exit(1);
          }
        },
        stripe_bytes * stripes);
    fs::remove(StripeStore::device_path(store.string(), 3));
    const double deg = measure_mbps(
        [&] {
          const auto st = pipeline.decode_file(store.string(), output.string());
          if (!st.ok || st.degraded_stripes != stripes) {
            std::fprintf(stderr, "degraded decode failed: %s\n", st.error.c_str());
            std::exit(1);
          }
        },
        stripe_bytes * stripes);

    cells.push_back({"encode", depth, enc, enc / mem_encode, enc / codec_encode});
    cells.push_back({"decode", depth, dec, dec / mem_decode, dec / codec_decode});
    cells.push_back(
        {"decode_degraded", depth, deg, deg / mem_decode, deg / codec_decode});
    table.add_row({std::to_string(depth), format_sig(enc, 4), format_sig(enc / mem_encode, 3),
                   format_sig(dec, 4), format_sig(dec / mem_decode, 3), format_sig(deg, 4),
                   format_sig(deg / mem_decode, 3)});
  }
  table.print(std::cout);

  // --- tier 4: raw-device mode matrix at depth 4 ---------------------------
  // direct-vs-buffered x fixed-vs-unregistered, each pipeline owning a fresh
  // engine so its stats isolate the mode. On tmpfs O_DIRECT may engage or
  // fall back per kernel; direct_fallbacks in the JSON says which happened,
  // and the CI gate only fires when the direct path really ran.
  struct ModeCell {
    std::string mode, op;
    double mbps;
    io::Engine::Stats stats;
  };
  std::vector<ModeCell> mode_cells;
  const struct {
    const char* name;
    bool direct, fixed;
  } kModes[] = {{"buffered", false, false},
                {"buffered_fixed", false, true},
                {"direct", true, false},
                {"direct_fixed", true, true}};
  TablePrinter mtable("raw-device mode matrix (MB/s, depth 4)");
  mtable.set_header({"mode", "encode", "decode", "direct opens", "fallbacks", "fixed rate"});
  for (const auto& m : kModes) {
    IoPipeline pipeline(codec, {.queue_depth = 4, .symbol_bytes = symbol,
                                .direct = m.direct, .fixed_buffers = m.fixed});
    const double enc = measure_mbps(
        [&] {
          const auto st = pipeline.encode_file(input.string(), store.string());
          if (!st.ok) {
            std::fprintf(stderr, "%s encode failed: %s\n", m.name, st.error.c_str());
            std::exit(1);
          }
        },
        stripe_bytes * stripes);
    const double dec = measure_mbps(
        [&] {
          const auto st = pipeline.decode_file(store.string(), output.string());
          if (!st.ok) {
            std::fprintf(stderr, "%s decode failed: %s\n", m.name, st.error.c_str());
            std::exit(1);
          }
        },
        stripe_bytes * stripes);
    const io::Engine::Stats st = pipeline.engine().stats();
    mode_cells.push_back({m.name, "encode", enc, st});
    mode_cells.push_back({m.name, "decode", dec, st});
    const std::uint64_t fixed_ops = st.fixed_reads + st.fixed_writes;
    const double fixed_rate =
        static_cast<double>(fixed_ops) /
        static_cast<double>(std::max<std::uint64_t>(1, fixed_ops + st.fixed_fallbacks));
    mtable.add_row({m.name, format_sig(enc, 4), format_sig(dec, 4),
                    std::to_string(st.direct_opens), std::to_string(st.direct_fallbacks),
                    format_sig(fixed_rate, 3)});
  }
  std::cout << "\n";
  mtable.print(std::cout);

  const std::string path = json_output_path("BENCH_io_pipeline.json", env.smoke);
  {
    std::ofstream out(path);
    out << "{\n  \"bench\": \"io_pipeline\",\n"
        << "  \"backend\": \"" << gf::backend_name(gf::active_backend()) << "\",\n"
        << "  \"io_backend\": \"" << io_backend << "\",\n"
        << "  \"smoke\": " << (env.smoke ? "true" : "false") << ",\n"
        << "  \"hardware_threads\": " << env.hardware_threads << ",\n"
        << "  \"pool_width\": " << env.pool_width() << ",\n"
        << "  \"stripe_bytes\": " << stripe_bytes << ",\n"
        << "  \"file_bytes\": " << file_bytes << ",\n"
        << "  \"codec_encode_mbps\": " << codec_encode << ",\n"
        << "  \"codec_decode_mbps\": " << codec_decode << ",\n"
        << "  \"mem_encode_mbps\": " << mem_encode << ",\n"
        << "  \"mem_decode_mbps\": " << mem_decode << ",\n"
        << "  \"hash\": {\"sector_bytes\": " << HashCell::kSector
        << ", \"trials\": " << HashCell::kTrials << ", \"v2_gbps\": " << hash.v2_gbps
        << ", \"v1_gbps\": " << hash.v1_gbps
        << ", \"v2_over_v1\": " << hash.v2_gbps / hash.v1_gbps << "},\n  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      out << "    {\"op\": \"" << c.op << "\", \"queue_depth\": " << c.queue_depth
          << ", \"mbps\": " << c.mbps << ", \"vs_mem\": " << c.vs_mem
          << ", \"vs_codec\": " << c.vs_codec << "}" << (i + 1 < cells.size() ? "," : "")
          << "\n";
    }
    out << "  ],\n  \"mode_cells\": [\n";
    for (std::size_t i = 0; i < mode_cells.size(); ++i) {
      const ModeCell& c = mode_cells[i];
      const std::uint64_t fixed_ops = c.stats.fixed_reads + c.stats.fixed_writes;
      out << "    {\"mode\": \"" << c.mode << "\", \"op\": \"" << c.op
          << "\", \"queue_depth\": 4, \"mbps\": " << c.mbps
          << ", \"direct_opens\": " << c.stats.direct_opens
          << ", \"direct_fallbacks\": " << c.stats.direct_fallbacks
          << ", \"fixed_ops\": " << fixed_ops
          << ", \"fixed_fallbacks\": " << c.stats.fixed_fallbacks << "}"
          << (i + 1 < mode_cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }
  std::cout << "\nWrote " << cells.size() + mode_cells.size() << " cells to " << path << "\n";
  std::cout << "Shape check: encode/decode vs-mem at depth >= 4 should be >= 0.8 (real\n"
               "IO overlapping compute, not serializing it); depth 1 shows the lockstep\n"
               "cost the overlap removes. vs_codec is the integrity+staging price.\n";
  fs::remove_all(dir);
  return 0;
}
