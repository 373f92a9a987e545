// IO pipeline battery: clean round trips on every IO backend, the
// fault-injection matrix (device-only / sector-only / mixed patterns, EIO,
// short reads, torn writes — every recoverable class reconstructs
// byte-identically, unrecoverable classes surface as failed handles), the
// deterministic seeded injector, cross-backend determinism of the whole
// file path (GF backend x region layout x IO backend x pool width), manifest
// hardening, checksum-journal replay, the frozen sector-hash versions and
// version-1 stores.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "gf/kernel.h"
#include "gf/region.h"
#include "stair/io_pipeline.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "v1_store.h"

namespace stair {
namespace {

namespace fs = std::filesystem;

// --- plumbing ---------------------------------------------------------------

struct TempDir {
  fs::path path;

  explicit TempDir(const std::string& hint) {
    path = fs::temp_directory_path() /
           ("stair_io_test_" + hint + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }

  std::string str() const { return path.string(); }
};

std::vector<std::uint8_t> write_random_file(const fs::path& p, std::size_t bytes,
                                            std::uint64_t seed) {
  std::vector<std::uint8_t> data(bytes);
  Rng rng(seed);
  rng.fill(data);
  std::ofstream out(p, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return data;
}

std::vector<std::uint8_t> read_all(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Flips bytes in [offset, offset+len) of `p` — guaranteed content change,
/// so the sector checksums must mismatch.
void flip_bytes(const fs::path& p, std::uint64_t offset, std::size_t len) {
  std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f) << "cannot open " << p;
  std::vector<char> buf(len);
  f.seekg(static_cast<std::streamoff>(offset));
  f.read(buf.data(), static_cast<std::streamsize>(len));
  for (char& c : buf) c = static_cast<char>(c ^ 0xA5);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(buf.data(), static_cast<std::streamsize>(len));
}

struct StoreCase {
  StairConfig cfg;
  std::size_t symbol;
};

// Three configs spanning the coverage shapes (m=1/2, two- and three-entry e).
std::vector<StoreCase> fault_cases() {
  return {
      {{.n = 6, .r = 4, .m = 1, .e = {1, 2}, .w = 8}, 512},
      {{.n = 8, .r = 6, .m = 2, .e = {1, 2}, .w = 8}, 256},
      {{.n = 9, .r = 4, .m = 2, .e = {1, 1, 2}, .w = 8}, 384},
  };
}

std::vector<io::Backend> io_backends() {
  std::vector<io::Backend> b{io::Backend::kThreads};
  if (io::Engine::uring_supported()) b.push_back(io::Backend::kUring);
  return b;
}

/// Encodes `bytes` of seeded random data into dir/store and returns them.
std::vector<std::uint8_t> encode_store(const TempDir& dir, const StoreCase& c,
                                       std::size_t bytes, std::uint64_t seed,
                                       IoPipeline::Options opts = {},
                                       IoPipeline::Stats* stats_out = nullptr) {
  const auto data = write_random_file(dir.path / "input.bin", bytes, seed);
  Codec codec(c.cfg);
  opts.symbol_bytes = c.symbol;
  IoPipeline pipeline(codec, opts);
  const auto st = pipeline.encode_file((dir.path / "input.bin").string(),
                                       (dir.path / "store").string());
  if (stats_out) *stats_out = st;
  EXPECT_TRUE(st.ok) << st.error;
  return data;
}

IoPipeline::Stats decode_store(const TempDir& dir, const StoreCase& c,
                               IoPipeline::Options opts = {}) {
  Codec codec(c.cfg);
  IoPipeline pipeline(codec, opts);
  return pipeline.decode_file((dir.path / "store").string(),
                              (dir.path / "output.bin").string());
}

std::string dev_path(const TempDir& dir, std::size_t j) {
  return StripeStore::device_path((dir.path / "store").string(), j);
}

// --- clean round trips ------------------------------------------------------

TEST(IoPipeline, RoundTripAllBackendsAndDepths) {
  for (io::Backend backend : io_backends()) {
    for (std::size_t depth : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(io::backend_name(backend)) + " depth=" +
                   std::to_string(depth));
      const StoreCase c = fault_cases()[0];
      TempDir dir("roundtrip");
      // 4 full stripes + a partial tail exercises padding and ftruncate.
      Codec codec(c.cfg);
      const std::size_t data_bytes =
          codec.code().data_symbol_count() * c.symbol * 4 + 1234;
      IoPipeline::Stats enc;
      const auto data = encode_store(dir, c, data_bytes, 42,
                                     {.queue_depth = depth, .backend = backend}, &enc);
      EXPECT_EQ(enc.stripes, 5u);
      const auto dec = decode_store(dir, c, {.queue_depth = depth, .backend = backend});
      EXPECT_TRUE(dec.ok) << dec.error;
      EXPECT_EQ(dec.degraded_stripes, 0u);
      EXPECT_EQ(read_all(dir.path / "output.bin"), data);
    }
  }
}

TEST(IoPipeline, EmptyFileRoundTrip) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("empty");
  const auto data = encode_store(dir, c, 0, 1);
  const auto dec = decode_store(dir, c);
  EXPECT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(dec.stripes, 0u);
  EXPECT_EQ(read_all(dir.path / "output.bin"), data);
}

TEST(IoPipeline, SlotRingSettlesAtQueueDepth) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("slots");
  write_random_file(dir.path / "input.bin", 64 * 1024, 7);
  Codec codec(c.cfg);
  IoPipeline pipeline(codec, {.queue_depth = 3, .symbol_bytes = c.symbol});
  const auto enc = pipeline.encode_file((dir.path / "input.bin").string(),
                                        (dir.path / "store").string());
  ASSERT_TRUE(enc.ok) << enc.error;
  const auto dec = pipeline.decode_file((dir.path / "store").string(),
                                        (dir.path / "output.bin").string());
  ASSERT_TRUE(dec.ok) << dec.error;
  // The ring bounds stripes in flight; the pool may briefly overshoot while
  // a retiring slot's lease unwinds, but it must not grow with stripe count.
  EXPECT_LE(pipeline.slots_created(), 3u + 2u);
}

// --- recoverable fault classes ----------------------------------------------

// Every recoverable pattern class (device-only, sector-only, mixed), for all
// three coverage shapes. Each asserts byte-identical reconstruction and that
// the degraded path actually ran.

TEST(IoPipelineFaults, DeviceOnlyPatterns) {
  for (const StoreCase& c : fault_cases()) {
    SCOPED_TRACE(c.cfg.to_string());
    TempDir dir("dev_only");
    const auto data = encode_store(dir, c, 150 * 1000, 11);
    // Lose exactly m whole devices — the paper's device-failure budget.
    for (std::size_t j = 0; j < c.cfg.m; ++j)
      ASSERT_TRUE(fs::remove(dev_path(dir, j + 1)));
    const auto dec = decode_store(dir, c);
    EXPECT_TRUE(dec.ok) << dec.error;
    EXPECT_EQ(dec.degraded_stripes, dec.stripes);
    EXPECT_EQ(dec.chunks_missing, c.cfg.m * dec.stripes);
    EXPECT_EQ(dec.failed_stripes, 0u);
    EXPECT_EQ(read_all(dir.path / "output.bin"), data);
  }
}

TEST(IoPipelineFaults, SectorOnlyPatterns) {
  for (const StoreCase& c : fault_cases()) {
    SCOPED_TRACE(c.cfg.to_string());
    TempDir dir("sector_only");
    const auto data = encode_store(dir, c, 120 * 1000, 12);
    // Per stripe 0 and 1: chunk of device k+1 gets exactly e[k] corrupt
    // sectors — the maximal sector-only pattern the coverage vector admits.
    // Offsets come from the manifest: the chunk stride is padded when the
    // store was encoded in direct mode.
    const auto store = StripeStore::load((dir.path / "store").string());
    std::size_t expect_corrupt = 0;
    for (std::size_t s = 0; s < 2; ++s)
      for (std::size_t k = 0; k < c.cfg.e.size(); ++k)
        for (std::size_t i = 0; i < c.cfg.e[k]; ++i) {
          flip_bytes(dev_path(dir, k + 1), store.chunk_offset(s) + i * c.symbol, 64);
          ++expect_corrupt;
        }
    const auto dec = decode_store(dir, c);
    EXPECT_TRUE(dec.ok) << dec.error;
    EXPECT_EQ(dec.degraded_stripes, 2u);
    EXPECT_EQ(dec.sectors_corrupt, expect_corrupt);
    EXPECT_EQ(read_all(dir.path / "output.bin"), data);
  }
}

TEST(IoPipelineFaults, MixedDeviceAndSectorPatterns) {
  for (const StoreCase& c : fault_cases()) {
    SCOPED_TRACE(c.cfg.to_string());
    TempDir dir("mixed");
    const auto data = encode_store(dir, c, 130 * 1000, 13);
    // m whole devices lost AND the full e-shaped sector pattern on surviving
    // devices — the exact worst case the STAIR construction guarantees.
    for (std::size_t j = 0; j < c.cfg.m; ++j)
      ASSERT_TRUE(fs::remove(dev_path(dir, j)));
    const auto store = StripeStore::load((dir.path / "store").string());
    for (std::size_t s = 0; s < 2; ++s)
      for (std::size_t k = 0; k < c.cfg.e.size(); ++k)
        for (std::size_t i = 0; i < c.cfg.e[k]; ++i)
          flip_bytes(dev_path(dir, c.cfg.m + k), store.chunk_offset(s) + i * c.symbol, 32);
    const auto dec = decode_store(dir, c);
    EXPECT_TRUE(dec.ok) << dec.error;
    EXPECT_EQ(dec.degraded_stripes, dec.stripes);
    EXPECT_EQ(dec.failed_stripes, 0u);
    EXPECT_EQ(read_all(dir.path / "output.bin"), data);
  }
}

// --- injected IO faults (engine-level) --------------------------------------

TEST(IoPipelineFaults, EioChunkReadActsAsDeviceLossForItsStripe) {
  const StoreCase c = fault_cases()[1];
  TempDir dir("eio");
  const auto data = encode_store(dir, c, 100 * 1000, 14);
  const auto store = StripeStore::load((dir.path / "store").string());

  auto injected = std::make_unique<io::FaultInjectingEngine>(
      io::Engine::create(io::Backend::kThreads));
  // Chunk (stripe 1, device 3) dies with EIO; stripe 0/2... stay clean.
  injected->add_fault({.kind = io::Fault::Kind::kReadError,
                       .file = "dev_03.bin",
                       .offset = store.chunk_offset(1),
                       .length = store.padded_chunk_bytes()});
  const auto dec = decode_store(dir, c, {.engine = injected.get()});
  EXPECT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(dec.degraded_stripes, 1u);
  EXPECT_EQ(dec.chunks_missing, 1u);
  EXPECT_GE(injected->hits(), 1u);
  EXPECT_EQ(read_all(dir.path / "output.bin"), data);
}

TEST(IoPipelineFaults, ShortChunkReadActsAsDeviceLossForItsStripe) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("short");
  const auto data = encode_store(dir, c, 90 * 1000, 15);
  const auto store = StripeStore::load((dir.path / "store").string());

  auto injected = std::make_unique<io::FaultInjectingEngine>(
      io::Engine::create(io::Backend::kThreads));
  injected->add_fault({.kind = io::Fault::Kind::kShortRead,
                       .file = "dev_02.bin",
                       .offset = 0,
                       .length = store.padded_chunk_bytes(),
                       .keep_bytes = store.padded_chunk_bytes() / 2});
  const auto dec = decode_store(dir, c, {.engine = injected.get()});
  EXPECT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(dec.degraded_stripes, 1u);
  EXPECT_EQ(dec.chunks_missing, 1u);
  EXPECT_EQ(read_all(dir.path / "output.bin"), data);
}

TEST(IoPipelineFaults, TornWriteIsCaughtBySectorChecksumsOnRead) {
  const StoreCase c = fault_cases()[1];
  TempDir dir("torn");
  const std::size_t chunk_bytes = c.cfg.r * c.symbol;

  auto injected = std::make_unique<io::FaultInjectingEngine>(
      io::Engine::create(io::Backend::kThreads));
  // The write of chunk (stripe 0, device 5) tears after 1.5 symbols but
  // REPORTS success: encode must complete "ok" — this is silent corruption.
  injected->add_fault({.kind = io::Fault::Kind::kTornWrite,
                       .file = "dev_05.bin",
                       .offset = 0,
                       .length = chunk_bytes,
                       .keep_bytes = c.symbol + c.symbol / 2});
  IoPipeline::Stats enc;
  const auto data =
      encode_store(dir, c, 110 * 1000, 16, {.engine = injected.get()}, &enc);
  ASSERT_TRUE(enc.ok) << enc.error;  // the tear is not observable at write time
  EXPECT_GE(injected->hits(), 1u);

  // An unmodified engine decodes: the checksums catch the lie, the torn
  // sectors (all but the first whole one) are erased and reconstructed.
  const auto dec = decode_store(dir, c);
  EXPECT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(dec.degraded_stripes, 1u);
  EXPECT_GE(dec.sectors_corrupt, c.cfg.r - 2);
  EXPECT_EQ(read_all(dir.path / "output.bin"), data);
}

TEST(IoPipelineFaults, DeviceWriteErrorFailsEncodeCleanly) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("werr");
  write_random_file(dir.path / "input.bin", 80 * 1000, 17);
  auto injected = std::make_unique<io::FaultInjectingEngine>(
      io::Engine::create(io::Backend::kThreads));
  injected->add_fault({.kind = io::Fault::Kind::kWriteError, .file = "dev_01.bin"});
  Codec codec(c.cfg);
  IoPipeline pipeline(codec, {.symbol_bytes = c.symbol, .engine = injected.get()});
  const auto st = pipeline.encode_file((dir.path / "input.bin").string(),
                                       (dir.path / "store").string());
  EXPECT_FALSE(st.ok);
  EXPECT_FALSE(st.error.empty());
}

// --- unrecoverable patterns -------------------------------------------------

TEST(IoPipelineFaults, UnrecoverableDevicePatternFailsWithoutCrashing) {
  for (const StoreCase& c : fault_cases()) {
    SCOPED_TRACE(c.cfg.to_string());
    TempDir dir("unrec_dev");
    encode_store(dir, c, 100 * 1000, 18);
    for (std::size_t j = 0; j <= c.cfg.m; ++j)  // m+1 devices: over budget
      ASSERT_TRUE(fs::remove(dev_path(dir, j)));
    const auto dec = decode_store(dir, c);
    EXPECT_FALSE(dec.ok);
    EXPECT_EQ(dec.failed_stripes, dec.stripes);
    EXPECT_FALSE(dec.error.empty());
    // The output exists at full size (holes where nothing was recoverable).
    EXPECT_TRUE(fs::exists(dir.path / "output.bin"));
    EXPECT_EQ(fs::file_size(dir.path / "output.bin"),
              StripeStore::load((dir.path / "store").string()).file_size);
  }
}

TEST(IoPipelineFaults, UnrecoverableSectorPatternFailsOnlyItsStripe) {
  const StoreCase c = fault_cases()[0];  // m=1, e={1,2}
  TempDir dir("unrec_sector");
  const auto data = encode_store(dir, c, 100 * 1000, 19);
  const auto store = StripeStore::load((dir.path / "store").string());
  // Stripe 1: corrupt the SAME row in m + m' + 1 = 4 distinct chunks — one
  // row with 4 erasures exceeds the row code's m + m' budget, and as chunk
  // errors {1,1,1,1} it cannot fit m plus e = {1,2} either. Self-check the
  // pattern is really outside the guarantee before asserting on the stats.
  std::vector<bool> stripe_mask(c.cfg.r * c.cfg.n, false);
  for (std::size_t j = 0; j < 4; ++j) {
    flip_bytes(dev_path(dir, j), store.chunk_offset(1) + 0 * c.symbol, 16);
    stripe_mask[0 * c.cfg.n + j] = true;
  }
  ASSERT_FALSE(StairCode(c.cfg).is_recoverable(stripe_mask));
  const auto dec = decode_store(dir, c);
  EXPECT_FALSE(dec.ok);
  EXPECT_EQ(dec.failed_stripes, 1u);
  // Every other stripe still reconstructed: compare all bytes outside
  // stripe 1's data range.
  Codec codec(c.cfg);
  const std::size_t stripe_data = codec.code().data_symbol_count() * c.symbol;
  const auto out = read_all(dir.path / "output.bin");
  ASSERT_EQ(out.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i >= stripe_data && i < 2 * stripe_data) continue;
    ASSERT_EQ(out[i], data[i]) << "byte " << i << " outside the failed stripe";
  }
}

// --- seeded injector determinism --------------------------------------------

// The soak/fault harness promise: a fault plan drawn from a seed behaves
// identically on every run — same stats, same bytes — so any failure
// reproduces from its logged seed.
TEST(IoPipelineFaults, SeededFaultPlanIsDeterministic) {
  const StoreCase c = fault_cases()[1];
  const std::uint64_t seed = 0xF00D;
  SCOPED_TRACE("fault plan seed=" + std::to_string(seed));
  TempDir dir("seeded");
  const auto data = encode_store(dir, c, 140 * 1000, 20);
  const std::size_t chunk_bytes = c.cfg.r * c.symbol;
  const std::size_t stripes = StripeStore::load((dir.path / "store").string()).stripes;

  auto build_plan = [&](io::FaultInjectingEngine& eng) {
    Rng rng(seed);
    for (int k = 0; k < 3; ++k) {
      const std::size_t s = rng.next_below(stripes);
      const std::size_t j = rng.next_below(c.cfg.n);
      char file[16];
      std::snprintf(file, sizeof file, "dev_%02zu.bin", j);
      const auto kind = rng.chance(0.5) ? io::Fault::Kind::kReadError
                                        : io::Fault::Kind::kShortRead;
      eng.add_fault({.kind = kind,
                     .file = file,
                     .offset = s * chunk_bytes,
                     .length = chunk_bytes,
                     .keep_bytes = chunk_bytes / 4});
    }
  };

  auto run_once = [&](const fs::path& out) {
    auto injected = std::make_unique<io::FaultInjectingEngine>(
        io::Engine::create(io::Backend::kThreads));
    build_plan(*injected);
    Codec codec(c.cfg);
    IoPipeline pipeline(codec, {.engine = injected.get()});
    return pipeline.decode_file((dir.path / "store").string(), out.string());
  };

  const auto first = run_once(dir.path / "out1.bin");
  const auto second = run_once(dir.path / "out2.bin");
  EXPECT_EQ(first.ok, second.ok);
  EXPECT_EQ(first.degraded_stripes, second.degraded_stripes);
  EXPECT_EQ(first.failed_stripes, second.failed_stripes);
  EXPECT_EQ(first.chunks_missing, second.chunks_missing);
  EXPECT_EQ(read_all(dir.path / "out1.bin"), read_all(dir.path / "out2.bin"));
  if (first.ok) EXPECT_EQ(read_all(dir.path / "out1.bin"), data);
}

// --- cross-backend determinism ----------------------------------------------

// Extends stair_sweep_test's LayoutAndBackendEquivalence to the IO path: the
// bytes that land on disk (device files AND manifest) and the bytes decoded
// back must be identical across every GF backend x region layout x IO
// backend x pool width for a golden config set.
TEST(IoPipelineDeterminism, CrossBackendByteIdenticalStores) {
  struct DispatchGuard {
    ~DispatchGuard() {
      gf::reset_layout();
      gf::reset_backend();
    }
  } guard;

  for (StoreCase c : {StoreCase{{.n = 6, .r = 4, .m = 1, .e = {1, 2}, .w = 8}, 256},
                      StoreCase{{.n = 6, .r = 4, .m = 1, .e = {1, 2}, .w = 16}, 256}}) {
    SCOPED_TRACE(c.cfg.to_string());
    TempDir dir("xdet");
    const auto data = write_random_file(dir.path / "input.bin", 90 * 1000, 21);

    std::vector<std::vector<std::uint8_t>> ref_devs;
    std::vector<std::uint8_t> ref_manifest;

    for (gf::Backend gfb : {gf::Backend::kScalar, gf::Backend::kSsse3,
                            gf::Backend::kAvx2, gf::Backend::kGfni}) {
      if (!gf::backend_supported(gfb)) continue;
      ASSERT_TRUE(gf::force_backend(gfb));
      for (gf::RegionLayout layout :
           {gf::RegionLayout::kStandard, gf::RegionLayout::kAltmap}) {
        gf::force_layout(layout);
        for (io::Backend iob : io_backends()) {
          for (std::size_t width : {std::size_t{1}, std::size_t{3}}) {
            SCOPED_TRACE(std::string(gf::backend_name(gfb)) + "/" +
                         gf::layout_name(layout) + "/" + io::backend_name(iob) +
                         "/pool" + std::to_string(width));
            const fs::path store = dir.path / "store";
            fs::remove_all(store);

            ThreadPool pool(width);
            Codec codec(c.cfg, {.pool = &pool});
            IoPipeline pipeline(codec, {.queue_depth = 3,
                                        .symbol_bytes = c.symbol,
                                        .backend = iob});
            const auto enc = pipeline.encode_file((dir.path / "input.bin").string(),
                                                  store.string());
            ASSERT_TRUE(enc.ok) << enc.error;

            std::vector<std::vector<std::uint8_t>> devs;
            for (std::size_t j = 0; j < c.cfg.n; ++j)
              devs.push_back(read_all(dev_path(dir, j)));
            auto manifest = read_all(store / "manifest.txt");
            if (ref_devs.empty()) {
              ref_devs = std::move(devs);
              ref_manifest = std::move(manifest);
            } else {
              ASSERT_EQ(devs, ref_devs) << "device bytes diverged";
              ASSERT_EQ(manifest, ref_manifest) << "manifest diverged";
            }

            // Degraded decode must agree too: lose device 2, flip a sector.
            ASSERT_TRUE(fs::remove(dev_path(dir, 2)));
            flip_bytes(dev_path(dir, 4), c.symbol, 16);
            const auto dec = pipeline.decode_file(
                store.string(), (dir.path / "output.bin").string());
            ASSERT_TRUE(dec.ok) << dec.error;
            ASSERT_EQ(read_all(dir.path / "output.bin"), data);
          }
        }
      }
    }
  }
}

// --- manifest hardening -----------------------------------------------------

namespace {

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const fs::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Replaces the first occurrence of `from` in the manifest with `to`.
void patch_manifest(const TempDir& dir, const std::string& from, const std::string& to) {
  const fs::path mpath = dir.path / "store" / "manifest.txt";
  std::string text = slurp(mpath);
  const auto pos = text.find(from);
  ASSERT_NE(pos, std::string::npos) << "manifest lacks '" << from << "'";
  text.replace(pos, from.size(), to);
  spit(mpath, text);
}

}  // namespace

// A manifest cut off mid-file (power cut before the atomic rename existed,
// or plain disk damage) must fail decode with a clean, counted error — the
// old loader zero-filled every unread field and checksum, silently treating
// most of the store as torn.
TEST(ManifestHardening, TruncatedManifestFailsCleanly) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("mtrunc");
  encode_store(dir, c, 48 * 1000, 30);

  const fs::path mpath = dir.path / "store" / "manifest.txt";
  const std::string text = slurp(mpath);
  spit(mpath, text.substr(0, text.size() / 2));

  const auto st = decode_store(dir, c);
  EXPECT_FALSE(st.ok);
  EXPECT_NE(st.error.find("manifest"), std::string::npos) << st.error;
  EXPECT_EQ(st.manifest_errors, 1u);
  EXPECT_EQ(st.bytes_written, 0u);

  Codec codec(c.cfg);
  IoPipeline pipeline(codec, {.symbol_bytes = c.symbol});
  std::vector<std::uint8_t> out(512);
  const auto rr = pipeline.read_range((dir.path / "store").string(), 0, out);
  EXPECT_FALSE(rr.ok);
  EXPECT_EQ(rr.manifest_errors, 1u);
}

// An adversarial stripe count must be stopped before it sizes the checksum
// table — the old loader computed stripes * n * r in size_t and happily
// indexed the wrapped-around allocation.
TEST(ManifestHardening, ImplausibleGeometryRejectedBeforeAllocation) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("mgeom");
  encode_store(dir, c, 24 * 1000, 31);

  patch_manifest(dir, "stripes ", "stripes 4294967296 ignored_");
  const auto st = decode_store(dir, c);
  EXPECT_FALSE(st.ok);
  EXPECT_NE(st.error.find("manifest"), std::string::npos) << st.error;
  EXPECT_EQ(st.manifest_errors, 1u);
}

// A chunk line pointing outside the declared geometry is an indexing attack
// on sector_checksums; it must be a parse error, not an OOB write.
TEST(ManifestHardening, OutOfRangeChunkLineRejected) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("mchunk");
  encode_store(dir, c, 24 * 1000, 32);

  patch_manifest(dir, "chunk 0 0", "chunk 999999 0");
  const auto st = decode_store(dir, c);
  EXPECT_FALSE(st.ok);
  EXPECT_NE(st.error.find("manifest"), std::string::npos) << st.error;
  EXPECT_EQ(st.manifest_errors, 1u);
}

// Garbage where a checksum should be (non-numeric token) must fail the parse
// instead of istream writing a zero and the loop resynchronizing mid-line.
TEST(ManifestHardening, GarbledChecksumTokenRejected) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("mgarble");
  encode_store(dir, c, 24 * 1000, 33);

  patch_manifest(dir, "chunk 0 1", "chunk 0 garble");
  const auto st = decode_store(dir, c);
  EXPECT_FALSE(st.ok);
  EXPECT_NE(st.error.find("manifest"), std::string::npos) << st.error;
  EXPECT_EQ(st.manifest_errors, 1u);
}

// A file_size claiming more data than the declared stripes hold would send
// a ranged read past the last stripe's checksums; the loader must refuse it.
TEST(ManifestHardening, FileSizeBeyondStripesRejected) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("mfsize");
  const std::size_t stripe_data = Codec(c.cfg).code().data_symbol_count() * c.symbol;
  encode_store(dir, c, stripe_data / 2, 35);  // one stripe
  ASSERT_EQ(StripeStore::load((dir.path / "store").string()).stripes, 1u);

  patch_manifest(dir, "file_size " + std::to_string(stripe_data / 2),
                 "file_size " + std::to_string(3 * stripe_data));
  const auto st = decode_store(dir, c);
  EXPECT_FALSE(st.ok);
  EXPECT_NE(st.error.find("manifest"), std::string::npos) << st.error;
  EXPECT_EQ(st.manifest_errors, 1u);

  Codec codec(c.cfg);
  IoPipeline pipeline(codec, {.symbol_bytes = c.symbol});
  std::vector<std::uint8_t> out(c.symbol);
  const auto rr =
      pipeline.read_range((dir.path / "store").string(), 2 * stripe_data, out);
  EXPECT_FALSE(rr.ok);
  EXPECT_EQ(rr.manifest_errors, 1u);
}

// A coverage token with trailing garbage must not load as its numeric
// prefix ("2x" as 2): the store would open under a different code.
TEST(ManifestHardening, CoverageTokenWithGarbageRejected) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("mcover");
  encode_store(dir, c, 24 * 1000, 36);

  patch_manifest(dir, "\ne 1,2\n", "\ne 1,2x\n");
  const auto st = decode_store(dir, c);
  EXPECT_FALSE(st.ok);
  EXPECT_NE(st.error.find("manifest"), std::string::npos) << st.error;
  EXPECT_EQ(st.manifest_errors, 1u);
}

TEST(ManifestHardening, CoverageListParseIsStrict) {
  EXPECT_EQ(parse_coverage_list("1,2"), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(parse_coverage_list("12"), (std::vector<std::size_t>{12}));
  for (const char* bad : {"1,2x", "1,,2", "1,", ",1", "", "x", "-1", " 1", "1 ",
                          "99999999999999999999999"})
    EXPECT_THROW(parse_coverage_list(bad), std::invalid_argument) << "'" << bad << "'";
}

// --- checksum journal ---------------------------------------------------------

namespace {

/// `base` with stripe `stripe`'s checksums and the data fold set to values
/// derived from `tag`, so each variant's journal record is distinguishable.
StripeStore variant(const StripeStore& base, std::size_t stripe, std::uint64_t tag) {
  StripeStore v = base;
  auto sums = v.stripe_checksums(stripe);
  for (std::size_t i = 0; i < sums.size(); ++i) sums[i] = tag * 1000 + i;
  v.data_checksum = tag;
  return v;
}

std::string record_text(const StripeStore& store, std::size_t stripe) {
  const auto rec = store.journal_record(stripe);
  return {rec.begin(), rec.end()};
}

std::vector<std::uint64_t> stripe_sums(StripeStore& store, std::size_t stripe) {
  const auto sums = store.stripe_checksums(stripe);
  return {sums.begin(), sums.end()};
}

fs::path journal_of(const TempDir& dir) {
  return StripeStore::journal_path((dir.path / "store").string());
}

}  // namespace

// Last record wins, and a record cut short by a crash mid-append is
// ignored without costing the records before it.
TEST(ChecksumJournal, TornTailIgnoredEarlierRecordsApply) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("jtorn");
  encode_store(dir, c, 48 * 1000, 40);
  const std::string store_path = (dir.path / "store").string();
  StripeStore base = StripeStore::load(store_path);
  ASSERT_GE(base.stripes, 4u);
  ASSERT_FALSE(fs::exists(journal_of(dir)));  // a fresh store has no journal

  StripeStore a = variant(base, 1, 7), b = variant(base, 1, 8), cut = variant(base, 3, 9);
  const std::string torn = record_text(cut, 3);
  spit(journal_of(dir),
       record_text(a, 1) + record_text(b, 1) + torn.substr(0, torn.size() / 2));

  StripeStore loaded = StripeStore::load(store_path);
  EXPECT_EQ(stripe_sums(loaded, 1), stripe_sums(b, 1));
  EXPECT_EQ(stripe_sums(loaded, 3), stripe_sums(base, 3));
  EXPECT_EQ(loaded.data_checksum, 8u);
  EXPECT_EQ(loaded.journal_bytes, 2 * base.journal_record_bytes());
  for (std::size_t s : {std::size_t{0}, std::size_t{2}})
    EXPECT_EQ(stripe_sums(loaded, s), stripe_sums(base, s));
}

TEST(ChecksumJournal, BadHashStopsReplay) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("jhash");
  encode_store(dir, c, 48 * 1000, 41);
  const std::string store_path = (dir.path / "store").string();
  StripeStore base = StripeStore::load(store_path);

  StripeStore a = variant(base, 1, 7), b = variant(base, 2, 8), after = variant(base, 3, 9);
  std::string damaged = record_text(b, 2);
  damaged[16] ^= 0x01;  // a bit of the first sector checksum
  spit(journal_of(dir), record_text(a, 1) + damaged + record_text(after, 3));

  StripeStore loaded = StripeStore::load(store_path);
  EXPECT_EQ(stripe_sums(loaded, 1), stripe_sums(a, 1));
  EXPECT_EQ(stripe_sums(loaded, 2), stripe_sums(base, 2));
  EXPECT_EQ(stripe_sums(loaded, 3), stripe_sums(base, 3));  // nothing past the damage
  EXPECT_EQ(loaded.data_checksum, 7u);
  EXPECT_EQ(loaded.journal_bytes, base.journal_record_bytes());
}

// A well-formed record naming a stripe the snapshot does not have (here, one
// from a larger store of the same geometry) must not index past the table.
TEST(ChecksumJournal, OutOfRangeStripeRejected) {
  const StoreCase c = fault_cases()[0];
  TempDir small("jrange_small"), large("jrange_large");
  encode_store(small, c, 24 * 1000, 42);
  encode_store(large, c, 96 * 1000, 42);
  const std::string store_path = (small.path / "store").string();
  StripeStore base = StripeStore::load(store_path);
  const StripeStore big = StripeStore::load((large.path / "store").string());
  ASSERT_GT(big.stripes, base.stripes);

  spit(journal_of(small),
       record_text(big, big.stripes - 1) + record_text(variant(base, 0, 7), 0));
  StripeStore loaded;
  ASSERT_NO_THROW(loaded = StripeStore::load(store_path));
  EXPECT_EQ(loaded.sector_checksums, base.sector_checksums);
  EXPECT_EQ(loaded.data_checksum, base.data_checksum);
  EXPECT_EQ(loaded.journal_bytes, 0u);
}

// Re-encoding into a directory must not let the old store's journal replay
// over the new snapshot.
TEST(ChecksumJournal, EncodeDropsAStaleJournal) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("jstale");
  const auto data = encode_store(dir, c, 48 * 1000, 43);
  const std::string store_path = (dir.path / "store").string();
  const StripeStore fresh = StripeStore::load(store_path);
  spit(journal_of(dir), record_text(variant(fresh, 1, 7), 1));
  ASSERT_NE(StripeStore::load(store_path).sector_checksums, fresh.sector_checksums);

  encode_store(dir, c, 48 * 1000, 43);
  EXPECT_FALSE(fs::exists(journal_of(dir)));
  const StripeStore reloaded = StripeStore::load(store_path);
  EXPECT_EQ(reloaded.sector_checksums, fresh.sector_checksums);
  EXPECT_EQ(reloaded.data_checksum, fresh.data_checksum);
  const auto st = decode_store(dir, c);
  ASSERT_TRUE(st.ok) << st.error;
  EXPECT_EQ(read_all(dir.path / "output.bin"), data);
}

// --- StripeStore verify / stage primitives -----------------------------------

// One in-memory stripe of a padded (block 4096) store, staged chunk by chunk
// through stage_chunk so the manifest holds exactly the staged checksums.
struct StagedStripe {
  StripeStore store;
  StairCode code;
  StripeBuffer buf;
  std::vector<std::vector<std::uint8_t>> staging;  // one padded chunk per device

  explicit StagedStripe(const StoreCase& c)
      : code(c.cfg), buf(code, c.symbol) {
    store.cfg = c.cfg;
    store.symbol_bytes = c.symbol;
    store.block_bytes = 4096;
    store.stripes = 1;
    store.sector_checksums.assign(c.cfg.n * c.cfg.r, 0);
    Rng rng(37);
    for (std::size_t i = 0; i < c.cfg.r; ++i)
      for (std::size_t j = 0; j < c.cfg.n; ++j) rng.fill(buf.symbol(i, j));
    for (std::size_t j = 0; j < c.cfg.n; ++j) {
      staging.emplace_back(store.padded_chunk_bytes(), 0xEE);  // dirty pad
      store.stage_chunk(buf.view(), j, staging[j].data(),
                        store.stripe_checksums(0).subspan(j * c.cfg.r, c.cfg.r));
    }
  }
  io::Result whole() const { return {0, store.padded_chunk_bytes()}; }
};

TEST(StripeStorePrimitives, StagePadsWithZerosAndVerifyAcceptsItsHashes) {
  const StoreCase c = fault_cases()[0];
  StagedStripe s(c);
  ASSERT_GT(s.store.padded_chunk_bytes(), s.store.chunk_bytes());
  StripeBuffer into(s.code, c.symbol);
  std::vector<std::uint8_t> bad(c.cfg.r * c.cfg.n, 1);
  for (std::size_t j = 0; j < c.cfg.n; ++j) {
    const auto& chunk = s.staging[j];
    EXPECT_TRUE(std::all_of(chunk.begin() + static_cast<std::ptrdiff_t>(s.store.chunk_bytes()),
                            chunk.end(), [](std::uint8_t b) { return b == 0; }))
        << "pad tail of chunk " << j;
    const auto v = s.store.verify_chunk(0, j, s.whole(), chunk.data(), bad, &into);
    EXPECT_FALSE(v.missing);
    EXPECT_EQ(v.corrupt, 0u);
    for (std::size_t i = 0; i < c.cfg.r; ++i) {
      EXPECT_TRUE(std::equal(into.symbol(i, j).begin(), into.symbol(i, j).end(),
                             s.buf.symbol(i, j).begin()))
          << "good sector (" << i << ", " << j << ") not copied out";
      EXPECT_TRUE(s.store.sector_ok(0, j, i, s.buf.symbol(i, j)));
    }
  }
  std::vector<bool> mask;
  EXPECT_EQ(StripeStore::erasure_mask(bad, mask), 0u);
  EXPECT_EQ(mask, std::vector<bool>(c.cfg.r * c.cfg.n, false));
}

TEST(StripeStorePrimitives, FailedOrShortTransferErasesTheWholeColumn) {
  const StoreCase c = fault_cases()[0];
  StagedStripe s(c);
  const std::size_t dev = 2;
  const io::Result failures[] = {{ENOENT, 0}, {0, s.store.padded_chunk_bytes() - 1}};
  for (const io::Result& r : failures) {
    std::vector<std::uint8_t> bad(c.cfg.r * c.cfg.n, 0);
    const auto v = s.store.verify_chunk(0, dev, r, s.staging[dev].data(), bad);
    EXPECT_TRUE(v.missing) << "error " << r.error << " bytes " << r.bytes;
    EXPECT_EQ(v.corrupt, 0u);
    std::vector<bool> mask;
    EXPECT_EQ(StripeStore::erasure_mask(bad, mask), c.cfg.r);
    for (std::size_t i = 0; i < c.cfg.r; ++i)
      for (std::size_t j = 0; j < c.cfg.n; ++j)
        EXPECT_EQ(mask[i * c.cfg.n + j], j == dev) << "(" << i << ", " << j << ")";
  }
}

TEST(StripeStorePrimitives, FlippedByteErasesExactlyItsRow) {
  const StoreCase c = fault_cases()[0];
  StagedStripe s(c);
  const std::size_t dev = 1, row = 2;
  s.staging[dev][row * c.symbol + 17] ^= 0x01;
  std::vector<std::uint8_t> bad(c.cfg.r * c.cfg.n, 0);
  for (std::size_t j = 0; j < c.cfg.n; ++j) {
    const auto v = s.store.verify_chunk(0, j, s.whole(), s.staging[j].data(), bad);
    EXPECT_FALSE(v.missing);
    EXPECT_EQ(v.corrupt, j == dev ? 1u : 0u) << "device " << j;
  }
  std::vector<bool> mask;
  EXPECT_EQ(StripeStore::erasure_mask(bad, mask), 1u);
  EXPECT_TRUE(mask[row * c.cfg.n + dev]);
}

// --- content_hash64 ---------------------------------------------------------

namespace {

/// Deterministic test bytes: splitmix64 outputs, 8 bytes (LE) each.
std::vector<std::uint8_t> kat_bytes(std::size_t len, std::uint64_t seed = 0x5eed) {
  std::vector<std::uint8_t> out(len);
  std::uint64_t z = 0;
  for (std::size_t i = 0; i < len; ++i) {
    if (i % 8 == 0) {
      seed += 0x9e3779b97f4a7c15ULL;
      z = (seed ^ (seed >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      z ^= z >> 31;
    }
    out[i] = static_cast<std::uint8_t>(z >> (8 * (i % 8)));
  }
  return out;
}

struct KnownAnswer {
  std::size_t len;
  std::uint64_t v1, v2;
};

// v1 values are what content_hash64 returned before the 8-lane body: every
// version-1 store on disk holds checksums made by exactly this function.
constexpr KnownAnswer kKnownAnswers[] = {
    {0, 0x9531ddf6c224a121ULL, 0x898dd9f3ee95b005ULL},
    {1, 0x11ce8d16e28d6ca0ULL, 0xd2a486fe52d152daULL},
    {7, 0x912e46ca4def4703ULL, 0x93b10ae2a1561452ULL},
    {8, 0x4ce78e0cb8d121a0ULL, 0x3b47bee49c59a448ULL},
    {63, 0xb9b0936c3947d200ULL, 0x941c53dbaaf793fbULL},
    {64, 0x01224d5933ff91ceULL, 0x67d0e2c84101ed32ULL},
    {65, 0x60855c4ccd99ba18ULL, 0x62fb2262fa3d41b0ULL},
    {1000, 0x2651bd89f025f15fULL, 0x05063e2c936dbbbeULL},
    {16384, 0xc0bf14178bfd5b6eULL, 0xcb25ffd95ff0d12eULL},
};

constexpr std::size_t kSector = 16384;

}  // namespace

// Checksums are persisted, so both hash versions are frozen: a change to
// either body would turn every stored sector of that version into "corrupt".
TEST(ContentHash, KnownAnswers) {
  for (const KnownAnswer& k : kKnownAnswers) {
    const auto bytes = kat_bytes(k.len);
    EXPECT_EQ(content_hash64_v1(bytes), k.v1) << "len " << k.len;
    EXPECT_EQ(content_hash64(bytes), k.v2) << "len " << k.len;
  }
}

TEST(ContentHash, EverySingleBitFlipChangesTheSectorHash) {
  auto sector = kat_bytes(kSector);
  const std::uint64_t clean = content_hash64(sector);
  for (std::size_t i = 0; i < kSector; ++i) {
    const auto bit = static_cast<std::uint8_t>(1u << (i % 8));
    sector[i] ^= bit;
    ASSERT_NE(content_hash64(sector), clean) << "bit " << i % 8 << " of byte " << i;
    sector[i] ^= bit;
  }
}

// The lanes are folded in order and seeded apart, so words trading lanes
// within a block is a different input, not a permutation the hash ignores.
TEST(ContentHash, SwappingWordsAcrossLanesChangesTheSectorHash) {
  auto sector = kat_bytes(kSector);
  const std::uint64_t clean = content_hash64(sector);
  for (std::size_t block = 0; block < kSector / 64; ++block)
    for (std::size_t a = 0; a < 8; ++a)
      for (std::size_t b = a + 1; b < 8; ++b) {
        std::uint8_t* wa = sector.data() + block * 64 + a * 8;
        std::uint8_t* wb = sector.data() + block * 64 + b * 8;
        ASSERT_FALSE(std::equal(wa, wa + 8, wb));
        std::swap_ranges(wa, wa + 8, wb);
        ASSERT_NE(content_hash64(sector), clean)
            << "block " << block << " lanes " << a << "," << b;
        std::swap_ranges(wa, wa + 8, wb);
      }
}

// A torn sector write: the new prefix landed, the old suffix did not.
TEST(ContentHash, TornSectorAtEvery512ByteCutChangesTheHash) {
  const auto old_sector = kat_bytes(kSector, 1);
  const auto new_sector = kat_bytes(kSector, 2);
  const std::uint64_t old_hash = content_hash64(old_sector);
  const std::uint64_t new_hash = content_hash64(new_sector);
  for (std::size_t cut = 512; cut < kSector; cut += 512) {
    auto torn = old_sector;
    std::copy_n(new_sector.begin(), cut, torn.begin());
    const std::uint64_t h = content_hash64(torn);
    EXPECT_NE(h, old_hash) << "cut " << cut;
    EXPECT_NE(h, new_hash) << "cut " << cut;
  }
}

// --- store versions ---------------------------------------------------------

namespace {

std::string first_line(const fs::path& p) {
  const std::string text = slurp(p);
  return text.substr(0, text.find('\n'));
}

}  // namespace

TEST(StoreVersion, EncodeWritesVersion2) {
  TempDir dir("ver2");
  encode_store(dir, fault_cases()[0], 10 * 1000, 61);
  EXPECT_EQ(first_line(dir.path / "store" / "manifest.txt"), "stair_store 2");
  EXPECT_EQ(StripeStore::load((dir.path / "store").string()).version, 2);
}

// A version-1 store (checksums made with content_hash64_v1) decodes, serves
// ranged reads and still catches a flipped byte.
TEST(StoreVersion, V1StoreDecodesAndServesRangesByteExact) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("ver1");
  const std::size_t bytes = 48 * 1000 + 123;
  const auto data = encode_store(dir, c, bytes, 62);
  const std::string store_path = (dir.path / "store").string();
  const StripeStore v2 = StripeStore::load(store_path);
  downgrade_to_v1(store_path);
  EXPECT_EQ(first_line(dir.path / "store" / "manifest.txt"), "stair_store 1");
  const StripeStore v1 = StripeStore::load(store_path);
  ASSERT_EQ(v1.version, 1);
  // The downgrade rehashed everything: no checksum carries over.
  for (std::size_t i = 0; i < v1.sector_checksums.size(); ++i)
    ASSERT_NE(v1.sector_checksums[i], v2.sector_checksums[i]) << "sector " << i;
  EXPECT_NE(v1.data_checksum, v2.data_checksum);

  auto st = decode_store(dir, c);
  ASSERT_TRUE(st.ok) << st.error;
  EXPECT_EQ(st.degraded_stripes, 0u);
  EXPECT_EQ(st.sectors_corrupt, 0u);
  EXPECT_EQ(read_all(dir.path / "output.bin"), data);

  Codec codec(c.cfg);
  IoPipeline pipeline(codec, {.symbol_bytes = c.symbol});
  const std::size_t stripe_data = codec.code().data_symbol_count() * c.symbol;
  for (const std::uint64_t offset :
       {std::uint64_t{0}, std::uint64_t{stripe_data - 100}, std::uint64_t{bytes - 700}}) {
    std::vector<std::uint8_t> out(700);
    const auto rr = pipeline.read_range(v1, store_path, offset, out);
    ASSERT_TRUE(rr.ok) << rr.error;
    EXPECT_EQ(rr.degraded_stripes, 0u);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin() + offset)) << offset;
  }

  flip_bytes(dev_path(dir, 1), v1.chunk_offset(0) + 5, 1);
  st = decode_store(dir, c);
  ASSERT_TRUE(st.ok) << st.error;
  EXPECT_EQ(st.sectors_corrupt, 1u);
  EXPECT_EQ(st.degraded_stripes, 1u);
  EXPECT_EQ(read_all(dir.path / "output.bin"), data);
}

// save writes back the loaded version, and a version-1 store's journal
// records are hashed with the version-1 function.
TEST(StoreVersion, V1StoreSavesAndJournalsAsV1) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("ver1save");
  encode_store(dir, c, 48 * 1000, 63);
  const std::string store_path = (dir.path / "store").string();
  downgrade_to_v1(store_path);
  const StripeStore v1 = StripeStore::load(store_path);
  v1.save(store_path);
  EXPECT_EQ(first_line(dir.path / "store" / "manifest.txt"), "stair_store 1");
  EXPECT_EQ(StripeStore::load(store_path).sector_checksums, v1.sector_checksums);

  StripeStore changed = variant(v1, 1, 7);
  spit(journal_of(dir), record_text(changed, 1));
  StripeStore loaded = StripeStore::load(store_path);
  EXPECT_EQ(stripe_sums(loaded, 1), stripe_sums(changed, 1));
  EXPECT_EQ(loaded.journal_bytes, v1.journal_record_bytes());

  // The same words sealed with the version-2 hash are damage to a v1 store.
  auto rec = changed.journal_record(1);
  const std::uint64_t v2_seal = content_hash64(std::span(rec.data(), rec.size() - 8));
  for (int i = 0; i < 8; ++i)
    rec[rec.size() - 8 + i] = static_cast<std::uint8_t>(v2_seal >> (8 * i));
  spit(journal_of(dir), std::string(rec.begin(), rec.end()));
  loaded = StripeStore::load(store_path);
  EXPECT_EQ(loaded.sector_checksums, v1.sector_checksums);
  EXPECT_EQ(loaded.journal_bytes, 0u);
}

TEST(StoreVersion, UnknownOrMissingVersionRejected) {
  const StoreCase c = fault_cases()[0];
  const std::pair<std::string, std::string> patches[] = {
      {"stair_store 2\n", "stair_store 3\n"},
      {"stair_store 2\n", "stair_store 0\n"},
      {"stair_store 2\n", ""},
  };
  for (const auto& [from, to] : patches) {
    SCOPED_TRACE("'" + to + "'");
    TempDir dir("vernew");
    encode_store(dir, c, 10 * 1000, 64);
    patch_manifest(dir, from, to);
    EXPECT_THROW(StripeStore::load((dir.path / "store").string()), std::runtime_error);
    const auto st = decode_store(dir, c);
    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.error.find("manifest"), std::string::npos) << st.error;
    EXPECT_EQ(st.manifest_errors, 1u);
  }
}

// --- ranged reads -----------------------------------------------------------

// read_range serves exact byte windows, sector-granular: offsets that are
// unaligned, cross stripe boundaries, or graze the padded tail all come back
// byte-identical to the original file without reading the whole store.
TEST(IoPipelineRangedRead, ByteExactAcrossOffsetsAndBoundaries) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("range");
  const std::size_t bytes = 48 * 1000;
  const auto data = encode_store(dir, c, bytes, 34);

  Codec codec(c.cfg);
  IoPipeline pipeline(codec, {.symbol_bytes = c.symbol});
  const auto store = StripeStore::load((dir.path / "store").string());
  const std::size_t stripe_data =
      codec.code().layout().data_ids().size() * c.symbol;

  const struct {
    std::uint64_t offset;
    std::size_t len;
  } windows[] = {
      {0, 1},                                  // first byte
      {0, 4096},                               // head block
      {c.symbol - 7, 100},                     // straddles a sector boundary
      {stripe_data - 13, 37},                  // straddles a stripe boundary
      {bytes - 1, 1},                          // last byte
      {bytes - 900, 900},                      // padded tail stripe
      {stripe_data / 2, 2 * stripe_data + 5},  // three stripes
      {17, 0},                                 // empty range
  };
  for (const auto& w : windows) {
    SCOPED_TRACE("offset=" + std::to_string(w.offset) + " len=" + std::to_string(w.len));
    std::vector<std::uint8_t> out(w.len, 0xEE);
    const auto st = pipeline.read_range(store, (dir.path / "store").string(),
                                        w.offset, out);
    ASSERT_TRUE(st.ok) << st.error;
    EXPECT_EQ(st.degraded_stripes, 0u);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin() + w.offset));
  }

  // Sector-granular promise: a one-byte read costs one sector, not a stripe
  // — in aligned (direct) mode, the sector's block-rounded window.
  std::vector<std::uint8_t> one(1);
  const auto st = pipeline.read_range(store, (dir.path / "store").string(), 0, one);
  ASSERT_TRUE(st.ok) << st.error;
  std::size_t expect_read = c.symbol;
  if (io::direct_from_env() && store.block_bytes > 1)
    expect_read = std::min(store.padded_chunk_bytes(),
                           (c.symbol + store.block_bytes - 1) / store.block_bytes *
                               store.block_bytes);
  EXPECT_EQ(st.bytes_read, expect_read);
}

TEST(IoPipelineRangedRead, OutOfBoundsRangeFailsCleanly) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("rangeoob");
  const std::size_t bytes = 24 * 1000;
  encode_store(dir, c, bytes, 35);

  Codec codec(c.cfg);
  IoPipeline pipeline(codec, {.symbol_bytes = c.symbol});
  std::vector<std::uint8_t> out(256);
  EXPECT_FALSE(pipeline.read_range((dir.path / "store").string(), bytes, out).ok);
  EXPECT_FALSE(
      pipeline.read_range((dir.path / "store").string(), bytes - 100, out).ok);
  // A range that ends exactly at EOF is fine.
  EXPECT_TRUE(
      pipeline.read_range((dir.path / "store").string(), bytes - 256, out).ok);
}

// The rebuild-serving path: with a device gone and a sector torn elsewhere,
// ranged reads escalate per-stripe to build_degraded_read_schedule and still
// return exact bytes — verified against the manifest before they're copied.
TEST(IoPipelineRangedRead, DegradedRangesServedByteExact) {
  for (const auto& c : fault_cases()) {
    SCOPED_TRACE(c.cfg.to_string());
    for (io::Backend iob : io_backends()) {
      SCOPED_TRACE(io::backend_name(iob));
      TempDir dir("rangedeg");
      const std::size_t bytes = 48 * 1000;
      const auto data = encode_store(dir, c, bytes, 36);
      ASSERT_TRUE(fs::remove(dev_path(dir, 1)));     // whole device out
      flip_bytes(dev_path(dir, 3), 2 * c.symbol, 32);  // torn sector, stripe 0

      Codec codec(c.cfg);
      IoPipeline pipeline(codec, {.symbol_bytes = c.symbol, .backend = iob});
      for (const std::uint64_t offset : {std::uint64_t{0}, std::uint64_t{bytes / 3}}) {
        std::vector<std::uint8_t> out(8192);
        const auto st = pipeline.read_range((dir.path / "store").string(), offset, out);
        ASSERT_TRUE(st.ok) << st.error;
        EXPECT_GE(st.degraded_stripes, 1u);
        EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin() + offset));
      }
    }
  }
}

// --- raw-device layout edge cases -------------------------------------------

// Symbol sizes with no alignment to speak of (1000 = 8·125, not sector-sized)
// force the padded layout to earn its keep: chunk rows of 4000 bytes pad to
// 4096, every transfer is still block-aligned, and the tail sectors of a
// non-multiple input survive the round trip. Also the odd-symbol fallback for
// the zero-copy scrub path, so both pipelines see this shape.
TEST(RawDeviceLayout, OddSymbolSizesAndTailSectorsRoundTrip) {
  const StoreCase c{{.n = 6, .r = 4, .m = 1, .e = {1, 2}, .w = 8}, 1000};
  const std::size_t bytes = 37 * 1000 + 123;  // ragged tail in the last stripe
  for (io::Backend iob : io_backends()) {
    SCOPED_TRACE(io::backend_name(iob));
    TempDir dir("oddsym");
    const auto data = encode_store(dir, c, bytes, 41,
                                   {.direct = true, .backend = iob});

    const auto store = StripeStore::load((dir.path / "store").string());
    EXPECT_EQ(store.block_bytes, 4096u);
    EXPECT_EQ(store.chunk_bytes(), 4000u);
    EXPECT_EQ(store.padded_chunk_bytes(), 4096u);
    // Device files are padded-stride long, not chunk-stride long.
    EXPECT_EQ(fs::file_size(dev_path(dir, 0)),
              store.stripes * store.padded_chunk_bytes());

    const auto dec = decode_store(dir, c, {.direct = true, .backend = iob});
    ASSERT_TRUE(dec.ok) << dec.error;
    EXPECT_EQ(read_all(dir.path / "output.bin"), data);

    // Tail sectors through the ranged path: the last 100 bytes live in a
    // partially-filled final stripe whose aligned read window is clamped to
    // the padded chunk.
    Codec codec(c.cfg);
    IoPipeline pipeline(codec, {.symbol_bytes = c.symbol, .direct = true,
                                .backend = iob});
    std::vector<std::uint8_t> out(100);
    const auto st =
        pipeline.read_range((dir.path / "store").string(), bytes - 100, out);
    ASSERT_TRUE(st.ok) << st.error;
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.end() - 100));
  }
}

// Stores written before the layout carried a block size have no `block`
// manifest line; they must load as block 1 (unpadded) and decode byte-exact.
TEST(RawDeviceLayout, LegacyManifestWithoutBlockLineLoadsUnpadded) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("legacy");
  const auto data = encode_store(dir, c, 30 * 1000, 42, {.direct = false});

  // A buffered-mode store is unpadded, so dropping the line leaves a valid
  // pre-raw-IO manifest rather than a lying one.
  patch_manifest(dir, "\nblock 1", "");
  const auto store = StripeStore::load((dir.path / "store").string());
  EXPECT_EQ(store.block_bytes, 1u);
  EXPECT_EQ(store.padded_chunk_bytes(), store.chunk_bytes());

  // Decoding with direct *requested* must not try to impose the padded
  // layout on a legacy store — block 1 keeps every open buffered.
  const auto dec = decode_store(dir, c, {.direct = true});
  ASSERT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(read_all(dir.path / "output.bin"), data);
}

// A filesystem that refuses O_DIRECT must not change a single stored byte:
// the layout follows the *request*, the opens quietly fall back to buffered.
// FaultInjectingEngine::set_reject_direct is the deterministic stand-in for
// such a filesystem (tmpfs on modern kernels accepts O_DIRECT).
TEST(RawDeviceLayout, RejectedDirectFallsBackToBufferedByteIdentically) {
  const StoreCase c = fault_cases()[1];
  for (io::Backend iob : io_backends()) {
    SCOPED_TRACE(io::backend_name(iob));
    TempDir dir_direct("rejdir_a");
    TempDir dir_reject("rejdir_b");

    encode_store(dir_direct, c, 60 * 1000, 43, {.direct = true, .backend = iob});

    auto injected = std::make_unique<io::FaultInjectingEngine>(
        io::Engine::create(iob, {}));
    injected->set_reject_direct(true);
    encode_store(dir_reject, c, 60 * 1000, 43,
                 {.direct = true, .engine = injected.get()});
    EXPECT_EQ(injected->stats().direct_opens, 0u)
        << "reject_direct must keep O_DIRECT away from the inner engine";

    for (std::size_t j = 0; j < c.cfg.n; ++j)
      EXPECT_EQ(read_all(dev_path(dir_reject, j)), read_all(dev_path(dir_direct, j)))
          << "device " << j;
    EXPECT_EQ(read_all(dir_reject.path / "store" / "manifest.txt"),
              read_all(dir_direct.path / "store" / "manifest.txt"));

    // And the fallback store decodes like any other.
    const auto dec = decode_store(dir_reject, c, {.engine = injected.get()});
    ASSERT_TRUE(dec.ok) << dec.error;
  }
}

// fixed_buffers off vs on is a pure transport switch: same bytes on disk,
// different submission path. On uring the fixed path must actually engage
// (fixed ops counted, zero fallbacks) when the registered pool covers the
// ring; with registration disabled every transfer is a counted fallback.
TEST(RawDeviceLayout, FixedBufferSwitchIsByteIdenticalAndObservable) {
  const StoreCase c = fault_cases()[0];
  for (io::Backend iob : io_backends()) {
    SCOPED_TRACE(io::backend_name(iob));
    TempDir dir_fixed("fixed_a");
    TempDir dir_plain("fixed_b");

    Codec codec(c.cfg);
    IoPipeline fixed_pipe(codec, {.symbol_bytes = c.symbol, .direct = true,
                                  .fixed_buffers = true, .backend = iob});
    IoPipeline plain_pipe(codec, {.symbol_bytes = c.symbol, .direct = true,
                                  .fixed_buffers = false, .backend = iob});

    const auto input_a = write_random_file(dir_fixed.path / "input.bin", 50 * 1000, 44);
    const auto input_b = write_random_file(dir_plain.path / "input.bin", 50 * 1000, 44);
    ASSERT_EQ(input_a, input_b);
    ASSERT_TRUE(fixed_pipe.encode_file((dir_fixed.path / "input.bin").string(),
                                       (dir_fixed.path / "store").string()).ok);
    ASSERT_TRUE(plain_pipe.encode_file((dir_plain.path / "input.bin").string(),
                                       (dir_plain.path / "store").string()).ok);

    for (std::size_t j = 0; j < c.cfg.n; ++j)
      EXPECT_EQ(read_all(StripeStore::device_path((dir_fixed.path / "store").string(), j)),
                read_all(StripeStore::device_path((dir_plain.path / "store").string(), j)))
          << "device " << j;

    const auto fixed_stats = fixed_pipe.engine().stats();
    const auto plain_stats = plain_pipe.engine().stats();
    if (iob == io::Backend::kUring) {
      EXPECT_TRUE(fixed_pipe.fixed_buffers_active());
      EXPECT_GT(fixed_stats.fixed_writes, 0u);
      EXPECT_EQ(fixed_stats.fixed_fallbacks, 0u);
    }
    EXPECT_FALSE(plain_pipe.fixed_buffers_active());
    EXPECT_EQ(plain_stats.fixed_writes, 0u);
  }
}

}  // namespace
}  // namespace stair
