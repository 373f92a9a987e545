// Scrub + rolling-repair battery: detect→repair→re-verify round trips that
// restore stores byte-identically (flipped sectors, vanished devices, torn
// chunk writes), whole-device rebuild under its concurrency bound with
// ranged degraded reads served concurrently, phase-scoped fault plans that
// hit scrub IO while foreground traffic stays healthy, pacing (token bucket
// + idle-slot gate), the battery around the manifest as recovery point
// (scrub and rebuild leave it and the checksum journal untouched), scrubbing
// a version-1 store, and the races TSan watches: scrub vs foreground reads,
// scrub vs rewrite, repair vs scrub.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "gf/kernel.h"
#include "stair/io_pipeline.h"
#include "stair/scrub_repair.h"
#include "stair/service.h"
#include "util/rng.h"
#include "v1_store.h"

namespace stair {
namespace {

namespace fs = std::filesystem;

// --- plumbing (the io_pipeline_test battery's idiom) ------------------------

struct TempDir {
  fs::path path;

  explicit TempDir(const std::string& hint) {
    path = fs::temp_directory_path() /
           ("stair_scrub_test_" + hint + "_" + std::to_string(::getpid()));
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

std::vector<std::uint8_t> encode_store(const TempDir& dir, const StoreCase& c,
                                       std::size_t bytes, std::uint64_t seed,
                                       IoPipeline::Options opts = {}) {
  const auto data = write_random_file(dir.path / "input.bin", bytes, seed);
  Codec codec(c.cfg);
  opts.symbol_bytes = c.symbol;
  IoPipeline pipeline(codec, opts);
  const auto st = pipeline.encode_file((dir.path / "input.bin").string(),
                                       (dir.path / "store").string());
  EXPECT_TRUE(st.ok) << st.error;
  return data;
}

std::string store_dir(const TempDir& dir) { return (dir.path / "store").string(); }

std::string dev_path(const TempDir& dir, std::size_t j) {
  return StripeStore::device_path(store_dir(dir), j);
}

/// Every device file's bytes, for byte-identical-store comparisons.
std::vector<std::vector<std::uint8_t>> device_contents(const TempDir& dir,
                                                       std::size_t n) {
  std::vector<std::vector<std::uint8_t>> all;
  for (std::size_t j = 0; j < n; ++j) all.push_back(read_all(dev_path(dir, j)));
  return all;
}

IoPipeline::Stats decode_store(const TempDir& dir, const StoreCase& c) {
  Codec codec(c.cfg);
  IoPipeline pipeline(codec, {.symbol_bytes = c.symbol});
  return pipeline.decode_file(store_dir(dir), (dir.path / "output.bin").string());
}

// --- scrub: detect, repair, re-verify ---------------------------------------

TEST(ScrubRepairTest, CleanStoreScrubsQuietly) {
  for (io::Backend backend : io_backends()) {
    const StoreCase c = fault_cases()[0];
    TempDir dir("clean");
    encode_store(dir, c, 64 * 1024, 41);

    Codec codec(c.cfg);
    Scrubber scrubber(codec, {.backend = backend});
    const ScrubReport rep = scrubber.scrub(store_dir(dir));
    EXPECT_TRUE(rep.ok) << rep.error;
    EXPECT_TRUE(rep.completed);
    EXPECT_EQ(rep.stripes_scanned, rep.stripes);
    EXPECT_GT(rep.stripes, 0u);
    EXPECT_EQ(rep.sectors_corrupt, 0u);
    EXPECT_EQ(rep.chunks_missing, 0u);
    EXPECT_EQ(rep.sectors_repaired, 0u);
    EXPECT_EQ(rep.bytes_written, 0u);
  }
}

// The acceptance round trip: scrub→detect→sector-repair→re-verify leaves the
// store byte-identical to the clean one, across config coverage shapes and
// IO backends (CI's backend matrix adds the GF dimension on top).
// The acceptance round trip: scrub -> detect -> sector repair -> re-verify,
// byte-identical to the pre-corruption store, across GF backend x IO backend
// x coverage shape.
TEST(ScrubRepairTest, RepairsFlippedSectorsByteIdentically) {
  struct DispatchGuard {
    ~DispatchGuard() { gf::reset_backend(); }
  } guard;

  for (gf::Backend gfb : {gf::Backend::kScalar, gf::Backend::kSsse3,
                          gf::Backend::kAvx2, gf::Backend::kGfni,
                          gf::Backend::kAvx512}) {
    if (!gf::backend_supported(gfb)) continue;
    ASSERT_TRUE(gf::force_backend(gfb));
    for (io::Backend backend : io_backends()) {
      for (const StoreCase& c : fault_cases()) {
        SCOPED_TRACE(std::string(gf::backend_name(gfb)) + "/" +
                     io::backend_name(backend) + "/" + c.cfg.to_string());
        TempDir dir("flip");
        encode_store(dir, c, 48 * 1024, 42);
        const auto clean = device_contents(dir, c.cfg.n);

        // In-coverage damage: one sector on one device, two on another
        // stripe's other device (every case has e_max >= 2 and m >= 1).
        // Stride from the manifest: padded when the store is direct-mode.
        const auto store = StripeStore::load(store_dir(dir));
        flip_bytes(dev_path(dir, 1), store.chunk_offset(0) + 0 * c.symbol, c.symbol);
        flip_bytes(dev_path(dir, 3), store.chunk_offset(1) + 2 * c.symbol, 32);

        Codec codec(c.cfg);
        Scrubber scrubber(codec, {.backend = backend});
        const ScrubReport rep = scrubber.scrub(store_dir(dir));
        EXPECT_TRUE(rep.ok) << rep.error;
        EXPECT_EQ(rep.sectors_corrupt, 2u);
        EXPECT_EQ(rep.stripes_degraded, 2u);
        EXPECT_EQ(rep.sectors_repaired, 2u);
        EXPECT_EQ(rep.repair_failures, 0u);
        EXPECT_EQ(rep.stripes_unrecoverable, 0u);

        // Re-verify: a second pass finds nothing, and the store is
        // byte-identical to its pre-corruption self.
        const ScrubReport again = scrubber.scrub(store_dir(dir));
        EXPECT_TRUE(again.ok) << again.error;
        EXPECT_EQ(again.sectors_corrupt, 0u);
        EXPECT_EQ(again.sectors_repaired, 0u);
        EXPECT_EQ(device_contents(dir, c.cfg.n), clean);

        const auto dec = decode_store(dir, c);
        EXPECT_TRUE(dec.ok) << dec.error;
        EXPECT_EQ(dec.degraded_stripes, 0u);
      }
    }
  }
}

TEST(ScrubRepairTest, RepairsVanishedDeviceChunks) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("vanish");
  encode_store(dir, c, 32 * 1024, 43);
  const auto clean = device_contents(dir, c.cfg.n);
  fs::remove(dev_path(dir, 2));

  Codec codec(c.cfg);
  Scrubber scrubber(codec, {});
  const ScrubReport rep = scrubber.scrub(store_dir(dir));
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.chunks_missing, rep.stripes);
  EXPECT_EQ(rep.sectors_repaired, rep.stripes * c.cfg.r);
  EXPECT_EQ(device_contents(dir, c.cfg.n), clean);

  const ScrubReport again = scrubber.scrub(store_dir(dir));
  EXPECT_EQ(again.chunks_missing, 0u);
  EXPECT_EQ(again.sectors_corrupt, 0u);
}

TEST(ScrubRepairTest, DetectOnlyScrubWritesNothing) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("detect");
  encode_store(dir, c, 32 * 1024, 44);
  flip_bytes(dev_path(dir, 1), 0, c.symbol);
  const auto damaged = device_contents(dir, c.cfg.n);

  Codec codec(c.cfg);
  Scrubber scrubber(codec, {.repair = false});
  const ScrubReport rep = scrubber.scrub(store_dir(dir));
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.sectors_corrupt, 1u);
  EXPECT_EQ(rep.sectors_repaired, 0u);
  EXPECT_EQ(rep.bytes_written, 0u);
  EXPECT_EQ(device_contents(dir, c.cfg.n), damaged);  // untouched
}

TEST(ScrubRepairTest, DamageBeyondCoverageCountedNotRepaired) {
  const StoreCase c = fault_cases()[0];  // m=1, e={1,2}
  TempDir dir("beyond");
  encode_store(dir, c, 32 * 1024, 45);

  // Stripe 0: damage on 4 devices — beyond m=1 devices + m'=2 sector
  // columns. Stripe 1: one in-coverage sector, which must still be fixed.
  const auto store = StripeStore::load(store_dir(dir));
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < c.cfg.r; ++i)
      flip_bytes(dev_path(dir, j), i * c.symbol, 16);
  flip_bytes(dev_path(dir, 5), store.chunk_offset(1), c.symbol);

  Codec codec(c.cfg);
  Scrubber scrubber(codec, {});
  const ScrubReport rep = scrubber.scrub(store_dir(dir));
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.stripes_unrecoverable, 1u);
  EXPECT_GE(rep.sectors_repaired, 1u);

  const ScrubReport again = scrubber.scrub(store_dir(dir));
  EXPECT_EQ(again.stripes_unrecoverable, 1u);  // still there, still counted
  EXPECT_EQ(again.stripes_degraded, 1u);       // but stripe 1 is healed
}

TEST(ScrubRepairTest, MismatchedCodecConfigRefusesCleanly) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("mismatch");
  encode_store(dir, c, 16 * 1024, 46);

  Codec codec(fault_cases()[1].cfg);
  Scrubber scrubber(codec, {});
  const ScrubReport rep = scrubber.scrub(store_dir(dir));
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("does not match"), std::string::npos) << rep.error;
}

// --- whole-device rebuild ----------------------------------------------------

TEST(ScrubRepairTest, RebuildsDeviceUnderConcurrencyBound) {
  for (io::Backend backend : io_backends()) {
    const StoreCase c = fault_cases()[1];
    TempDir dir("rebuild");
    encode_store(dir, c, 96 * 1024, 47);
    const auto clean = device_contents(dir, c.cfg.n);
    fs::remove(dev_path(dir, 3));

    Codec codec(c.cfg);
    Scrubber scrubber(codec, {.stripes_in_flight = 3, .backend = backend});
    const ScrubReport rep = scrubber.rebuild_device(store_dir(dir), 3);
    EXPECT_TRUE(rep.ok) << rep.error;
    EXPECT_TRUE(rep.completed);
    EXPECT_EQ(rep.sectors_repaired, rep.stripes * c.cfg.r);
    EXPECT_LE(scrubber.slots_created(), 3u);  // the concurrency bound held
    EXPECT_EQ(device_contents(dir, c.cfg.n), clean);

    const auto dec = decode_store(dir, c);
    EXPECT_TRUE(dec.ok) << dec.error;
    EXPECT_EQ(dec.degraded_stripes, 0u);
  }
}

TEST(ScrubRepairTest, RebuildRepairsSurvivorDamageOnTheWay) {
  const StoreCase c = fault_cases()[1];  // m=2: survivor sector + lost device
  TempDir dir("rebuild_survivor");
  encode_store(dir, c, 48 * 1024, 48);
  const auto clean = device_contents(dir, c.cfg.n);
  fs::remove(dev_path(dir, 0));
  flip_bytes(dev_path(dir, 4), 2 * c.symbol, 64);  // stripe 0, row 2

  Codec codec(c.cfg);
  Scrubber scrubber(codec, {});
  const ScrubReport rep = scrubber.rebuild_device(store_dir(dir), 0);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.sectors_corrupt, 1u);
  EXPECT_EQ(rep.sectors_repaired, rep.stripes * c.cfg.r + 1);
  EXPECT_EQ(device_contents(dir, c.cfg.n), clean);
}

TEST(ScrubRepairTest, RangedReadsServedDuringRebuild) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("read_during_rebuild");
  const std::size_t bytes = 192 * 1024;
  const auto data = encode_store(dir, c, bytes, 49);
  fs::remove(dev_path(dir, 1));

  Codec codec(c.cfg);
  IoPipeline pipeline(codec, {.symbol_bytes = c.symbol});
  Scrubber scrubber(codec, {.stripes_in_flight = 2});

  std::atomic<bool> rebuilding{true};
  ScrubReport rep;
  std::thread rebuilder([&] {
    rep = scrubber.rebuild_device(store_dir(dir), 1);
    rebuilding.store(false);
  });

  // Foreground: ranged reads land byte-exact the whole time — served from
  // healthy sectors where possible, through the degraded-read schedule
  // slice where the rebuilding device (or its half-written chunk) is hit.
  Rng rng(7);
  std::size_t reads = 0;
  do {
    const std::size_t len = 1 + rng.next_below(3 * c.symbol);
    const std::size_t off = rng.next_below(bytes - len);
    std::vector<std::uint8_t> out(len);
    const auto st = pipeline.read_range(store_dir(dir), off, out);
    ASSERT_TRUE(st.ok) << st.error;
    ASSERT_TRUE(std::equal(out.begin(), out.end(), data.begin() + off));
    ++reads;
  } while (rebuilding.load() || reads < 16);
  rebuilder.join();
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_GE(reads, 16u);
}

// --- pacing ------------------------------------------------------------------

TEST(ScrubRepairTest, TokenBucketPacesThePass) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("paced");
  encode_store(dir, c, 96 * 1024, 50);

  const StripeStore store = StripeStore::load(store_dir(dir));
  const double store_bytes =
      static_cast<double>(store.stripes * store.cfg.n * store.chunk_bytes());
  // A rate sized so the pass takes ~150 ms beyond its burst.
  const double mbps = (store_bytes / (1024.0 * 1024.0)) / 0.15;

  Codec codec(c.cfg);
  Scrubber scrubber(codec,
                    {.rate_mbps = mbps, .burst_bytes = 0.0, .yield_to_foreground = false});
  const auto t0 = std::chrono::steady_clock::now();
  const ScrubReport rep = scrubber.scrub(store_dir(dir));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_GT(rep.throttle_stalls, 0u);
  EXPECT_GE(std::chrono::duration<double>(elapsed).count(), 0.08);
}

TEST(ScrubRepairTest, IdleSlotGateHoldsWhileForegroundBusy) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("gated");
  encode_store(dir, c, 32 * 1024, 51);

  Codec codec(c.cfg);
  std::atomic<int> busy_polls{0};
  ScrubOptions opts;
  opts.max_stall = std::chrono::milliseconds(50);
  // Report "busy" for the first few polls, then idle: the gate must have
  // held (stall counted) and then released well before max_stall forced it.
  opts.hold = [&busy_polls] { return busy_polls.fetch_add(1) < 5; };
  Scrubber scrubber(codec, opts);
  const ScrubReport rep = scrubber.scrub(store_dir(dir));
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_GT(rep.throttle_stalls, 0u);
  EXPECT_GT(busy_polls.load(), 5);
}

// --- phase-scoped fault plans ------------------------------------------------

TEST(ScrubRepairTest, ScrubPhaseFaultHitsScrubNotForeground) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("phase");
  encode_store(dir, c, 32 * 1024, 52);

  io::FaultInjectingEngine eng(io::Engine::create(io::Backend::kThreads));
  // Every scrub-phase read of device 1 dies; foreground reads of the same
  // bytes pass through clean.
  eng.add_fault({.kind = io::Fault::Kind::kReadError,
                 .file = "dev_01.bin",
                 .phase = io::IoPhase::kScrub});

  Codec codec(c.cfg);
  IoPipeline pipeline(codec, {.symbol_bytes = c.symbol, .engine = &eng});
  Scrubber scrubber(codec, {.repair = false, .engine = &eng});

  const ScrubReport rep = scrubber.scrub(store_dir(dir));
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.chunks_missing, rep.stripes);  // scrub saw the fault...
  EXPECT_GT(eng.hits(), 0u);

  const auto dec = pipeline.decode_file(store_dir(dir), (dir.path / "out.bin").string());
  EXPECT_TRUE(dec.ok) << dec.error;  // ...foreground never did
  EXPECT_EQ(dec.chunks_missing, 0u);
  EXPECT_EQ(dec.degraded_stripes, 0u);

  std::vector<std::uint8_t> out(1024);
  const auto rr = pipeline.read_range(store_dir(dir), 0, out);
  EXPECT_TRUE(rr.ok) << rr.error;
  EXPECT_EQ(rr.degraded_stripes, 0u);
}

TEST(ScrubRepairTest, RepairPhaseFaultSurfacesAsRepairFailure) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("repair_fault");
  encode_store(dir, c, 32 * 1024, 53);
  flip_bytes(dev_path(dir, 1), 0, c.symbol);

  io::FaultInjectingEngine eng(io::Engine::create(io::Backend::kThreads));
  eng.add_fault({.kind = io::Fault::Kind::kWriteError,
                 .file = "dev_01.bin",
                 .phase = io::IoPhase::kRepair});

  Codec codec(c.cfg);
  Scrubber scrubber(codec, {.engine = &eng});
  const ScrubReport rep = scrubber.scrub(store_dir(dir));
  EXPECT_TRUE(rep.ok) << rep.error;  // a failed repair is counted, not fatal
  EXPECT_EQ(rep.sectors_corrupt, 1u);
  EXPECT_EQ(rep.sectors_repaired, 0u);
  EXPECT_GE(rep.repair_failures, 1u);
  EXPECT_GT(eng.hits(), 0u);
}

// --- power-cut battery -------------------------------------------------------

TEST(ScrubRepairTest, TornChunkWriteRecoveredByScrub) {
  for (const StoreCase& c : fault_cases()) {
    TempDir dir("torn_chunk");
    // Power cut mid-chunk-write during encode: the write REPORTS success but
    // only a prefix landed. The manifest (written after data drains) is the
    // recovery point; scrub finds the lie and repairs it.
    auto inner = io::Engine::create(io::Backend::kThreads);
    io::FaultInjectingEngine eng(std::move(inner));
    eng.add_fault({.kind = io::Fault::Kind::kTornWrite,
                   .file = "dev_02.bin",
                   .offset = 0,
                   .length = c.cfg.r * c.symbol,
                   .keep_bytes = c.symbol + 17,
                   .once = true});

    const auto data = write_random_file(dir.path / "input.bin", 64 * 1024, 54);
    Codec codec(c.cfg);
    IoPipeline pipeline(codec, {.symbol_bytes = c.symbol, .engine = &eng});
    const auto enc = pipeline.encode_file((dir.path / "input.bin").string(), store_dir(dir));
    ASSERT_TRUE(enc.ok) << enc.error;
    ASSERT_EQ(eng.hits(), 1u);

    Scrubber scrubber(codec, {.engine = &eng});
    const ScrubReport rep = scrubber.scrub(store_dir(dir));
    EXPECT_TRUE(rep.ok) << rep.error;
    EXPECT_GT(rep.sectors_corrupt, 0u);
    EXPECT_EQ(rep.sectors_repaired, rep.sectors_corrupt);

    const auto dec = decode_store(dir, c);
    EXPECT_TRUE(dec.ok) << dec.error;
    EXPECT_EQ(dec.degraded_stripes, 0u);
    EXPECT_EQ(read_all(dir.path / "output.bin"), data);
  }
}

TEST(ScrubRepairTest, TornManifestTmpLeavesRecoveryPointIntact) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("torn_manifest");
  const auto data = encode_store(dir, c, 32 * 1024, 55);

  // Power cut mid-manifest-save: save() writes aside and renames, so a torn
  // temp file is debris, never the manifest. Simulate the debris.
  std::ofstream torn(store_dir(dir) + "/manifest.txt.tmp0.1", std::ios::trunc);
  torn << "stair_store 1\nn 6\nr 4\nm";  // cut mid-write
  torn.close();

  EXPECT_NO_THROW(StripeStore::load(store_dir(dir)));
  const auto dec = decode_store(dir, c);
  EXPECT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(read_all(dir.path / "output.bin"), data);

  // And a fresh save replaces the manifest atomically: still loadable, no
  // half-written state observable before the rename.
  StripeStore store = StripeStore::load(store_dir(dir));
  EXPECT_NO_THROW(store.save(store_dir(dir)));
  EXPECT_NO_THROW(StripeStore::load(store_dir(dir)));
}

TEST(ScrubRepairTest, TruncatedManifestFailsScrubCleanly) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("trunc_manifest");
  encode_store(dir, c, 32 * 1024, 56);

  const auto manifest = read_all(StripeStore::manifest_path(store_dir(dir)));
  std::ofstream out(StripeStore::manifest_path(store_dir(dir)),
                    std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(manifest.data()),
            static_cast<std::streamsize>(manifest.size() / 2));
  out.close();

  Codec codec(c.cfg);
  Scrubber scrubber(codec, {});
  const ScrubReport rep = scrubber.scrub(store_dir(dir));
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("manifest"), std::string::npos) << rep.error;
  EXPECT_EQ(rep.stripes_scanned, 0u);
  EXPECT_EQ(rep.bytes_written, 0u);  // a scrubber without a manifest writes nothing
}

// A repair restores manifest-proven bytes, so neither scrub nor rebuild may
// write metadata: a re-save of the pass-start snapshot would clobber what a
// live node commits meanwhile. The store here carries journal records (a
// copy taken while a StorageNode ran), which such a re-save would fold into
// manifest.txt.
TEST(ScrubRepairTest, RepairAndRebuildLeaveTheManifestFilesUntouched) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("meta_node");
  auto data = encode_store(dir, c, 48 * 1024, 61);
  TempDir crashed("meta_copy");
  {
    Codec codec(c.cfg);
    StorageNode node(codec, store_dir(dir), {.tenants = 1, .workers = 2});
    node.start();
    const std::size_t stripe_data = node.stripe_data_bytes();
    Rng rng(62);
    for (const std::size_t s : {std::size_t{0}, std::size_t{1}}) {
      std::vector<std::uint8_t> fresh(stripe_data);
      rng.fill(fresh);
      Request w;
      w.type = RequestType::kWrite;
      w.stripe = s;
      w.data = fresh;
      const Response r = node.submit(w).wait();
      ASSERT_TRUE(r.ok) << r.error;
      std::memcpy(data.data() + s * stripe_data, fresh.data(), stripe_data);
    }
    fs::copy(store_dir(dir), store_dir(crashed), fs::copy_options::recursive);
  }
  const fs::path snapshot = StripeStore::manifest_path(store_dir(crashed));
  const fs::path journal = StripeStore::journal_path(store_dir(crashed));
  const auto snapshot_bytes = read_all(snapshot), journal_bytes = read_all(journal);
  ASSERT_FALSE(journal_bytes.empty());

  const StripeStore store = StripeStore::load(store_dir(crashed));
  flip_bytes(dev_path(crashed, 1), store.chunk_offset(0), c.symbol);
  flip_bytes(dev_path(crashed, 4), store.chunk_offset(1) + c.symbol, 32);
  Codec codec(c.cfg);
  Scrubber scrubber(codec, {});
  const ScrubReport rep = scrubber.scrub(store_dir(crashed));
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.sectors_repaired, 2u);
  EXPECT_EQ(read_all(snapshot), snapshot_bytes);
  EXPECT_EQ(read_all(journal), journal_bytes);

  fs::remove(dev_path(crashed, 3));
  const ScrubReport rebuilt = scrubber.rebuild_device(store_dir(crashed), 3);
  EXPECT_TRUE(rebuilt.ok) << rebuilt.error;
  EXPECT_TRUE(rebuilt.completed);
  EXPECT_EQ(read_all(snapshot), snapshot_bytes);
  EXPECT_EQ(read_all(journal), journal_bytes);

  const auto dec = decode_store(crashed, c);
  ASSERT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(dec.degraded_stripes, 0u);
  EXPECT_EQ(read_all(crashed.path / "output.bin"), data);
}

// A version-1 store is scrubbed against its version-1 checksums: one
// flipped byte is found and repaired, and the manifest stays version 1.
TEST(ScrubRepairTest, V1StoreScrubFindsAndRepairsAFlippedByte) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("v1");
  const auto data = encode_store(dir, c, 48 * 1024, 63);
  downgrade_to_v1(store_dir(dir));
  const auto clean = device_contents(dir, c.cfg.n);
  const auto manifest = read_all(StripeStore::manifest_path(store_dir(dir)));

  const StripeStore store = StripeStore::load(store_dir(dir));
  ASSERT_EQ(store.version, 1);
  flip_bytes(dev_path(dir, 2), store.chunk_offset(1) + c.symbol + 5, 1);

  Codec codec(c.cfg);
  Scrubber scrubber(codec, {});
  const ScrubReport rep = scrubber.scrub(store_dir(dir));
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.sectors_corrupt, 1u);
  EXPECT_EQ(rep.sectors_repaired, 1u);
  EXPECT_EQ(rep.stripes_unrecoverable, 0u);
  const ScrubReport again = scrubber.scrub(store_dir(dir));
  EXPECT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.sectors_corrupt, 0u);
  EXPECT_EQ(device_contents(dir, c.cfg.n), clean);
  EXPECT_EQ(read_all(StripeStore::manifest_path(store_dir(dir))), manifest);

  const auto dec = decode_store(dir, c);
  ASSERT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(dec.degraded_stripes, 0u);
  EXPECT_EQ(read_all(dir.path / "output.bin"), data);
}

// --- races (the TSan battery) ------------------------------------------------

TEST(ScrubRepairTest, BackgroundScrubRacesForegroundReads) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("race_reads");
  const std::size_t bytes = 96 * 1024;
  const auto data = encode_store(dir, c, bytes, 57);
  // Standing corruption so repair writes genuinely race the reads.
  flip_bytes(dev_path(dir, 1), 0, c.symbol);
  flip_bytes(dev_path(dir, 4), 3 * c.symbol, 64);

  Codec codec(c.cfg);
  IoPipeline pipeline(codec, {.symbol_bytes = c.symbol});
  Scrubber scrubber(codec, {.stripes_in_flight = 2});
  scrubber.start(store_dir(dir), std::chrono::milliseconds(1));

  // Repair writes restore exactly the original bytes, so every ranged read
  // must come back byte-exact no matter how the race interleaves: a torn
  // observation fails its checksum and re-resolves through the decode slice.
  Rng rng(9);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t len = 1 + rng.next_below(2 * c.symbol);
    const std::size_t off = rng.next_below(bytes - len);
    std::vector<std::uint8_t> out(len);
    const auto st = pipeline.read_range(store_dir(dir), off, out);
    ASSERT_TRUE(st.ok) << st.error;
    ASSERT_TRUE(std::equal(out.begin(), out.end(), data.begin() + off));
  }
  const ScrubReport rep = scrubber.stop();
  EXPECT_TRUE(rep.ok) << rep.error;

  const ScrubReport final_pass = Scrubber(codec, {}).scrub(store_dir(dir));
  EXPECT_TRUE(final_pass.ok) << final_pass.error;
  EXPECT_EQ(final_pass.sectors_corrupt, 0u);  // the background loop healed it
}

TEST(ScrubRepairTest, DetectOnlyScrubRacesStoreRewrite) {
  const StoreCase c = fault_cases()[0];
  TempDir dir("race_rewrite");
  encode_store(dir, c, 64 * 1024, 58);

  Codec codec(c.cfg);
  // Detect-only: the scrubber may observe half-rewritten stripes (counted
  // as corrupt/unrecoverable, that's honest) but must never write, so the
  // foreground rewrite always wins.
  Scrubber scrubber(codec, {.repair = false});
  scrubber.start(store_dir(dir), std::chrono::milliseconds(0));

  IoPipeline pipeline(codec, {.symbol_bytes = c.symbol});
  const auto fresh = write_random_file(dir.path / "input2.bin", 64 * 1024, 59);
  for (int iter = 0; iter < 3; ++iter) {
    const auto enc =
        pipeline.encode_file((dir.path / "input2.bin").string(), store_dir(dir));
    ASSERT_TRUE(enc.ok) << enc.error;
  }
  scrubber.stop();

  const auto dec = decode_store(dir, c);
  EXPECT_TRUE(dec.ok) << dec.error;
  EXPECT_EQ(read_all(dir.path / "output.bin"), fresh);
}

TEST(ScrubRepairTest, RepairRacesScrubOnTheSameStore) {
  const StoreCase c = fault_cases()[1];
  TempDir dir("race_repair");
  encode_store(dir, c, 64 * 1024, 60);
  const auto clean = device_contents(dir, c.cfg.n);
  const auto store = StripeStore::load(store_dir(dir));
  flip_bytes(dev_path(dir, 2), 0, c.symbol);
  flip_bytes(dev_path(dir, 5), store.chunk_offset(1) + c.symbol, 48);

  // Two scrubbers, one repairing and one scanning, race over the same
  // store. Repair writes are manifest-proven bytes, so the worst the
  // scanner can see is old-vs-new — both checksum-resolvable states.
  Codec codec(c.cfg);
  Scrubber repairer(codec, {.stripes_in_flight = 2});
  Scrubber scanner(codec, {.repair = false});
  scanner.start(store_dir(dir), std::chrono::milliseconds(0));
  ScrubReport rep;
  for (int pass = 0; pass < 3; ++pass) rep.accumulate(repairer.scrub(store_dir(dir)));
  scanner.stop();

  EXPECT_TRUE(rep.error.empty()) << rep.error;
  EXPECT_EQ(device_contents(dir, c.cfg.n), clean);
  const ScrubReport final_pass = Scrubber(codec, {}).scrub(store_dir(dir));
  EXPECT_EQ(final_pass.sectors_corrupt, 0u);
  EXPECT_EQ(final_pass.chunks_missing, 0u);
}

}  // namespace
}  // namespace stair
