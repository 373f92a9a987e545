// StorageNode battery: the service layer's contracts under contention.
// Round trips through submit() across tenants and classes, write-path
// persistence (manifest refresh, drain/restart byte-identity, decode_file
// agreement), the checksum journal (crash-copy recovery, compaction bound,
// fixed record size, version-1 stores), admission control (fail-fast
// rejects, bounded queues under flood), multi-tenant fairness (a flooding
// tenant cannot starve another's reads), priority (queued reads dispatch
// ahead of queued scans), degraded serving during device loss,
// scrub-while-serving integration, and the TSan-watched races: concurrent
// submitters, reader-vs-writer on one stripe, stats() vs everything.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "stair/io_pipeline.h"
#include "stair/service.h"
#include "util/rng.h"
#include "v1_store.h"

namespace stair {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;

  explicit TempDir(const std::string& hint) {
    path = fs::temp_directory_path() /
           ("stair_service_test_" + hint + "_" + std::to_string(::getpid()));
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

const StairConfig kCfg{.n = 6, .r = 4, .m = 1, .e = {1, 2}, .w = 8};
constexpr std::size_t kSymbol = 512;

std::string store_dir(const TempDir& dir) { return (dir.path / "store").string(); }

/// Encodes `bytes` of random data into dir/store; returns the plaintext.
std::vector<std::uint8_t> encode_store(const TempDir& dir, std::size_t bytes,
                                       std::uint64_t seed) {
  const auto data = write_random_file(dir.path / "input.bin", bytes, seed);
  Codec codec(kCfg);
  IoPipeline pipeline(codec, {.symbol_bytes = kSymbol});
  const auto st = pipeline.encode_file((dir.path / "input.bin").string(), store_dir(dir));
  EXPECT_TRUE(st.ok) << st.error;
  return data;
}

Request read_req(std::size_t tenant, std::uint64_t offset, std::span<std::uint8_t> out,
                 RequestType type = RequestType::kRead) {
  Request r;
  r.type = type;
  r.tenant = tenant;
  r.offset = offset;
  r.out = out;
  return r;
}

Request write_req(std::size_t tenant, std::size_t stripe,
                  std::span<const std::uint8_t> data) {
  Request r;
  r.type = RequestType::kWrite;
  r.tenant = tenant;
  r.stripe = stripe;
  r.data = data;
  return r;
}

// --- round trips -------------------------------------------------------------

TEST(ServiceTest, ReadsRoundTripAcrossTenantsAndClasses) {
  TempDir dir("roundtrip");
  const auto data = encode_store(dir, 50'000, 1);

  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir), {.tenants = 3, .workers = 2});
  node.start();

  Rng rng(7);
  std::vector<std::vector<std::uint8_t>> bufs;
  std::vector<StorageNode::Future> futures;
  std::vector<std::uint64_t> offsets;
  for (int i = 0; i < 48; ++i) {
    const std::uint64_t off = rng.next_below(data.size());
    const std::size_t len =
        std::min<std::size_t>(1 + rng.next_below(4000), data.size() - off);
    bufs.emplace_back(len);
    offsets.push_back(off);
  }
  for (int i = 0; i < 48; ++i) {
    const auto type = (i % 3 == 2) ? RequestType::kScan : RequestType::kRead;
    futures.push_back(node.submit(read_req(i % 3, offsets[i], bufs[i], type)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response& r = futures[i].wait();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.rejected);
    EXPECT_EQ(r.bytes, bufs[i].size());
    EXPECT_EQ(0, std::memcmp(bufs[i].data(), data.data() + offsets[i], bufs[i].size()));
  }

  const auto st = node.stats();
  EXPECT_EQ(st.reads + st.scans, 48u);
  EXPECT_EQ(st.failed_requests, 0u);
  EXPECT_EQ(st.read_latency.count() + st.scan_latency.count(), 48u);
  EXPECT_GT(st.read_latency.percentile_nanos(99), 0u);
  node.stop();
}

TEST(ServiceTest, WriteUpdatesStoreAndManifest) {
  TempDir dir("write");
  auto data = encode_store(dir, 40'000, 2);

  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir), {.tenants = 2, .workers = 2});
  node.start();
  const std::size_t stripe_data = node.stripe_data_bytes();
  const std::size_t stripes = node.store().stripes;
  ASSERT_GE(stripes, 2u);

  // Rewrite stripe 1 and the (possibly short) tail stripe.
  Rng rng(9);
  for (const std::size_t s : {std::size_t{1}, stripes - 1}) {
    const std::size_t len = std::min(stripe_data, data.size() - s * stripe_data);
    std::vector<std::uint8_t> fresh(len);
    rng.fill(fresh);
    const Response r = node.submit(write_req(0, s, fresh)).wait();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.bytes, len);
    std::memcpy(data.data() + s * stripe_data, fresh.data(), len);
  }

  // Served reads see the new bytes immediately.
  std::vector<std::uint8_t> got(data.size());
  ASSERT_TRUE(node.submit(read_req(1, 0, got)).wait().ok);
  EXPECT_EQ(got, data);
  node.stop();

  // The re-saved manifest verifies end-to-end through a fresh decode.
  Codec codec2(kCfg);
  IoPipeline pipeline(codec2, {.symbol_bytes = kSymbol});
  const auto st = pipeline.decode_file(store_dir(dir), (dir.path / "out.bin").string());
  ASSERT_TRUE(st.ok) << st.error;
  std::ifstream in(dir.path / "out.bin", std::ios::binary);
  std::vector<std::uint8_t> decoded{std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>()};
  EXPECT_EQ(decoded, data);
}

TEST(ServiceTest, DrainRestartRoundTripsByteIdentically) {
  TempDir dir("restart");
  auto data = encode_store(dir, 30'000, 3);

  {
    Codec codec(kCfg);
    StorageNode node(codec, store_dir(dir), {.tenants = 2, .workers = 2});
    node.start();
    const std::size_t stripe_data = node.stripe_data_bytes();
    std::vector<std::uint8_t> fresh(std::min(stripe_data, data.size()));
    Rng(11).fill(fresh);
    ASSERT_TRUE(node.submit(write_req(0, 0, fresh)).wait().ok);
    std::memcpy(data.data(), fresh.data(), fresh.size());
    node.drain();
    // A drained node rejects new work but still answers stats.
    const Response r = node.submit(read_req(0, 0, fresh)).wait();
    EXPECT_TRUE(r.rejected);
    node.stop();
  }

  // A new node on the same directory serves the written bytes.
  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir), {.tenants = 1, .workers = 2});
  node.start();
  std::vector<std::uint8_t> got(data.size());
  const Response r = node.submit(read_req(0, 0, got)).wait();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(got, data);
  node.stop();
}

// --- checksum journal ---------------------------------------------------------

std::uintmax_t journal_size(const TempDir& dir) {
  return fs::file_size(StripeStore::journal_path(store_dir(dir)));
}

std::uintmax_t snapshot_size(const TempDir& dir) {
  return fs::file_size(StripeStore::manifest_path(store_dir(dir)));
}

std::vector<std::uint8_t> slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Acknowledged writes are in the journal, not only in the node's memory:
/// a copy of the directory taken while the node still runs (what a process
/// crash leaves behind) decodes to the new bytes.
TEST(ServiceJournal, AcknowledgedWritesSurviveAProcessCrash) {
  TempDir dir("crash");
  auto data = encode_store(dir, 40'000, 20);
  const auto snapshot = slurp(StripeStore::manifest_path(store_dir(dir)));

  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir), {.tenants = 1, .workers = 2});
  node.start();
  const std::size_t stripe_data = node.stripe_data_bytes();
  const std::size_t stripes = node.store().stripes;
  Rng rng(21);
  for (const std::size_t s : {std::size_t{0}, std::size_t{2}, stripes - 1}) {
    const std::size_t len = std::min(stripe_data, data.size() - s * stripe_data);
    std::vector<std::uint8_t> fresh(len);
    rng.fill(fresh);
    const Response r = node.submit(write_req(0, s, fresh)).wait();
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_TRUE(r.error.empty()) << r.error;
    std::memcpy(data.data() + s * stripe_data, fresh.data(), len);
  }
  // Three records and the untouched snapshot: the writes were committed
  // without a whole-manifest rewrite.
  EXPECT_EQ(journal_size(dir), 3 * node.store().journal_record_bytes());
  EXPECT_EQ(slurp(StripeStore::manifest_path(store_dir(dir))), snapshot);

  TempDir crashed("crash_copy");
  fs::copy(store_dir(dir), store_dir(crashed), fs::copy_options::recursive);
  node.stop();

  Codec codec2(kCfg);
  IoPipeline pipeline(codec2, {.symbol_bytes = kSymbol});
  const auto st =
      pipeline.decode_file(store_dir(crashed), (crashed.path / "out.bin").string());
  ASSERT_TRUE(st.ok) << st.error;
  EXPECT_EQ(st.degraded_stripes, 0u);
  EXPECT_EQ(slurp(crashed.path / "out.bin"), data);
}

/// Compaction keeps the journal below the snapshot's size plus one record,
/// and folding the journal into the snapshot changes nothing a load sees.
TEST(ServiceJournal, CompactionBoundsTheJournalAndPreservesTheStore) {
  TempDir dir("compact");
  auto data = encode_store(dir, 20'000, 22);  // 3 stripes: a small snapshot

  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir), {.tenants = 1, .workers = 2});
  node.start();
  const std::size_t stripe_data = node.stripe_data_bytes();
  const std::size_t stripes = node.store().stripes;
  const std::uintmax_t record = node.store().journal_record_bytes();
  Rng rng(23);
  std::size_t compactions = 0;
  std::uintmax_t last = journal_size(dir);
  for (std::size_t i = 0; i < 40; ++i) {
    const std::size_t s = i % stripes;
    const std::size_t len = std::min(stripe_data, data.size() - s * stripe_data);
    std::vector<std::uint8_t> fresh(len);
    rng.fill(fresh);
    const Response r = node.submit(write_req(0, s, fresh)).wait();
    ASSERT_TRUE(r.ok) << r.error;
    std::memcpy(data.data() + s * stripe_data, fresh.data(), len);
    const std::uintmax_t now = journal_size(dir);
    EXPECT_LE(now, snapshot_size(dir) + record) << "after write " << i;
    compactions += now < last;
    last = now;
  }
  EXPECT_GE(compactions, 2u);

  // Make sure the journal holds records, then compare a load before the
  // drain's compaction with one after it.
  std::vector<std::uint8_t> fresh(std::min(stripe_data, data.size()));
  rng.fill(fresh);
  ASSERT_TRUE(node.submit(write_req(0, 0, fresh)).wait().ok);
  std::memcpy(data.data(), fresh.data(), fresh.size());
  ASSERT_GT(journal_size(dir), 0u);
  const StripeStore before = StripeStore::load(store_dir(dir));
  node.drain();
  EXPECT_EQ(journal_size(dir), 0u);
  const StripeStore after = StripeStore::load(store_dir(dir));
  EXPECT_EQ(after.sector_checksums, before.sector_checksums);
  EXPECT_EQ(after.data_checksum, before.data_checksum);
  EXPECT_EQ(after.stripes, before.stripes);
  EXPECT_EQ(after.file_size, before.file_size);
  node.stop();

  Codec codec2(kCfg);
  IoPipeline pipeline(codec2, {.symbol_bytes = kSymbol});
  const auto st = pipeline.decode_file(store_dir(dir), (dir.path / "out.bin").string());
  ASSERT_TRUE(st.ok) << st.error;
  EXPECT_EQ(slurp(dir.path / "out.bin"), data);
}

/// One write appends one record whose size depends on the geometry only.
TEST(ServiceJournal, RecordSizeDoesNotGrowWithTheStore) {
  std::vector<std::uintmax_t> grew;
  for (const std::size_t bytes : {std::size_t{8'000}, std::size_t{400'000}}) {
    TempDir dir("record_" + std::to_string(bytes));
    const auto data = encode_store(dir, bytes, 24);
    Codec codec(kCfg);
    StorageNode node(codec, store_dir(dir), {.tenants = 1, .workers = 2});
    node.start();
    std::vector<std::uint8_t> fresh(std::min(node.stripe_data_bytes(), data.size()));
    Rng(25).fill(fresh);
    const std::uintmax_t before = journal_size(dir);
    ASSERT_TRUE(node.submit(write_req(0, 0, fresh)).wait().ok);
    grew.push_back(journal_size(dir) - before);
    EXPECT_EQ(grew.back(), node.store().journal_record_bytes());
    node.stop();
  }
  EXPECT_EQ(grew[0], grew[1]);
}

/// A version-1 store stays one: a node's writes append records sealed with
/// the version-1 hash, they replay when a node restarts on a copy taken
/// while the first still ran, and compaction writes `stair_store 1`.
TEST(ServiceJournal, V1StoreWritesReplayAndCompactAsV1) {
  TempDir dir("v1");
  auto data = encode_store(dir, 40'000, 26);
  downgrade_to_v1(store_dir(dir));

  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir), {.tenants = 1, .workers = 2});
  node.start();
  ASSERT_EQ(node.store().version, 1);
  const std::size_t stripe_data = node.stripe_data_bytes();
  const std::size_t stripes = node.store().stripes;
  Rng rng(27);
  for (const std::size_t s : {std::size_t{0}, stripes - 1}) {
    const std::size_t len = std::min(stripe_data, data.size() - s * stripe_data);
    std::vector<std::uint8_t> fresh(len);
    rng.fill(fresh);
    const Response r = node.submit(write_req(0, s, fresh)).wait();
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_TRUE(r.error.empty()) << r.error;
    std::memcpy(data.data() + s * stripe_data, fresh.data(), len);
  }
  EXPECT_EQ(journal_size(dir), 2 * node.store().journal_record_bytes());

  TempDir crashed("v1_copy");
  fs::copy(store_dir(dir), store_dir(crashed), fs::copy_options::recursive);
  const StripeStore replayed = StripeStore::load(store_dir(crashed));
  EXPECT_EQ(replayed.version, 1);
  EXPECT_EQ(replayed.journal_bytes, 2 * replayed.journal_record_bytes());
  {
    Codec codec2(kCfg);
    StorageNode restarted(codec2, store_dir(crashed), {.tenants = 1, .workers = 2});
    restarted.start();
    std::vector<std::uint8_t> got(data.size());
    const Response r = restarted.submit(read_req(0, 0, got)).wait();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(got, data);
    restarted.stop();
  }

  node.stop();
  EXPECT_EQ(journal_size(dir), 0u);
  const auto snapshot = slurp(StripeStore::manifest_path(store_dir(dir)));
  const std::string head = "stair_store 1\n";
  EXPECT_TRUE(std::equal(head.begin(), head.end(), snapshot.begin()));
  Codec codec3(kCfg);
  IoPipeline pipeline(codec3, {.symbol_bytes = kSymbol});
  const auto st = pipeline.decode_file(store_dir(dir), (dir.path / "out.bin").string());
  ASSERT_TRUE(st.ok) << st.error;
  EXPECT_EQ(st.degraded_stripes, 0u);
  EXPECT_EQ(slurp(dir.path / "out.bin"), data);
}

// --- admission control -------------------------------------------------------

TEST(ServiceTest, MalformedRequestsFailWithoutRejecting) {
  TempDir dir("shape");
  encode_store(dir, 20'000, 4);
  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir), {.tenants = 2, .workers = 2});
  node.start();

  std::vector<std::uint8_t> buf(64);
  // Read past EOF: understood, refused, not a backpressure reject.
  const Response past = node.submit(read_req(0, node.store().file_size - 8, buf)).wait();
  EXPECT_FALSE(past.ok);
  EXPECT_FALSE(past.rejected);

  // Write with the wrong payload size.
  const Response bad_len =
      node.submit(write_req(0, 0, std::span<const std::uint8_t>(buf.data(), 64))).wait();
  EXPECT_FALSE(bad_len.ok);
  EXPECT_FALSE(bad_len.rejected);

  // Write to a stripe the store doesn't have.
  const Response bad_stripe =
      node.submit(write_req(0, node.store().stripes + 3, buf)).wait();
  EXPECT_FALSE(bad_stripe.ok);

  // Tenant out of range is a caller bug: loud throw, not a Response.
  EXPECT_THROW(node.submit(read_req(99, 0, buf)), std::runtime_error);

  // Zero-length reads complete immediately.
  EXPECT_TRUE(node.submit(read_req(0, 0, std::span<std::uint8_t>())).wait().ok);
  node.stop();
}

TEST(ServiceTest, FullQueueRejectsFastAndStaysBounded) {
  TempDir dir("bounded");
  encode_store(dir, 30'000, 5);

  Codec codec(kCfg);
  // One worker and a tiny queue: the flood must hit the bound immediately.
  StorageNode node(codec, store_dir(dir),
                   {.tenants = 2, .queue_capacity = 4, .workers = 1});
  node.start();

  constexpr int kFlood = 600;
  std::size_t rejected = 0;
  std::atomic<std::size_t> max_depth{0};
  std::atomic<bool> stop_sampler{false};
  std::vector<std::uint8_t> scratch(256);

  std::thread sampler([&] {
    while (!stop_sampler.load(std::memory_order_relaxed)) {
      const auto st = node.stats();
      std::size_t prev = max_depth.load();
      while (st.queue_depth > prev &&
             !max_depth.compare_exchange_weak(prev, st.queue_depth)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::vector<StorageNode::Future> futures;
  futures.reserve(kFlood);
  const auto flood_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kFlood; ++i)
    futures.push_back(node.submit(read_req(i % 2, 0, scratch)));
  const double flood_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - flood_start)
          .count();

  for (auto& f : futures)
    if (f.wait().rejected) ++rejected;
  stop_sampler.store(true);
  sampler.join();

  // Most of the flood bounced, and none of it blocked the submitter: 600
  // admissions against a depth-8 system return fast because a full queue
  // answers immediately instead of waiting for service progress.
  EXPECT_GT(rejected, std::size_t{kFlood / 2});
  EXPECT_LT(flood_seconds, 5.0);
  // The admission bound held: tenants * capacity is the queue ceiling.
  EXPECT_LE(max_depth.load(), 2u * 4u);

  const auto st = node.stats();
  EXPECT_EQ(st.tenants[0].rejected + st.tenants[1].rejected, rejected);
  EXPECT_EQ(st.tenants[0].submitted + st.tenants[1].submitted,
            static_cast<std::uint64_t>(kFlood));
  node.stop();
}

// --- fairness + priority -----------------------------------------------------

TEST(ServiceTest, FloodingTenantCannotStarveAnother) {
  TempDir dir("fairness");
  const auto data = encode_store(dir, 60'000, 6);

  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir),
                   {.tenants = 2, .queue_capacity = 16, .workers = 2});
  node.start();

  std::atomic<bool> stop_flood{false};
  std::thread flooder([&] {
    // One buffer per in-flight request: the buffer contract forbids two
    // concurrently serviced reads scattering into the same output span.
    std::vector<std::vector<std::uint8_t>> bufs(
        64, std::vector<std::uint8_t>(2048));
    std::vector<StorageNode::Future> inflight;
    while (!stop_flood.load(std::memory_order_relaxed)) {
      inflight.push_back(node.submit(read_req(0, 0, bufs[inflight.size()])));
      if (inflight.size() >= 64) {
        for (auto& f : inflight) f.wait();
        inflight.clear();
      }
    }
    for (auto& f : inflight) f.wait();
  });

  // The victim runs closed-loop: one read at a time, so its queue depth
  // never exceeds 1 and admission can never bounce it.
  std::vector<std::uint8_t> buf(1024);
  double max_seconds = 0.0;
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t off = (i * 997) % (data.size() - buf.size());
    const Response r = node.submit(read_req(1, off, buf)).wait();
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_FALSE(r.rejected);
    max_seconds = std::max(max_seconds, r.queue_seconds + r.service_seconds);
    EXPECT_EQ(0, std::memcmp(buf.data(), data.data() + off, buf.size()));
  }
  stop_flood.store(true);
  flooder.join();

  const auto st = node.stats();
  EXPECT_EQ(st.tenants[1].rejected, 0u);
  EXPECT_GE(st.tenants[1].completed, 40u);
  // Round-robin bounds the victim's wait to its place in the round, not the
  // flooder's backlog: a starved victim would sit behind ~16 queued reads
  // per request. Generous wall-clock bound to stay robust on loaded CI.
  EXPECT_LT(max_seconds, 5.0);
  node.stop();
}

TEST(ServiceTest, QueuedReadsDispatchAheadOfQueuedScans) {
  TempDir dir("priority");
  const auto data = encode_store(dir, 60'000, 7);

  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir),
                   {.tenants = 1, .queue_capacity = 64, .workers = 1, .batch_limit = 1});
  node.start();

  // Occupy the single worker, then queue scans BEFORE reads. Priority must
  // dispatch every queued read ahead of every queued scan regardless.
  std::vector<std::uint8_t> big(data.size());
  auto blocker = node.submit(read_req(0, 0, big));

  std::vector<std::vector<std::uint8_t>> bufs(12, std::vector<std::uint8_t>(512));
  std::vector<StorageNode::Future> scans, reads;
  for (int i = 0; i < 6; ++i)
    scans.push_back(node.submit(read_req(0, i * 1024, bufs[i], RequestType::kScan)));
  for (int i = 0; i < 6; ++i)
    reads.push_back(node.submit(read_req(0, i * 2048, bufs[6 + i])));

  blocker.wait();
  double scan_queue_min = 1e9, read_queue_max = 0.0;
  for (auto& f : scans) scan_queue_min = std::min(scan_queue_min, f.wait().queue_seconds);
  for (auto& f : reads) read_queue_max = std::max(read_queue_max, f.wait().queue_seconds);

  // Scans were admitted earlier yet dispatched later than every read, so
  // each scan's queue time strictly dominates each read's.
  EXPECT_GT(scan_queue_min, read_queue_max * 0.99);
  node.stop();
}

TEST(ServiceTest, BackloggedReadsCoalesceIntoSharedSubmissions) {
  TempDir dir("batch");
  const auto data = encode_store(dir, 60'000, 8);

  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir),
                   {.tenants = 2, .queue_capacity = 64, .workers = 1,
                    .batch_limit = 8, .batch_min_backlog = 1});
  node.start();
  const std::size_t stripe_data = node.stripe_data_bytes();
  ASSERT_GT(data.size(), 2 * stripe_data) << "need at least two full stripes";

  // Occupy the worker so a backlog of same-stripe reads builds behind it.
  std::vector<std::uint8_t> big(data.size());
  auto blocker = node.submit(read_req(0, 0, big));

  std::vector<std::vector<std::uint8_t>> bufs(24, std::vector<std::uint8_t>(128));
  std::vector<std::uint64_t> offsets;
  std::vector<StorageNode::Future> futures;
  for (int i = 0; i < 24; ++i) {
    // All inside stripe 1's span, from both tenants.
    const std::uint64_t off = stripe_data + (i * 131) % (stripe_data - 128);
    offsets.push_back(off);
    futures.push_back(node.submit(read_req(i % 2, off, bufs[i])));
  }
  blocker.wait();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response& r = futures[i].wait();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(0, std::memcmp(bufs[i].data(), data.data() + offsets[i], bufs[i].size()));
  }

  const auto st = node.stats();
  EXPECT_GT(st.batched_reads, 0u);
  EXPECT_EQ(st.batched_reads, st.tenants[0].batched + st.tenants[1].batched);
  node.stop();
}

// --- degraded serving + scrub integration ------------------------------------

TEST(ServiceTest, ServesDegradedReadsThroughDeviceLoss) {
  TempDir dir("degraded");
  const auto data = encode_store(dir, 40'000, 9);
  fs::remove(StripeStore::device_path(store_dir(dir), 2));

  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir), {.tenants = 1, .workers = 2});
  node.start();

  std::vector<std::uint8_t> got(data.size());
  const Response r = node.submit(read_req(0, 0, got)).wait();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(got, data);
  EXPECT_GT(r.degraded_stripes, 0u);
  EXPECT_GT(node.stats().degraded_reads, 0u);
  node.stop();
}

TEST(ServiceTest, ScrubsAndRepairsWhileServing) {
  TempDir dir("scrub");
  const auto data = encode_store(dir, 40'000, 10);

  // Rot a few sectors of one device before the node comes up.
  {
    const std::string dev = StripeStore::device_path(store_dir(dir), 1);
    std::fstream f(dev, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f);
    char buf[64];
    f.seekg(100);
    f.read(buf, sizeof buf);
    for (char& c : buf) c = static_cast<char>(c ^ 0x5A);
    f.seekp(100);
    f.write(buf, sizeof buf);
  }

  Codec codec(kCfg);
  StorageNode::Options opts{.tenants = 2, .workers = 2, .scrub = true};
  opts.scrub_options.stripes_in_flight = 2;
  opts.scrub_options.max_stall = std::chrono::milliseconds(1);
  StorageNode node(codec, store_dir(dir), opts);
  node.start();

  // Foreground load while scrub hunts: every read must still verify.
  std::vector<std::uint8_t> buf(4096);
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t off = (i * 613) % (data.size() - buf.size());
    const Response r = node.submit(read_req(i % 2, off, buf)).wait();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(0, std::memcmp(buf.data(), data.data() + off, buf.size()));
  }
  // Give the scrubber a window to finish at least one repairing pass.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (node.stats().scrub.sectors_repaired == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  node.drain();

  const auto st = node.stats();
  EXPECT_GT(st.scrub.stripes_scanned, 0u);
  EXPECT_GT(st.scrub.sectors_repaired, 0u);
  EXPECT_EQ(st.failed_requests, 0u);
  node.stop();

  // The repaired, re-saved store decodes clean.
  Codec codec2(kCfg);
  IoPipeline pipeline(codec2, {.symbol_bytes = kSymbol});
  const auto dst = pipeline.decode_file(store_dir(dir), (dir.path / "out.bin").string());
  EXPECT_TRUE(dst.ok) << dst.error;
  EXPECT_EQ(dst.degraded_stripes, 0u) << "scrub should have healed the rot";
}

// --- races the sanitizers watch ----------------------------------------------

TEST(ServiceTest, ConcurrentReadersAndWriterStayConsistent) {
  TempDir dir("rw_race");
  const auto data = encode_store(dir, 40'000, 11);

  Codec codec(kCfg);
  StorageNode node(codec, store_dir(dir), {.tenants = 2, .workers = 3});
  node.start();
  const std::size_t stripe_data = node.stripe_data_bytes();
  const std::size_t len = std::min(stripe_data, data.size());

  std::vector<std::uint8_t> fresh(len);
  Rng(13).fill(fresh);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const Response r = node.submit(write_req(0, 0, fresh)).wait();
      EXPECT_TRUE(r.ok) << r.error;
    }
  });

  // Readers of the contested stripe must always see a whole version — the
  // original or the rewrite — never a tear (which the range lock prevents
  // and the sector checksums would unmask as a failed read).
  std::vector<std::uint8_t> buf(len);
  for (int i = 0; i < 30; ++i) {
    const Response r = node.submit(read_req(1, 0, buf)).wait();
    ASSERT_TRUE(r.ok) << r.error;
    const bool is_old = std::memcmp(buf.data(), data.data(), len) == 0;
    const bool is_new = std::memcmp(buf.data(), fresh.data(), len) == 0;
    EXPECT_TRUE(is_old || is_new) << "torn read at iteration " << i;
  }
  stop.store(true);
  writer.join();
  node.stop();
}

// --- env knobs ---------------------------------------------------------------

TEST(ServiceTest, EnvOverridesParseLoudly) {
  ::setenv("STAIR_NODE_TENANTS", "7", 1);
  ::setenv("STAIR_NODE_QUEUE", "128", 1);
  ::setenv("STAIR_NODE_WORKERS", "3", 1);
  ::setenv("STAIR_NODE_BATCH", "4", 1);
  ::setenv("STAIR_NODE_SCRUB", "yes", 1);
  auto opts = node_options_from_env();
  EXPECT_EQ(opts.tenants, 7u);
  EXPECT_EQ(opts.queue_capacity, 128u);
  EXPECT_EQ(opts.workers, 3u);
  EXPECT_EQ(opts.batch_limit, 4u);
  EXPECT_TRUE(opts.scrub);

  ::setenv("STAIR_NODE_TENANTS", "lots", 1);
  EXPECT_THROW(node_options_from_env(), std::runtime_error);
  ::setenv("STAIR_NODE_TENANTS", "0", 1);
  EXPECT_THROW(node_options_from_env(), std::runtime_error);
  ::unsetenv("STAIR_NODE_TENANTS");
  ::setenv("STAIR_NODE_SCRUB", "maybe", 1);
  EXPECT_THROW(node_options_from_env(), std::runtime_error);

  ::unsetenv("STAIR_NODE_QUEUE");
  ::unsetenv("STAIR_NODE_WORKERS");
  ::unsetenv("STAIR_NODE_BATCH");
  ::unsetenv("STAIR_NODE_SCRUB");
}

}  // namespace
}  // namespace stair
