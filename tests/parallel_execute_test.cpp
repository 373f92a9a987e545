// Parallel-equivalence battery: execute / encode / decode / update with
// ExecPolicy::sliced(t) through the persistent pool must be byte-identical to
// the serial paths for every thread count, including thread counts above the
// hardware width, odd symbol sizes, and symbols smaller than the thread
// count. Also runs under the ThreadSanitizer CI job.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "stair/plan_cache.h"
#include "stair/stair_code.h"
#include "stair/update_engine.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace stair {
namespace {

// Force a multi-worker default pool even on single-vCPU hosts (overwrite=0
// keeps an explicit user STAIR_THREADS), so the slicing paths really run
// concurrently everywhere this suite runs. Must happen before the first
// default_pool() use anywhere in the binary.
const std::size_t g_pool_width = [] {
  ::setenv("STAIR_THREADS", "4", /*overwrite=*/0);
  return ThreadPool::default_pool().concurrency();
}();

std::vector<std::uint8_t> all_bytes(const StripeView& view) {
  std::vector<std::uint8_t> out;
  for (const auto& r : view.stored) out.insert(out.end(), r.begin(), r.end());
  for (const auto& r : view.outside_globals) out.insert(out.end(), r.begin(), r.end());
  return out;
}

std::vector<std::size_t> thread_matrix() {
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> threads{1, 2, 3, 7, hw, 0 /* = pool default */};
  return threads;
}

struct ConfigCase {
  StairConfig cfg;
  GlobalParityMode mode;
};

std::vector<ConfigCase> config_matrix() {
  return {
      {{.n = 8, .r = 8, .m = 2, .e = {1, 2}}, GlobalParityMode::kInside},
      {{.n = 6, .r = 4, .m = 1, .e = {1, 1}}, GlobalParityMode::kInside},
      {{.n = 8, .r = 6, .m = 2, .e = {2}}, GlobalParityMode::kOutside},
      {{.n = 9, .r = 5, .m = 1, .e = {1, 2}}, GlobalParityMode::kInside},
  };
}

// Odd sizes exercise ragged final slices; 16 exercises symbols far smaller
// than 64-byte slicing granularity and most thread counts. All are multiples
// of w/8 = 1 for the w = 8 configs above.
const std::size_t kSymbolSizes[] = {16, 72, 1000, 4096 + 64, 9999};

void scramble(const StairCode& code, StripeBuffer& stripe, const std::vector<bool>& mask,
              std::uint64_t seed) {
  Rng garbage(seed);
  for (std::size_t idx = 0; idx < mask.size(); ++idx)
    if (mask[idx]) garbage.fill(stripe.view().stored[idx]);
  (void)code;
}

// Wide widths route the pooled replay through per-range altmap conversions
// on SIMD backends (each worker converts exactly the byte range it replays);
// serial and parallel must still agree bytewise for sizes with ragged
// slices and partial trailing altmap blocks. Sizes are multiples of w/8.
TEST(ParallelExecute, WideWidthEncodeDecodeMatchesSerial) {
  for (int w : {16, 32}) {
    const StairConfig cfg{.n = 8, .r = 6, .m = 2, .e = {1, 2}, .w = w};
    const StairCode code(cfg);
    std::vector<bool> mask(cfg.n * cfg.r, false);
    for (std::size_t i = 0; i < cfg.r; ++i) mask[i * cfg.n + 1] = true;
    mask[3 * cfg.n + 6] = true;
    ASSERT_TRUE(code.is_recoverable(mask));

    for (std::size_t symbol : {std::size_t{72}, std::size_t{1000}, std::size_t{4096 + 64},
                               std::size_t{9996}}) {
      StripeBuffer serial(code, symbol);
      std::vector<std::uint8_t> data(serial.data_size());
      Rng rng(7000 + w + symbol);
      rng.fill(data);
      serial.set_data(data);
      code.encode(serial.view());
      const auto expected = all_bytes(serial.view());

      for (std::size_t threads : thread_matrix()) {
        StripeBuffer parallel(code, symbol);
        parallel.set_data(data);
        Workspace ws;
        code.encode(parallel.view(), EncodingMethod::kAuto, &ws, ExecPolicy::sliced(threads));
        ASSERT_EQ(all_bytes(parallel.view()), expected)
            << "encode w=" << w << " symbol=" << symbol << " threads=" << threads;

        scramble(code, parallel, mask, 99 + threads);
        ASSERT_TRUE(code.decode(parallel.view(), mask, &ws, nullptr, ExecPolicy::sliced(threads)));
        ASSERT_EQ(all_bytes(parallel.view()), expected)
            << "decode w=" << w << " symbol=" << symbol << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelExecute, EncodeMatchesSerialAcrossMatrix) {
  for (const auto& c : config_matrix()) {
    const StairCode code(c.cfg, c.mode);
    for (std::size_t symbol : kSymbolSizes) {
      StripeBuffer serial(code, symbol);
      std::vector<std::uint8_t> data(serial.data_size());
      Rng rng(1000 + symbol);
      rng.fill(data);
      serial.set_data(data);
      code.encode(serial.view());
      const auto expected = all_bytes(serial.view());

      for (std::size_t threads : thread_matrix()) {
        StripeBuffer parallel(code, symbol);
        parallel.set_data(data);
        Workspace ws;
        code.encode(parallel.view(), EncodingMethod::kAuto, &ws, ExecPolicy::sliced(threads));
        ASSERT_EQ(all_bytes(parallel.view()), expected)
            << c.cfg.to_string() << " symbol=" << symbol << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelExecute, BothScheduleOverloadsMatchSerial) {
  const StairConfig cfg{.n = 8, .r = 8, .m = 2, .e = {1, 2}};
  const StairCode code(cfg);
  const std::size_t symbol = 1000;
  const Schedule& sched = code.encoding_schedule(EncodingMethod::kUpstairs);
  const CompiledSchedule& compiled = code.compiled_encoding_schedule(EncodingMethod::kUpstairs);

  StripeBuffer reference(code, symbol);
  std::vector<std::uint8_t> data(reference.data_size());
  Rng rng(2024);
  rng.fill(data);
  reference.set_data(data);
  code.execute(sched, reference.view());
  const auto expected = all_bytes(reference.view());

  for (std::size_t threads : thread_matrix()) {
    StripeBuffer via_schedule(code, symbol), via_compiled(code, symbol);
    via_schedule.set_data(data);
    via_compiled.set_data(data);
    code.execute(sched, via_schedule.view(), nullptr, ExecPolicy::sliced(threads));
    code.execute(compiled, via_compiled.view(), nullptr, ExecPolicy::sliced(threads));
    ASSERT_EQ(all_bytes(via_schedule.view()), expected) << "Schedule overload t=" << threads;
    ASSERT_EQ(all_bytes(via_compiled.view()), expected) << "Compiled overload t=" << threads;
  }
}

TEST(ParallelExecute, DecodeParallelRecoversAcrossMatrix) {
  for (const auto& c : config_matrix()) {
    const StairCode code(c.cfg, c.mode);
    const std::size_t symbol = 1000;
    StripeBuffer stripe(code, symbol);
    std::vector<std::uint8_t> data(stripe.data_size());
    Rng rng(77);
    rng.fill(data);

    // Lose one whole chunk plus one extra sector — inside every config's
    // coverage (m >= 1, e_max >= 1).
    std::vector<bool> mask(c.cfg.n * c.cfg.r, false);
    for (std::size_t i = 0; i < c.cfg.r; ++i) mask[i * c.cfg.n + 0] = true;
    mask[(c.cfg.r - 1) * c.cfg.n + 2] = true;

    for (std::size_t threads : thread_matrix()) {
      stripe.set_data(data);
      code.encode(stripe.view());
      scramble(code, stripe, mask, 88 + threads);
      Workspace ws;
      ASSERT_TRUE(code.decode(stripe.view(), mask, &ws, nullptr, ExecPolicy::sliced(threads)))
          << c.cfg.to_string() << " threads=" << threads;
      std::vector<std::uint8_t> out(stripe.data_size());
      stripe.get_data(out);
      ASSERT_EQ(out, data) << c.cfg.to_string() << " threads=" << threads;
    }
  }
}

TEST(ParallelExecute, DecodeParallelThroughCacheMatchesSerial) {
  const StairConfig cfg{.n = 8, .r = 8, .m = 2, .e = {1, 2}};
  const StairCode code(cfg);
  DecodePlanCache cache(code, 8);
  const std::size_t symbol = 4096 + 64;

  StripeBuffer stripe(code, symbol);
  std::vector<std::uint8_t> data(stripe.data_size());
  Rng rng(99);
  rng.fill(data);

  std::vector<bool> mask(cfg.n * cfg.r, false);
  for (std::size_t i = 0; i < cfg.r; ++i) mask[i * cfg.n + 3] = true;
  mask[2 * cfg.n + 5] = true;

  for (std::size_t threads : thread_matrix()) {
    stripe.set_data(data);
    code.encode(stripe.view());
    scramble(code, stripe, mask, 100 + threads);
    ASSERT_TRUE(code.decode(stripe.view(), mask, nullptr, &cache, ExecPolicy::sliced(threads)));
    std::vector<std::uint8_t> out(stripe.data_size());
    stripe.get_data(out);
    ASSERT_EQ(out, data) << "threads=" << threads;
  }
  EXPECT_EQ(cache.misses(), 1u);  // one mask: compiled once, replayed per thread count
}

TEST(ParallelExecute, WorkspaceIsReusedAcrossParallelCalls) {
  const StairConfig cfg{.n = 8, .r = 8, .m = 2, .e = {1, 2}};
  const StairCode code(cfg);
  const std::size_t symbol = 1000;
  StripeBuffer a(code, symbol), b(code, symbol);
  std::vector<std::uint8_t> data(a.data_size());
  Rng rng(55);
  rng.fill(data);
  a.set_data(data);
  b.set_data(data);

  // Same workspace across serial and parallel calls, and across repeated
  // parallel calls — the scratch must be re-mapped, never stale.
  Workspace ws;
  code.encode(a.view(), EncodingMethod::kAuto, &ws);
  code.encode(b.view(), EncodingMethod::kAuto, &ws, ExecPolicy::sliced(3));
  EXPECT_EQ(all_bytes(a.view()), all_bytes(b.view()));
  code.encode(b.view(), EncodingMethod::kAuto, &ws, ExecPolicy::sliced(7));
  EXPECT_EQ(all_bytes(a.view()), all_bytes(b.view()));
}

// Byte-equality sweep for the update path across the full config x thread
// matrix — the same battery the encode/decode paths get above. Odd symbol
// size keeps a ragged final slice in play at every thread count.
TEST(ParallelExecute, UpdateParallelMatchesSerialAcrossMatrix) {
  for (const auto& c : config_matrix()) {
    const StairCode code(c.cfg, c.mode);
    const UpdateEngine engine(code);
    const std::size_t symbol = 9999;

    for (std::size_t threads : thread_matrix()) {
      StripeBuffer serial(code, symbol), parallel(code, symbol);
      std::vector<std::uint8_t> data(serial.data_size());
      Rng rng(123 + threads);
      rng.fill(data);
      serial.set_data(data);
      parallel.set_data(data);
      code.encode(serial.view());
      code.encode(parallel.view());

      std::vector<std::uint8_t> fresh(symbol);
      for (std::size_t idx = 0; idx < code.data_symbol_count(); idx += 7) {
        rng.fill(fresh);
        engine.update(serial.view(), idx, fresh);
        engine.update(parallel.view(), idx, fresh, ExecPolicy::sliced(threads));
        ASSERT_EQ(all_bytes(serial.view()), all_bytes(parallel.view()))
            << c.cfg.to_string() << " data index " << idx << " threads=" << threads;
      }
    }
  }
}

// The ExecPolicy entry point drives the same single implementation: policy
// serial() == the plain call == pooled().
TEST(ParallelExecute, UpdatePolicyFormsAgree) {
  const StairConfig cfg{.n = 8, .r = 6, .m = 2, .e = {1, 2}};
  const StairCode code(cfg);
  const UpdateEngine engine(code);
  const std::size_t symbol = 4096 + 64;

  StripeBuffer a(code, symbol), b(code, symbol), c(code, symbol);
  std::vector<std::uint8_t> data(a.data_size());
  Rng rng(321);
  rng.fill(data);
  for (auto* s : {&a, &b, &c}) {
    s->set_data(data);
    code.encode(s->view());
  }
  std::vector<std::uint8_t> fresh(symbol);
  rng.fill(fresh);
  engine.update(a.view(), 2, fresh);
  engine.update(b.view(), 2, fresh, ExecPolicy::serial());
  engine.update(c.view(), 2, fresh, ExecPolicy::pooled());
  EXPECT_EQ(all_bytes(a.view()), all_bytes(b.view()));
  EXPECT_EQ(all_bytes(a.view()), all_bytes(c.view()));
}

TEST(ParallelExecute, ManyMoreThreadsThanBytes) {
  const StairConfig cfg{.n = 6, .r = 4, .m = 1, .e = {1, 1}};
  const StairCode code(cfg);
  const std::size_t symbol = 8;  // fewer bytes than requested threads
  StripeBuffer serial(code, symbol), parallel(code, symbol);
  std::vector<std::uint8_t> data(serial.data_size());
  Rng rng(7);
  rng.fill(data);
  serial.set_data(data);
  parallel.set_data(data);
  code.encode(serial.view());
  code.encode(parallel.view(), EncodingMethod::kAuto, nullptr, ExecPolicy::sliced(64));
  EXPECT_EQ(all_bytes(serial.view()), all_bytes(parallel.view()));
}

}  // namespace
}  // namespace stair
