// Repo benchmark program: open-loop StorageNode traffic, device rebuild, and
// per-layer probes, with every byte read back checked.
//
//   stair_perfbench --workload serve_read|serve_write|rebuild --seed N
//                   --seconds S --trace 0|1 --dir WORKDIR [--tune-file PATH]
//   stair_perfbench --pin-profile PATH
//
// Prints one JSON object on stdout: correct / attempted / failed, the metrics
// of the requested mode (end-to-end with --trace 0, per-layer with --trace 1)
// and an "info" block (profile, filesystem, per-phase detail). run.py builds
// this program, pins the autotune profile and forwards the result; see
// README.md for what each workload and metric is for.
//
// Load model: one generator thread (main) submits at seeded Poisson arrival
// times; one completion thread waits on the futures in submission order and
// verifies the bytes. A request's latency is (submit - due) +
// Response.queue_seconds + Response.service_seconds, so the completion
// thread's wake-up is not part of it.
//
// Expected bytes are regenerated from a per-stripe (seed, version) pair, so
// the check holds no shadow copy of the store.

#include <fcntl.h>
#include <pthread.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gf/gf.h"
#include "gf/region.h"
#include "stair/autotune.h"
#include "stair/codec.h"
#include "stair/io_pipeline.h"
#include "stair/scrub_repair.h"
#include "stair/service.h"
#include "tracing_engine.h"

namespace fs = std::filesystem;
using namespace stair;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Quantile of `v` (linear interpolation); NaN when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::string fs_type_name(const std::string& path) {
  struct statfs sf {};
  if (statfs(path.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

/// Writes back every file in `dir`, so the kernel's writeback of earlier
/// work does not run inside a later timed step.
void flush_dir(const std::string& dir) {
  for (const auto& e : fs::directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    const int fd = ::open(e.path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    (void)fdatasync(fd);
    ::close(fd);
  }
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  return h;
}

/// Minimal JSON object writer (flat values and nested raw objects).
class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[64];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof buf, "%.17g", v);
    else
      std::snprintf(buf, sizeof buf, "null");
    return raw(k, buf);
  }
  Json& str(const std::string& k, const std::string& v) { return raw(k, quote(v)); }
  Json& boolean(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + quote(k) + ": " + v;
    return *this;
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      out += c;
    }
    return out + "\"";
  }
  std::string body_;
};

// ---------------------------------------------------------------------------
// Content model: byte i of stripe s at version v is a pure function of
// (seed, s, v, i / 8) — counter-mode splitmix64 — so any range can be
// regenerated for verification without keeping a copy.
// ---------------------------------------------------------------------------

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct Content {
  std::uint64_t seed = 0;
  std::size_t stripe_data = 0;

  /// Fills `out` with stripe `s` version `v` bytes starting at in-stripe
  /// offset `off`. `off` and out.size() are multiples of 8.
  void fill(std::size_t s, std::uint32_t v, std::size_t off, std::span<std::uint8_t> out) const {
    const std::uint64_t key = mix64(seed ^ mix64((std::uint64_t{s} << 20) ^ v));
    const std::uint64_t w0 = off / 8;
    for (std::size_t i = 0; i < out.size() / 8; ++i) {
      const std::uint64_t word = mix64(key + w0 + i);
      std::memcpy(out.data() + i * 8, &word, 8);
    }
  }
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

constexpr std::size_t kSymbolBytes = 16384;
constexpr std::size_t kPointBytes = 16384;
constexpr std::size_t kScanBytes = 1 << 20;
constexpr std::size_t kAlign = 4096;  // request offsets are 4 KiB aligned
constexpr std::uint64_t kLadderMaxOutstanding = 64 << 20;
constexpr auto kSpin = std::chrono::microseconds(200);  // generator's final wait
constexpr int kRounds = 10;  // slices per fixed-rate phase

/// One phase of a workload's measured window. Every workload runs every
/// kind of phase, so each prints every end-to-end metric; what differs is
/// the store, the rates and which phase overlaps what.
///
///   light / busy   fixed-rate traffic; their reads (and writes, when the
///                  mix has any) give the *_light / *_busy p50s, and busy
///                  gives cpu_us_per_op
///   write_light /  whole-stripe writes alone, for workloads whose light /
///   write_busy     busy phases carry none
///   rebuild        back-to-back device rebuilds under read traffic
///   ladder         geometric rate steps from `rate`, for capacity_rps
///                  (traced runs only)
struct PhaseSpec {
  std::string name;
  double rate = 0;  // offered requests/s (ladder: first step)
  double frac = 0;  // share of --seconds (the ladder's comes on top)
  double write_share = 0, scan_share = 0;
  bool rebuild = false;
};

struct Spec {
  std::string name;
  std::size_t stripes = 0;
  std::size_t corrupt_sectors = 32;  // per rebuild repetition
  double ladder_step_s = 0.4;
  double p99_limit_ms = 50;  // capacity ladder's latency limit
  std::vector<PhaseSpec> plan;
};

Spec spec_for(const std::string& name) {
  Spec s;
  s.name = name;
  if (name == "serve_read") {
    // Healthy small store, a hot working set: 95 % point reads, 5 % scans.
    // Writes and rebuilds run in phases of their own, after the reads.
    s.stripes = 320;  // 100 MiB of user data
    s.plan = {{"light", 200, 0.3, 0, 0.05},          {"busy", 1000, 0.3, 0, 0.05},
              {"write_light", 20, 0.15, 1, 0},       {"write_busy", 60, 0.15, 1, 0},
              {"rebuild", 200, 0.1, 0, 0, true},     {"ladder", 2000, 0.3, 0, 0.05}};
  } else if (name == "serve_write") {
    // Larger store (256 MiB, 820 stripes): every whole-stripe write
    // rewrites the whole manifest. Writes move half the bytes: one 320 KiB
    // write per twenty 16 KiB point reads, which keeps the read p50 on
    // enough samples.
    s.stripes = 820;
    s.ladder_step_s = 0.75;
    s.p99_limit_ms = 200;
    const double w = 1.0 / 21;
    s.plan = {{"light", 105, 0.35, w, 0},            {"busy", 336, 0.35, w, 0},
              {"rebuild", 100, 0.3, 0, 0, true},     {"ladder", 336, 0.35, w, 0}};
  } else if (name == "rebuild") {
    // The larger store losing a device (plus seeded sector damage) again
    // and again while point reads arrive at the light rate; between
    // rebuilds the store serves light and busy reads and writes.
    s.stripes = 820;
    s.plan = {{"light", 200, 0.15, 0, 0},            {"rebuild", 200, 0.35, 0, 0, true},
              {"busy", 1000, 0.15, 0, 0},            {"write_light", 10, 0.175, 1, 0},
              {"write_busy", 30, 0.175, 1, 0},       {"ladder", 2000, 0.25, 0, 0}};
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return s;
}

const StairConfig kConfig{.n = 8, .r = 4, .m = 2, .e = {1, 1, 2}};

// ---------------------------------------------------------------------------
// Open-loop load generator + completion thread
// ---------------------------------------------------------------------------

enum class Op { kRead, kScan, kWrite };

struct PhaseAcc {
  std::string name;
  double rate = 0;
  double gen_seconds = 0;
  std::uint64_t submitted = 0, ok = 0, failed = 0, rejected = 0, mismatched = 0;
  std::uint64_t backlog_end = 0;
  bool valid = true;
  double late_max_ms = 0;
  std::vector<double> late_ms;  // generator lateness per request
  std::vector<double> read_ms, write_ms;  // end-to-end, including lateness
  std::vector<double> read_queue_ms, read_service_ms, write_queue_ms, write_service_ms;
  std::uint64_t user_read_bytes = 0;
  double cpu_s = 0;  // process CPU minus generator + completion threads
  std::uint64_t completed_ops = 0;
  std::vector<double> cpu_us_per_op;  // the same, per slice
};

struct Pending {
  StorageNode::Future fut;
  Op op = Op::kRead;
  std::uint64_t offset = 0;
  std::size_t stripe = 0;
  std::uint32_t version = 0;               // write: version written
  std::vector<std::uint32_t> lo_versions;  // read: committed version per stripe at submit
  std::vector<std::uint8_t> buf;
  double late_s = 0;
  PhaseAcc* phase = nullptr;
};

class Load {
 public:
  Load(StorageNode& node, const Content& content, std::size_t stripes, std::uint64_t seed)
      : node_(&node),
        content_(content),
        stripes_(stripes),
        file_size_(std::uint64_t{stripes} * content.stripe_data),
        issued_(stripes),
        committed_(stripes),
        writing_(stripes),
        rng_(seed) {
    gen_clock_ = thread_clock(pthread_self());
    // The generator sleeps until each arrival is nearly due; the default
    // 50 us timer slack would add its own lateness to every request.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    completer_ = std::thread([this] { complete_loop(); });
    comp_clock_ = thread_clock(completer_.native_handle());
  }

  ~Load() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    completer_.join();
  }

  Load(const Load&) = delete;
  Load& operator=(const Load&) = delete;

  /// Runs one open-loop phase (or one more slice of it: `acc` accumulates)
  /// on the calling thread: Poisson arrivals at `rate` for `seconds` (or
  /// while `keep_going` returns true, when given), then records the backlog
  /// left behind and waits for every request to finish. With
  /// `max_outstanding` set, the phase gives up — and is marked invalid —
  /// once more payload bytes than that wait on the node, which bounds a
  /// ladder step's memory past capacity.
  void run(PhaseAcc& acc, double rate, double seconds, double write_share, double scan_share,
           const std::function<bool()>& keep_going = {}, std::uint64_t max_outstanding = 0) {
    acc.rate = rate;
    const double cpu0 = process_cpu_seconds(), h0 = harness_cpu_seconds();
    const std::uint64_t done0 = completed_.load(), submitted0 = acc.submitted;
    std::exponential_distribution<double> gap(rate);
    // The mix is exact, not drawn: each request adds its shares to a
    // credit, and a write or scan goes out when its credit reaches one. A
    // drawn mix would move the CPU per request with how many writes a run
    // happened to draw.
    double write_credit = 0, scan_credit = 0;
    const Clock::time_point t0 = Clock::now();
    double due = gap(rng_);
    bool capped = false;
    for (;;) {
      if (keep_going ? !keep_going() : due >= seconds) break;
      if (max_outstanding && outstanding_.load() > max_outstanding) {
        capped = true;
        break;
      }
      write_credit += write_share;
      scan_credit += scan_share;
      Op op = Op::kRead;
      if (write_credit >= 1) {
        op = Op::kWrite;
        write_credit -= 1;
      } else if (scan_credit >= 1) {
        op = Op::kScan;
        scan_credit -= 1;
      }
      auto p = prepare(op);
      const Clock::time_point due_at =
          t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(due));
      // Sleep to just short of the due time, then spin: waking a sleeping
      // thread costs tens of microseconds on a busy host, and that
      // lateness would count against the node.
      std::this_thread::sleep_until(due_at - kSpin);
      while (Clock::now() < due_at) {
      }
      p->late_s = std::max(0.0, std::chrono::duration<double>(Clock::now() - due_at).count());
      submit(std::move(p), acc);
      due += gap(rng_);
    }
    acc.gen_seconds += seconds_since(t0);
    const StorageNode::Stats st = node_->stats();
    const std::uint64_t backlog = st.queue_depth + st.in_service;
    acc.backlog_end = std::max<std::uint64_t>(acc.backlog_end, backlog);
    drain();
    const std::uint64_t done = completed_.load() - done0;
    const double cpu = (process_cpu_seconds() - cpu0) - (harness_cpu_seconds() - h0);
    acc.completed_ops += done;
    acc.cpu_s += cpu;
    if (done) acc.cpu_us_per_op.push_back(1e6 * cpu / static_cast<double>(done));
    // Backlog check: what the node still held when generation stopped, as a
    // share of what the phase offered. A queue that keeps up holds a few
    // requests; one past capacity holds a growing fraction.
    const double offered = static_cast<double>(acc.submitted - submitted0);
    if (capped || static_cast<double>(backlog) > std::max(16.0, 0.05 * offered))
      acc.valid = false;
  }

  /// Blocks until every submitted request has completed and been checked.
  void drain() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [&] { return queue_.empty() && !busy_; });
  }

  /// CPU seconds the generator and completion threads have used — the
  /// harness's share of the process, which CPU-cost metrics subtract.
  double harness_cpu_seconds() const {
    return clock_seconds(gen_clock_) + clock_seconds(comp_clock_);
  }

  /// Points the load at a restarted node. Call drained.
  void set_node(StorageNode& node) { node_ = &node; }

  const std::vector<std::atomic<std::uint32_t>>& committed() const { return committed_; }

 private:
  static clockid_t thread_clock(pthread_t t) {
    clockid_t c{};
    if (pthread_getcpuclockid(t, &c) != 0) throw std::runtime_error("pthread_getcpuclockid");
    return c;
  }

  std::unique_ptr<Pending> prepare(Op op) {
    auto p = std::make_unique<Pending>();
    if (op == Op::kWrite) {
      std::uniform_int_distribution<std::size_t> pick(0, stripes_ - 1);
      for (int tries = 0; tries < 16; ++tries) {
        const std::size_t s = pick(rng_);
        if (writing_[s].load()) continue;  // one write per stripe in flight
        p->op = Op::kWrite;
        p->stripe = s;
        p->version = issued_[s].load() + 1;
        p->buf.resize(content_.stripe_data);
        content_.fill(s, p->version, 0, p->buf);
        return p;
      }
      op = Op::kRead;
    }
    const std::size_t len = op == Op::kScan ? kScanBytes : kPointBytes;
    std::uniform_int_distribution<std::uint64_t> pick(0, (file_size_ - len) / kAlign);
    p->op = op;
    p->offset = pick(rng_) * kAlign;
    p->buf.resize(len);
    return p;
  }

  void submit(std::unique_ptr<Pending> p, PhaseAcc& acc) {
    Request req;
    req.tenant = p->op == Op::kWrite ? 1 : 0;
    if (p->op == Op::kWrite) {
      writing_[p->stripe].store(true);
      issued_[p->stripe].store(p->version);
      req.type = RequestType::kWrite;
      req.stripe = p->stripe;
      req.data = p->buf;
    } else {
      const std::size_t s0 = p->offset / content_.stripe_data;
      const std::size_t s1 = (p->offset + p->buf.size() - 1) / content_.stripe_data;
      for (std::size_t s = s0; s <= s1; ++s) p->lo_versions.push_back(committed_[s].load());
      req.type = p->op == Op::kScan ? RequestType::kScan : RequestType::kRead;
      req.offset = p->offset;
      req.out = p->buf;
    }
    p->phase = &acc;
    outstanding_ += p->buf.size();
    acc.late_max_ms = std::max(acc.late_max_ms, p->late_s * 1e3);
    acc.late_ms.push_back(p->late_s * 1e3);
    ++acc.submitted;
    p->fut = node_->submit(req);
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(p));
    }
    cv_.notify_one();
  }

  /// True when `p`'s bytes match, for every stripe the read covers, some
  /// version between the one committed at submit and the newest issued —
  /// a read racing a write of the same stripe may see either.
  bool verify(const Pending& p) {
    const std::size_t sd = content_.stripe_data;
    std::uint64_t pos = p.offset;
    const std::uint64_t end = p.offset + p.buf.size();
    std::size_t k = 0;
    while (pos < end) {
      const std::size_t s = pos / sd;
      const std::size_t in = pos % sd;
      const std::size_t len = static_cast<std::size_t>(std::min<std::uint64_t>(end - pos, sd - in));
      expect_.resize(len);
      const std::uint8_t* got = p.buf.data() + (pos - p.offset);
      bool match = false;
      for (std::uint32_t v = issued_[s].load() + 1; v-- > p.lo_versions[k];) {
        content_.fill(s, v, in, expect_);
        if (std::memcmp(got, expect_.data(), len) == 0) {
          match = true;
          break;
        }
      }
      if (!match) return false;
      pos += len;
      ++k;
    }
    return true;
  }

  void complete_loop() {
    for (;;) {
      std::unique_ptr<Pending> p;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        p = std::move(queue_.front());
        queue_.pop_front();
        busy_ = true;
      }
      const Response& r = p->fut.wait();
      PhaseAcc& acc = *p->phase;
      const double ms = (p->late_s + r.queue_seconds + r.service_seconds) * 1e3;
      bool good = r.ok && !r.rejected;
      if (r.rejected) ++acc.rejected;
      if (p->op == Op::kWrite) {
        if (good) {
          committed_[p->stripe].store(p->version);
          writing_[p->stripe].store(false);
          acc.write_ms.push_back(ms);
          acc.write_queue_ms.push_back(r.queue_seconds * 1e3);
          acc.write_service_ms.push_back(r.service_seconds * 1e3);
        }
      } else if (good) {
        if (!verify(*p)) {
          good = false;
          ++acc.mismatched;
          std::fprintf(stderr, "MISMATCH: read at offset %llu (%zu bytes)\n",
                       static_cast<unsigned long long>(p->offset), p->buf.size());
        } else {
          acc.user_read_bytes += p->buf.size();
          if (p->op == Op::kRead) {
            acc.read_ms.push_back(ms);
            acc.read_queue_ms.push_back(r.queue_seconds * 1e3);
            acc.read_service_ms.push_back(r.service_seconds * 1e3);
          }
        }
      }
      if (!good && !r.rejected && !r.error.empty())
        std::fprintf(stderr, "request failed: %s\n", r.error.c_str());
      (good ? acc.ok : acc.failed)++;
      outstanding_ -= p->buf.size();
      completed_.fetch_add(1);
      {
        std::lock_guard<std::mutex> lock(mu_);
        busy_ = false;
        if (queue_.empty()) idle_cv_.notify_all();
      }
    }
  }

  StorageNode* node_;  // the node serving this load (swapped after a restart)
  const Content& content_;
  const std::size_t stripes_;
  const std::uint64_t file_size_;
  // Per-stripe versions: issued_ is written by the generator, committed_
  // and writing_ by the completion thread once a write is acknowledged.
  std::vector<std::atomic<std::uint32_t>> issued_, committed_;
  std::vector<std::atomic<bool>> writing_;
  std::mt19937_64 rng_;
  std::vector<std::uint8_t> expect_;  // completion thread's scratch

  std::mutex mu_;
  std::condition_variable cv_, idle_cv_;
  std::deque<std::unique_ptr<Pending>> queue_;  // guarded by mu_
  bool busy_ = false;                           // guarded by mu_
  bool stop_ = false;                           // guarded by mu_
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> outstanding_{0};  // payload bytes submitted, not yet completed

  clockid_t gen_clock_{}, comp_clock_{};
  std::thread completer_;  // last: uses every member above
};

// ---------------------------------------------------------------------------
// Store set-up, damage, and checks
// ---------------------------------------------------------------------------

void write_input(const std::string& path, const Content& content, std::size_t stripes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw std::runtime_error("cannot create " + path);
  std::vector<std::uint8_t> buf(content.stripe_data);
  for (std::size_t s = 0; s < stripes; ++s) {
    content.fill(s, 0, 0, buf);
    if (std::fwrite(buf.data(), 1, buf.size(), f) != buf.size()) {
      std::fclose(f);
      throw std::runtime_error("short write to " + path);
    }
  }
  // Flushed, so the ingests that follow do not share the dirty-page budget
  // (and the writeback it triggers) with the input file.
  if (std::fflush(f) != 0 || fdatasync(fileno(f)) != 0 || std::fclose(f) != 0)
    throw std::runtime_error("cannot flush " + path);
}

/// Overwrites `count` seeded sectors on devices other than `skip` with
/// garbage (at most one per stripe, so every stripe stays within coverage
/// with one device lost). Returns how many sectors were damaged.
std::size_t corrupt_sectors(const StripeStore& store, const std::string& dir, std::size_t skip,
                            std::size_t count, std::mt19937_64& rng) {
  std::vector<std::size_t> stripes(store.stripes);
  for (std::size_t i = 0; i < stripes.size(); ++i) stripes[i] = i;
  std::shuffle(stripes.begin(), stripes.end(), rng);
  std::vector<std::uint8_t> junk(store.symbol_bytes);
  for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
  std::uniform_int_distribution<std::size_t> dev(0, store.cfg.n - 2), row(0, store.cfg.r - 1);
  count = std::min(count, stripes.size());
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t d = dev(rng);
    if (d >= skip) ++d;
    const std::string path = StripeStore::device_path(dir, d);
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    if (!f) throw std::runtime_error("cannot open " + path);
    const long off = static_cast<long>(store.chunk_offset(stripes[i]) + row(rng) * store.symbol_bytes);
    const bool ok = std::fseek(f, off, SEEK_SET) == 0 &&
                    std::fwrite(junk.data(), 1, junk.size(), f) == junk.size();
    std::fclose(f);
    if (!ok) throw std::runtime_error("cannot corrupt " + path);
  }
  return count;
}

/// Compares a decoded file with the committed version of every stripe.
bool file_matches(const std::string& path, const Content& content,
                  const std::vector<std::atomic<std::uint32_t>>& versions) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  std::vector<std::uint8_t> got(content.stripe_data), want(content.stripe_data);
  bool ok = true;
  for (std::size_t s = 0; s < versions.size() && ok; ++s) {
    content.fill(s, versions[s].load(), 0, want);
    ok = std::fread(got.data(), 1, got.size(), f) == got.size() && got == want;
  }
  ok = ok && std::fgetc(f) == EOF;
  std::fclose(f);
  return ok;
}

// ---------------------------------------------------------------------------
// Autotune profile pinning
// ---------------------------------------------------------------------------

/// Probes the autotuner `reps` times and saves the profile whose pool
/// dispatch overhead is the median one, so the slice threshold a run uses
/// does not hang on one noisy probe.
int pin_profile(const std::string& path, int reps) {
  std::vector<TuneProfile> probes;
  for (int i = 0; i < reps; ++i) probes.push_back(Autotune::probe_now());
  std::sort(probes.begin(), probes.end(), [](const TuneProfile& a, const TuneProfile& b) {
    return a.dispatch_overhead_ns < b.dispatch_overhead_ns;
  });
  const TuneProfile& pick = probes[probes.size() / 2];
  if (!pick.measured || !Autotune::save_profile(pick, path)) {
    std::fprintf(stderr, "cannot pin autotune profile at %s\n", path.c_str());
    return 1;
  }
  std::printf("pinned autotune profile %s (dispatch_overhead_ns %.0f of", path.c_str(),
              pick.dispatch_overhead_ns);
  for (const auto& p : probes) std::printf(" %.0f", p.dispatch_overhead_ns);
  std::printf(")\n");
  return 0;
}

/// The active profile's identity and the decisions it drives, or throws
/// when the library is not running the pinned profile.
std::string profile_info(const std::string& tune_file, const StairCode& code) {
  Autotune& at = Autotune::instance();
  const TuneProfile& active = at.profile();
  TuneProfile pinned;
  if (!tune_file.empty()) {
    if (!Autotune::load_profile(tune_file, &pinned) || pinned.to_json() != active.to_json())
      throw std::runtime_error("autotune profile differs from the pinned " + tune_file +
                               " (re-probed?); runs with different profiles are not comparable");
  }
  const int w = code.config().w;
  char id[32];
  std::snprintf(id, sizeof id, "%016llx", static_cast<unsigned long long>(fnv1a(active.to_json())));
  Json j;
  j.str("id", id)
      .str("fingerprint", active.fingerprint)
      .boolean("measured", active.measured)
      .num("dispatch_overhead_ns", active.dispatch_overhead_ns)
      .num("cache_budget_bytes", static_cast<double>(active.cache_budget_bytes))
      .num("min_slice_bytes_standard",
           static_cast<double>(at.min_slice_bytes(w, gf::RegionLayout::kStandard)))
      .str("layout_at_symbol",
           gf::layout_name(at.choose_layout(w, 4.0, kSymbolBytes)));
  return j.dump();
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced runs)
// ---------------------------------------------------------------------------

/// Keeps probe results observable so the timed loops are not optimized away.
volatile std::uint64_t g_sink = 0;

template <typename F>
double time_gbps(std::size_t bytes_per_call, F&& call, double seconds = 0.05, int reps = 5) {
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    std::size_t calls = 0;
    const Clock::time_point t0 = Clock::now();
    double el = 0;
    do {
      call();
      ++calls;
      el = seconds_since(t0);
    } while (el < seconds);
    rates.push_back(static_cast<double>(calls * bytes_per_call) / el / 1e9);
  }
  return median(rates);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string tune_file;
  std::string pin;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--dir") a.dir = v;
    else if (k == "--tune-file") a.tune_file = v;
    else if (k == "--pin-profile") a.pin = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.pin.empty() && (a.workload.empty() || a.dir.empty() || !(a.seconds > 0)))
    throw std::invalid_argument("need --workload, --dir and --seconds > 0");
  return a;
}

std::string phase_json(const PhaseAcc& p) {
  Json j;
  j.str("name", p.name)
      .num("rate", p.rate)
      .num("seconds", p.gen_seconds)
      .num("submitted", static_cast<double>(p.submitted))
      .num("ok", static_cast<double>(p.ok))
      .num("read_p50_ms", median(p.read_ms))
      .num("read_p99_ms", quantile(p.read_ms, 0.99))
      .num("write_p50_ms", median(p.write_ms))
      .num("late_p50_ms", median(p.late_ms))
      .num("late_max_ms", p.late_max_ms)
      .num("backlog_end", static_cast<double>(p.backlog_end))
      .boolean("valid", p.valid);
  return j.dump();
}

/// Every rebuild of a run: results, plus the state that carries from one
/// slice of rebuilds to the next.
struct RebuildReps {
  explicit RebuildReps(std::uint64_t seed) : rng(mix64(seed ^ 0xD1CE)), next_victim(seed) {}
  std::vector<double> seconds, cpu_s_per_gb;
  ScrubReport report;
  std::size_t damaged = 0;
  std::vector<std::string> errors;
  std::mt19937_64 rng;      // picks the damaged sectors
  std::size_t next_victim;  // device of the next rebuild (mod n)
};

/// Runs device rebuilds back to back — a different device each time, after
/// seeded sector damage on the survivors — until `seconds` have passed and
/// at least one finished. Every damaged sector must come back repaired.
void run_rebuilds(Codec& codec, io::Engine& engine, const StripeStore& geometry,
                  const std::string& store_dir, const Spec& spec, double seconds,
                  const Load& load, RebuildReps& out) {
  ScrubOptions so;
  so.stripes_in_flight = 4;
  so.engine = &engine;
  Scrubber scrubber(codec, so);
  const double user_gb =
      static_cast<double>(geometry.stripes * codec.code().data_symbol_count() *
                          geometry.symbol_bytes) / 1e9;
  const Clock::time_point w0 = Clock::now();
  for (bool first = true; first || seconds_since(w0) < seconds; first = false) {
    const std::size_t victim = out.next_victim++ % geometry.cfg.n;
    std::size_t damaged = 0;
    try {
      damaged = corrupt_sectors(geometry, store_dir, victim, spec.corrupt_sectors, out.rng);
      fs::remove(StripeStore::device_path(store_dir, victim));
    } catch (const std::exception& e) {
      out.errors.push_back(std::string("damage step: ") + e.what());
      return;
    }
    // The load harness runs beside the rebuild; its CPU is subtracted.
    const double c0 = process_cpu_seconds(), h0 = load.harness_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    const ScrubReport r = scrubber.rebuild_device(store_dir, victim);
    const double el = seconds_since(t0);
    const double cpu = (process_cpu_seconds() - c0) - (load.harness_cpu_seconds() - h0);
    out.damaged += damaged;
    out.report.accumulate(r);
    // Repaired sectors count the rebuilt column's too.
    const std::size_t rebuilt = geometry.stripes * geometry.cfg.r;
    if (!r.ok || !r.completed || r.stripes_unrecoverable || r.repair_failures ||
        r.sectors_corrupt != damaged || r.sectors_repaired != damaged + rebuilt) {
      out.errors.push_back("rebuild of device " + std::to_string(victim) + " found " +
                           std::to_string(r.sectors_corrupt) + " and repaired " +
                           std::to_string(r.sectors_repaired) + " sectors; expected " +
                           std::to_string(damaged) + " and " + std::to_string(damaged + rebuilt) +
                           " " + r.error);
      return;
    }
    out.seconds.push_back(el);
    out.cpu_s_per_gb.push_back(cpu / user_gb);
    flush_dir(store_dir);
  }
}

std::string list_json(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6g", i ? ", " : "", v[i]);
    s += buf;
  }
  return s + "]";
}

int run(const Args& args) {
  const Spec spec = spec_for(args.workload);
  const double T = args.seconds;
  std::mt19937_64 rng(mix64(args.seed ^ 0x5EED));

  Codec codec(kConfig);
  const std::string profile = profile_info(args.tune_file, codec.code());
  const StairCode& code = codec.code();

  const Content content{mix64(args.seed), code.data_symbol_count() * kSymbolBytes};
  const std::uint64_t file_size = std::uint64_t{spec.stripes} * content.stripe_data;
  const double user_gb = static_cast<double>(file_size) / 1e9;

  fs::create_directories(args.dir);
  const std::string store_dir = (fs::path(args.dir) / "store").string();
  const std::string input = (fs::path(args.dir) / "input.bin").string();

  // One engine for the whole process: traced runs time every transfer
  // through the decorator, untraced runs use the plain engine.
  std::unique_ptr<io::Engine> engine = io::Engine::create(io::Backend::kAuto);
  const std::string backend = io::backend_name(engine->backend());
  perfbench::TracingEngine* tracer = nullptr;
  if (args.trace) {
    auto t = std::make_unique<perfbench::TracingEngine>(std::move(engine));
    tracer = t.get();
    engine = std::move(t);
  }

  IoPipeline::Options popt;
  popt.symbol_bytes = kSymbolBytes;
  popt.engine = engine.get();
  StorageNode::Options nopt;
  nopt.tenants = 2;
  nopt.queue_capacity = 4096;  // no rejects even while a ladder step overloads
  nopt.io = popt;

  bool correct = true;
  std::vector<std::string> problems;
  auto fail = [&](const std::string& why) {
    correct = false;
    problems.push_back(why);
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  };

  // --- set-up: ingest the store and start the node ---------------------------
  // One set-up builds the served store. Untraced runs repeat it after every
  // round of the window, into a throwaway store, so the set-up samples are
  // spread over the run and a slow spell of the host does not set their
  // median.
  write_input(input, content, spec.stripes);
  std::vector<double> setup_s, ingest_cpu;
  auto set_up = [&](const std::string& dir) {
    fs::remove_all(dir);
    const Clock::time_point t0 = Clock::now();
    const double c0 = process_cpu_seconds();
    IoPipeline ingest(codec, popt);
    const IoPipeline::Stats st = ingest.encode_file(input, dir);
    const double c1 = process_cpu_seconds();
    if (!st.ok) throw std::runtime_error("encode_file failed: " + st.error);
    auto started = std::make_unique<StorageNode>(codec, dir, nopt);
    started->start();
    setup_s.push_back(seconds_since(t0));
    ingest_cpu.push_back((c1 - c0) / user_gb);
    return started;
  };
  std::unique_ptr<StorageNode> node = set_up(store_dir);
  flush_dir(store_dir);
  const double stored_ratio =
      static_cast<double>(dir_bytes(store_dir)) / static_cast<double>(file_size);
  const StripeStore geometry = StripeStore::load(store_dir);

  Load load(*node, content, spec.stripes, mix64(args.seed ^ 0x10AD));
  std::deque<PhaseAcc> phases;
  auto phase = [&](const std::string& name) -> PhaseAcc& {
    phases.emplace_back();
    phases.back().name = name;
    return phases.back();
  };

  // Traced runs first measure what recording costs: the same point-read
  // load with the decorator forwarding only, then recording.
  double overhead_p50_ms = 0, overhead_cpu_us = 0;
  if (tracer) {
    const double d = std::min(3.0, 0.15 * T);
    tracer->set_recording(false);
    PhaseAcc& off = phase("overhead_off");
    load.run(off, 200, d, 0, 0);
    tracer->set_recording(true);
    PhaseAcc& on = phase("overhead_on");
    load.run(on, 200, d, 0, 0);
    overhead_p50_ms = median(on.read_ms) - median(off.read_ms);
    overhead_cpu_us = 1e6 * (on.cpu_s / static_cast<double>(on.completed_ops) -
                             off.cpu_s / static_cast<double>(off.completed_ops));
    tracer->reset();
  }
  const std::uint64_t jobs0 = codec.jobs_submitted();
  const StorageNode::Stats node0 = node->stats();
  std::uint64_t reads_before_restart = 0, batched_before_restart = 0, degraded_before_restart = 0;

  // --- measured window --------------------------------------------------------
  PhaseAcc *light = nullptr, *busy = nullptr, *write_light = nullptr, *write_busy = nullptr;
  PhaseAcc* rebuilding_reads = nullptr;
  double capacity = 0;
  double ladder_resolution = 0;  // lowest failing / highest passing rung rate
  double rss_mb = 0;
  RebuildReps rebuilds(args.seed);
  auto bind = [&](const PhaseSpec& ps, PhaseAcc& acc) {
    if (ps.name == "light") light = &acc;
    if (ps.name == "busy") busy = &acc;
    if (ps.rebuild) rebuilding_reads = &acc;
    if (ps.name == "write_light" || (ps.name == "light" && ps.write_share > 0)) write_light = &acc;
    if (ps.name == "write_busy" || (ps.name == "busy" && ps.write_share > 0)) write_busy = &acc;
  };
  const std::vector<PhaseSpec>& plan = spec.plan;
  for (std::size_t i = 0; i < plan.size();) {
    if (plan[i].name == "ladder") {
      const PhaseSpec& ps = plan[i++];
      const double budget = ps.frac * T;
      // The ladder runs in traced runs only: its result tracks how much of
      // the host's CPU the run gets, which swings too much run to run for
      // an end-to-end bound.
      if (!tracer) continue;
      // Past capacity the client's own backlog buffers would dominate the
      // process's memory high-water mark; take it before the ladder.
      rss_mb = peak_rss_mb();
      // A fixed geometric ladder, rung k at ps.rate * 2^(k / 16): climb (or
      // descend) eight rungs, a factor sqrt(2), at a time until a passing
      // rung sits under a failing one, then bisect between them while the
      // budget lasts. A rung passes when its p99 meets the limit, nothing
      // failed and no backlog grew; a failing rung gets one retry.
      const Clock::time_point l0 = Clock::now();
      auto try_rung = [&](int k) {
        const double rate = ps.rate * std::exp2(k / 16.0);
        bool passed = false;
        for (int attempt = 0; attempt < 2 && !passed; ++attempt) {
          PhaseAcc& step = phase("ladder");
          load.run(step, rate, spec.ladder_step_s, ps.write_share, ps.scan_share, {},
                   kLadderMaxOutstanding);
          std::vector<double> all = step.read_ms;
          all.insert(all.end(), step.write_ms.begin(), step.write_ms.end());
          passed = step.valid && step.failed == 0 && quantile(all, 0.99) <= spec.p99_limit_ms;
          step.valid = passed;
          if (passed)
            capacity = std::max(capacity, static_cast<double>(step.submitted) / step.gen_seconds);
        }
        return passed;
      };
      auto time_left = [&] { return seconds_since(l0) + spec.ladder_step_s <= budget + 1e-9; };
      int lo = 0, hi = 0;  // highest passing / lowest failing rung
      if (try_rung(0)) {
        for (hi = 8; time_left() && try_rung(hi); hi += 8) lo = hi;
      } else {
        for (lo = -8; time_left() && !try_rung(lo); lo -= 8) hi = lo;
      }
      while (hi - lo > 1 && time_left()) {
        const int mid = lo + (hi - lo) / 2;
        (try_rung(mid) ? lo : hi) = mid;
      }
      ladder_resolution = std::exp2((hi - lo) / 16.0);
      continue;
    }
    // The other phases run interleaved: each as kRounds slices, taken
    // round-robin, so a few seconds of host slowdown spread over all of
    // them instead of landing on one.
    std::size_t j = i;
    while (j < plan.size() && plan[j].name != "ladder") ++j;
    std::vector<PhaseAcc*> accs;
    for (std::size_t k = i; k < j; ++k) {
      accs.push_back(&phase(plan[k].name));
      bind(plan[k], *accs.back());
    }
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t k = i; k < j; ++k) {
        const PhaseSpec& p = plan[k];
        const double slice = p.frac * T / kRounds;
        if (!p.rebuild) {
          load.run(*accs[k - i], p.rate, slice, p.write_share, p.scan_share);
          continue;
        }
        if (!rebuilds.errors.empty()) continue;  // the store may be past repair
        std::atomic<bool> rebuilding{true};
        std::thread rb([&] {
          run_rebuilds(codec, *engine, geometry, store_dir, spec, slice, load, rebuilds);
          rebuilding = false;
        });
        load.run(*accs[k - i], p.rate, slice, p.write_share, p.scan_share,
                 [&] { return rebuilding.load(); });
        rb.join();
        // The node's long-lived write fds still name the replaced device
        // files: restart it before anything else touches the store.
        const StorageNode::Stats st = node->stats();
        reads_before_restart += st.reads + st.scans;
        batched_before_restart += st.batched_reads;
        degraded_before_restart += st.degraded_reads;
        node->stop();
        node = std::make_unique<StorageNode>(codec, store_dir, nopt);
        node->start();
        load.set_node(*node);
      }
      // Traced runs skip it: the decorator would count the ingest's IO.
      if (!tracer) {
        const std::string extra = (fs::path(args.dir) / "setup_rep").string();
        set_up(extra)->stop();
        fs::remove_all(extra);
      }
    }
    i = j;
  }
  fs::remove(input);
  for (const std::string& e : rebuilds.errors) fail(e);
  if (rss_mb == 0) rss_mb = peak_rss_mb();
  const StorageNode::Stats node1 = node->stats();
  const std::uint64_t window_jobs = codec.jobs_submitted() - jobs0;

  // --- end-to-end metrics -----------------------------------------------------
  std::uint64_t attempted = 0, ok = 0;
  for (const PhaseAcc& p : phases) {
    attempted += p.submitted;
    ok += p.ok;
    if (p.mismatched) fail(std::to_string(p.mismatched) + " reads mismatched in " + p.name);
    if (p.name != "ladder" && !p.valid) {
      // Past capacity the latency measures backlog growth, not the program:
      // every request of the phase counts as missing the limit.
      std::fprintf(stderr, "phase %s at %.0f/s invalid: backlog %llu\n", p.name.c_str(), p.rate,
                   static_cast<unsigned long long>(p.backlog_end));
      ok -= std::min(ok, p.ok);
    }
  }

  Json e2e;
  auto e2e_metric = [&](const std::string& name, double v, const char* unit) {
    e2e.raw(name, Json().num("value", v).str("unit", unit).dump());
  };
  e2e_metric("setup_s", median(setup_s), "s");
  e2e_metric("read_p50_ms_light", median(light->read_ms), "ms");
  e2e_metric("write_p50_ms_light", median(write_light->write_ms), "ms");
  e2e_metric("write_p50_ms_busy", median(write_busy->write_ms), "ms");
  e2e_metric("cpu_us_per_op", median(busy->cpu_us_per_op), "us");
  e2e_metric("rebuild_s", median(rebuilds.seconds), "s");
  e2e_metric("rebuild_cpu_s_per_gb", median(rebuilds.cpu_s_per_gb), "s/GB");
  e2e_metric("ingest_cpu_s_per_gb", median(ingest_cpu), "s/GB");

  // --- per-layer probes (traced runs) -----------------------------------------
  Json layers;
  if (tracer) {
    auto metric = [&](const std::string& name, double v, const char* unit) {
      layers.raw(name, Json().num("value", v).str("unit", unit).dump());
    };
    const perfbench::TracingEngine::Snapshot window_io = tracer->snapshot();
    std::vector<double> rq, rsv, wq, wsv;
    double late_max = 0;
    std::uint64_t user_bytes = 0, rejects = 0, failed = 0;
    for (const PhaseAcc& p : phases) {
      rejects += p.rejected;
      failed += p.failed;
      if (p.name.rfind("overhead", 0) == 0) continue;
      user_bytes += p.user_read_bytes;  // the engine counters span the ladder too
      // Queue and service splits and lateness come from the fixed-rate
      // phases only.
      if (p.name == "ladder") continue;
      rq.insert(rq.end(), p.read_queue_ms.begin(), p.read_queue_ms.end());
      rsv.insert(rsv.end(), p.read_service_ms.begin(), p.read_service_ms.end());
      wq.insert(wq.end(), p.write_queue_ms.begin(), p.write_queue_ms.end());
      wsv.insert(wsv.end(), p.write_service_ms.begin(), p.write_service_ms.end());
      late_max = std::max(late_max, p.late_max_ms);
    }
    const double reads = static_cast<double>(
        std::max<std::uint64_t>(reads_before_restart + node1.reads + node1.scans -
                                    node0.reads - node0.scans, 1));
    metric("service.read_queue_ms_p50", median(rq), "ms");
    metric("service.read_service_ms_p50", median(rsv), "ms");
    metric("service.write_queue_ms_p50", median(wq), "ms");
    metric("service.write_service_ms_p50", median(wsv), "ms");
    metric("service.read_p50_ms_busy", median(busy->read_ms), "ms");
    metric("service.read_p50_ms_rebuilding", median(rebuilding_reads->read_ms), "ms");
    metric("service.read_p99_ms", quantile(busy->read_ms, 0.99), "ms");
    metric("service.write_p99_ms", quantile(write_busy->write_ms, 0.99), "ms");
    metric("service.batched_read_ratio",
           static_cast<double>(batched_before_restart + node1.batched_reads -
                               node0.batched_reads) / reads,
           "ratio");
    metric("service.degraded_read_ratio",
           static_cast<double>(degraded_before_restart + node1.degraded_reads -
                               node0.degraded_reads) / reads,
           "ratio");
    metric("service.rejects", static_cast<double>(rejects), "count");
    metric("service.failed", static_cast<double>(failed), "count");
    metric("service.gen_late_ms_max", late_max, "ms");
    metric("service.capacity_rps", capacity, "1/s");

    // IoPipeline::read_range directly, over this workload's own offsets.
    load.drain();
    const auto& committed = load.committed();
    auto expected = [&](std::uint64_t off, std::vector<std::uint8_t>& out) {
      std::uint64_t pos = off;
      while (pos < off + out.size()) {
        const std::size_t s = pos / content.stripe_data, in = pos % content.stripe_data;
        const std::size_t len = static_cast<std::size_t>(
            std::min<std::uint64_t>(off + out.size() - pos, content.stripe_data - in));
        content.fill(s, committed[s].load(), in,
                     std::span<std::uint8_t>(out.data() + (pos - off), len));
        pos += len;
      }
    };
    std::vector<std::uint64_t> offsets(400);
    std::uniform_int_distribution<std::uint64_t> pick(0, (file_size - kPointBytes) / kAlign);
    for (auto& o : offsets) o = pick(rng) * kAlign;
    std::vector<std::uint8_t> got(kPointBytes), want(kPointBytes);
    node->drain();
    const StripeStore probe_store = StripeStore::load(store_dir);
    tracer->reset();
    IoPipeline direct(codec, popt);
    std::vector<double> rr_ms;
    for (std::uint64_t off : offsets) {
      const Clock::time_point t0 = Clock::now();
      const IoPipeline::Stats st = direct.read_range(probe_store, store_dir, off, got);
      rr_ms.push_back(seconds_since(t0) * 1e3);
      expected(off, want);
      if (!st.ok || got != want) fail("read_range probe mismatch at " + std::to_string(off));
    }
    const perfbench::TracingEngine::Snapshot rr_io = tracer->snapshot();

    // Degraded read_range: the device holding each read's first sector fails.
    io::FaultInjectingEngine faulty(io::Engine::create(io::Backend::kAuto));
    IoPipeline::Options dopt = popt;
    dopt.engine = &faulty;
    IoPipeline degraded(codec, dopt);
    const StairLayout& layout = code.layout();
    std::vector<double> dr_ms;
    for (std::size_t i = 0; i < offsets.size() / 2; ++i) {
      const std::uint64_t off = offsets[i];
      const std::size_t d = (off % content.stripe_data) / kSymbolBytes;
      const std::size_t dev = layout.col_of(layout.data_ids()[d]);
      faulty.clear_faults();
      faulty.add_fault({.kind = io::Fault::Kind::kReadError,
                        .file = fs::path(StripeStore::device_path(store_dir, dev)).filename(),
                        .phase = std::nullopt});
      const Clock::time_point t0 = Clock::now();
      const IoPipeline::Stats st = degraded.read_range(probe_store, store_dir, off, got);
      dr_ms.push_back(seconds_since(t0) * 1e3);
      expected(off, want);
      if (!st.ok || got != want || st.degraded_stripes == 0)
        fail("degraded read_range probe failed at " + std::to_string(off));
    }
    const double hits = static_cast<double>(codec.plan_cache().hits());
    const double misses = static_cast<double>(codec.plan_cache().misses());

    // StripeStore::save on this workload's manifest.
    const std::string save_dir = (fs::path(args.dir) / "manifest_probe").string();
    fs::create_directories(save_dir);
    std::vector<double> save_ms;
    for (int i = 0; i < 5; ++i) {
      const Clock::time_point t0 = Clock::now();
      probe_store.save(save_dir);
      save_ms.push_back(seconds_since(t0) * 1e3);
    }
    fs::remove_all(save_dir);

    // Sector hash, codec encode/decode and the GF kernel at this geometry.
    constexpr std::size_t kSectors = 20;  // one stripe's data sectors
    std::vector<std::uint8_t> sectors(kSectors * kSymbolBytes);
    content.fill(0, 0, 0, sectors);
    std::uint64_t sink = 0;
    const double hash_gbps = time_gbps(sectors.size(), [&] {
      for (std::size_t i = 0; i < kSectors; ++i)
        sink ^= content_hash64(std::span<const std::uint8_t>(sectors.data() + i * kSymbolBytes,
                                                             kSymbolBytes));
    });
    g_sink = sink;
    constexpr std::size_t kBatch = 8;
    std::vector<std::unique_ptr<StripeBuffer>> stripes;
    std::vector<std::uint8_t> data(content.stripe_data), back(content.stripe_data);
    for (std::size_t i = 0; i < kBatch; ++i) {
      stripes.push_back(std::make_unique<StripeBuffer>(code, kSymbolBytes));
      content.fill(i, 0, 0, data);
      stripes.back()->set_data(data);
    }
    const double encode_gbps = time_gbps(kBatch * content.stripe_data, [&] {
      for (auto& s : stripes) codec.submit_encode(s->view());
      codec.wait_all();
    });
    // The rebuild's erasure shape: one lost device plus a bad sector on
    // another.
    const std::size_t victim = args.seed % kConfig.n;
    std::vector<bool> mask(kConfig.n * kConfig.r, false);
    for (std::size_t i = 0; i < kConfig.r; ++i) mask[i * kConfig.n + victim] = true;
    mask[(victim + 1) % kConfig.n] = true;
    bool decode_ok = true;
    const double decode_gbps = time_gbps(kBatch * content.stripe_data, [&] {
      std::vector<Codec::Handle> hs;
      for (auto& s : stripes) hs.push_back(codec.submit_decode(s->view(), mask));
      for (auto& h : hs) decode_ok = h.ok() && decode_ok;
    });
    for (std::size_t i = 0; i < kBatch; ++i) {
      stripes[i]->get_data(back);
      content.fill(i, 0, 0, data);
      if (!decode_ok || back != data) fail("codec decode probe mismatch");
    }
    std::vector<std::uint8_t> src(kSymbolBytes), dst(kSymbolBytes);
    content.fill(1, 0, 0, src);
    const gf::Field& field = gf::field(kConfig.w);
    const double gf_gbps =
        time_gbps(kSymbolBytes, [&] { gf::mult_xor_region(field, 0x57, src, dst); });

    const double rr_p50 = median(rr_ms), eng_p50 = rr_io.read_ns.percentile_ms(50);
    const ScrubReport& rb = rebuilds.report;
    metric("io_pipeline.read_range_ms_p50", rr_p50, "ms");
    metric("io_pipeline.degraded_read_range_ms_p50", median(dr_ms), "ms");
    metric("io_pipeline.manifest_save_ms", median(save_ms), "ms");
    metric("io_pipeline.hash_gbps", hash_gbps, "GB/s");
    metric("io_pipeline.bytes_read_per_user_byte",
           static_cast<double>(window_io.read_bytes) /
               static_cast<double>(std::max<std::uint64_t>(user_bytes, 1)),
           "ratio");
    metric("stripe_io.reads", static_cast<double>(window_io.reads), "count");
    metric("stripe_io.writes", static_cast<double>(window_io.writes), "count");
    metric("stripe_io.read_bytes", static_cast<double>(window_io.read_bytes), "bytes");
    metric("stripe_io.write_bytes", static_cast<double>(window_io.write_bytes), "bytes");
    metric("stripe_io.read_ms_p50", eng_p50, "ms");
    metric("stripe_io.write_ms_p50", window_io.write_ns.percentile_ms(50), "ms");
    metric("stripe_io.inflight_high_water", static_cast<double>(window_io.inflight_high_water),
           "count");
    metric("codec.encode_gbps", encode_gbps, "GB/s");
    metric("codec.decode_gbps", decode_gbps, "GB/s");
    metric("codec.plan_cache_hit_ratio", hits / std::max(hits + misses, 1.0), "ratio");
    metric("codec.jobs", static_cast<double>(window_jobs), "count");
    metric("gf.mult_xor_gbps", gf_gbps, "GB/s");
    metric("scrub.bytes_read_per_rebuilt_byte",
           static_cast<double>(rb.bytes_read) /
               static_cast<double>(std::max<std::uint64_t>(rb.bytes_written, 1)),
           "ratio");
    metric("scrub.sectors_repaired", static_cast<double>(rb.sectors_repaired), "count");
    metric("scrub.repair_failures", static_cast<double>(rb.repair_failures), "count");
    metric("scrub.throttle_stalls", static_cast<double>(rb.throttle_stalls), "count");
    // Each layer as a fraction of the one below it.
    metric("layers.service_over_read_range", median(busy->read_service_ms) / rr_p50, "ratio");
    metric("layers.read_range_over_engine", rr_p50 / eng_p50, "ratio");
    metric("trace.overhead_read_p50_ms", overhead_p50_ms, "ms");
    metric("trace.overhead_cpu_us_per_op", overhead_cpu_us, "us");
  }

  // --- correctness after the window -------------------------------------------
  load.drain();
  node->stop();
  node.reset();
  const auto& committed = load.committed();
  std::vector<std::size_t> written;
  for (std::size_t s = 0; s < spec.stripes; ++s)
    if (committed[s].load() > 0) written.push_back(s);
  {
    // Every acknowledged write must survive a drain and a fresh node.
    StorageNode reopened(codec, store_dir, nopt);
    reopened.start();
    std::vector<std::uint8_t> got(content.stripe_data), want(content.stripe_data);
    for (std::size_t s : written) {
      Request req;
      req.offset = std::uint64_t{s} * content.stripe_data;
      req.out = got;
      const StorageNode::Future done = reopened.submit(req);  // owns the Response
      const Response& r = done.wait();
      content.fill(s, committed[s].load(), 0, want);
      if (!r.ok || got != want) fail("acknowledged write of stripe " + std::to_string(s) + " lost");
    }
    reopened.stop();
  }
  if (spec.name == "rebuild") {
    // The whole store, decoded, must equal what was ingested and written.
    const std::string out = (fs::path(args.dir) / "decoded.bin").string();
    IoPipeline dec(codec, popt);
    const IoPipeline::Stats st = dec.decode_file(store_dir, out);
    if (!st.ok || !file_matches(out, content, committed))
      fail("decode_file after rebuild does not match the input and the acknowledged writes");
    fs::remove(out);
  }

  e2e_metric("ok_ratio", static_cast<double>(ok) / static_cast<double>(attempted), "ratio");
  e2e_metric("stored_bytes_per_user_byte", stored_ratio, "ratio");
  e2e_metric("peak_rss_mb", rss_mb, "MB");

  std::string phase_list = "[";
  for (const PhaseAcc& p : phases) phase_list += (phase_list.size() > 1 ? ", " : "") + phase_json(p);
  phase_list += "]";
  std::string problems_list = "[";
  for (std::size_t i = 0; i < problems.size(); ++i)
    problems_list += (i ? ", " : "") + Json().str("p", problems[i]).dump();
  problems_list += "]";
  Json info;
  info.str("workload", spec.name)
      .num("seed", static_cast<double>(args.seed))
      .str("config", kConfig.to_string())
      .num("symbol_bytes", kSymbolBytes)
      .num("stripes", static_cast<double>(spec.stripes))
      .num("user_bytes", static_cast<double>(file_size))
      .str("filesystem", fs_type_name(args.dir))
      .str("io_backend", backend)
      .str("gf_backend", gf::backend_name(gf::active_backend()))
      .raw("profile", profile)
      .raw("setup_s_reps", list_json(setup_s))
      .raw("rebuild_s_reps", list_json(rebuilds.seconds))
      .num("sectors_damaged", static_cast<double>(rebuilds.damaged))
      .num("ladder_resolution", ladder_resolution)
      .raw("phases", phase_list)
      .raw("problems", problems_list);
  if (tracer) info.raw("end_to_end", e2e.dump());

  Json out;
  out.boolean("correct", correct)
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(attempted - ok))
      .raw("metrics", tracer ? layers.dump() : e2e.dump())
      .raw("info", info.dump());
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (!args.pin.empty()) return pin_profile(args.pin, 15);
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stair_perfbench: %s\n", e.what());
    return 2;
  }
}
