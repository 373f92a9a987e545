// IoPipeline — async stripe IO feeding the Codec session.
//
// The Codec (stair/codec.h) turned the coding path into a stripe-batch
// pipeline, but it still assumed every stripe was resident in memory. This
// layer closes the remaining seam named by the roadmap: chunk-file IO runs
// through an async engine (util/stripe_io.h) with a bounded ring of leased
// stripe slots, and IO completions chain directly into submit_encode /
// submit_decode (and compute completions chain back into writes), so disk
// work for stripe k+d overlaps region work for stripe k with no thread ever
// blocked between the stages:
//
//   encode:  read(input chunk k) ──▶ submit_encode ──▶ write(n device chunks)
//   decode:  read(n device chunks k) ─▶ [verify checksums, build mask]
//              ├─ clean: write(output chunk k)
//              └─ degraded: submit_decode via the session plan cache ─▶ write
//
// The on-disk layout is a StripeStore: one dev_NN.bin per device (stripe k's
// chunk of device j at byte k * r * symbol_bytes), plus a manifest recording
// the config and a checksum per sector: the text snapshot manifest.txt and
// the checksum journal manifest.log, whose fixed-size records carry the
// stripe rewrites committed since that snapshot. Checksums are what
// make degraded reads honest: a chunk that is missing, short, unreadable
// (EIO), or torn (checksum mismatch) is treated as erased for exactly its
// stripe, the mask is resolved through the session's DecodePlanCache (every
// stripe of a failure epoch shares one inversion+compile), and the stripe is
// reconstructed in the pipeline. Patterns outside the code's coverage fail
// that stripe's handle and are counted — never thrown mid-pipeline.
//
// Depth: `queue_depth` stripes are in flight at once, each leasing a slot
// (StripeBuffer + staging) from a WorkspacePool that settles at the depth
// high-water mark. IO transfers are bounded by depth x (n + 1), so the
// engine never needs its own backpressure against the pipeline.
//
// A pipeline is bound to one Codec (whose code defines the stripe geometry)
// and runs one file operation at a time; distinct pipelines on distinct
// codecs may run concurrently.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "stair/codec.h"
#include "util/stripe_io.h"
#include "util/workspace_pool.h"

namespace stair {

/// Parses a comma-separated coverage vector ("1,2" -> {1, 2}) — the format
/// both the manifest and file_codec's CLI use for `e`. A token that is not a
/// plain decimal number ("2x", "1,,2", "1,") throws std::invalid_argument.
std::vector<std::size_t> parse_coverage_list(const std::string& text);

/// 64-bit content hash over a byte span — the sector checksum of version-2
/// stores. Eight independent lanes of a multiply-rotate round run over each
/// 64-byte block (8-byte words read little-endian), so the lanes' multiplies
/// overlap instead of forming one serial chain; the lanes are then folded in
/// order, and the trailing words and byte tail go through the same round on
/// a length-seeded state. ~20 GB/s on a 16 KiB sector on a 4-vCPU Xeon
/// host, about 5x content_hash64_v1 (bench_io_pipeline's hash cell).
/// Portable C++: no ISA flags, no dispatch. Platform-independent (words
/// are read little-endian); plenty for torn-write/bit-rot detection, not a
/// cryptographic integrity layer.
std::uint64_t content_hash64(std::span<const std::uint8_t> bytes);

/// The version-1 sector checksum: one serial multiply-rotate chain over the
/// 8-byte LE words, each round waiting on the last (~4 GB/s on the same
/// host, about 1.7 bytes/cycle). Kept only so stores written before
/// version 2 keep loading, verifying and taking writes.
std::uint64_t content_hash64_v1(std::span<const std::uint8_t> bytes);

/// The on-disk stripe store: per-device chunk files plus the manifest that
/// decode needs (config, geometry, per-sector checksums, whole-file check).
/// It also owns the manifest's verify and commit rules: no other layer
/// hashes a sector or indexes a checksum.
///
/// The format version fixes the hash behind every persisted value (sector
/// checksums, the per-stripe and whole-file folds, journal records):
/// content_hash64 for version 2, content_hash64_v1 for version 1. encode_file
/// writes version 2; load accepts 1 and 2 and save writes back the version
/// it loaded, so an old store stays an old store (there is no migration).
struct StripeStore {
  int version = 2;  // manifest format version; encode_file writes 2
  StairConfig cfg;
  std::size_t symbol_bytes = 0;
  std::size_t file_size = 0;   // original file bytes (tail stripe is padded)
  std::size_t stripes = 0;
  /// Layout block size: each stripe's chunk row is padded to a multiple of
  /// this, so every chunk transfer is block-aligned in offset and length —
  /// the alignment O_DIRECT demands, solved once in the layout instead of
  /// per-IO. 1 = the legacy unpadded layout (manifests without a `block`
  /// line load as 1, so old stores keep working byte-for-byte).
  std::size_t block_bytes = 1;
  /// Whole-file check: the store's hash over every stripe's data_hash as
  /// 8-byte LE words in stripe order. Folded from the manifest's checksums
  /// once all stripes are in, so stripes may complete in any order.
  std::uint64_t data_checksum = 0;
  /// Checksum of each stored sector — symbol (row i, device j) of stripe k at
  /// [(k * cfg.n + j) * cfg.r + i]. Sector granularity is what lets decode
  /// erase exactly the torn/rotted sectors of a surviving device instead of
  /// writing off its whole chunk: the mixed device+sector failure patterns
  /// STAIR's coverage is about.
  std::vector<std::uint64_t> sector_checksums;
  /// Bytes of the journal that load() replayed: its valid record prefix. A
  /// writer resumes appending here, over any torn or rejected tail.
  std::uint64_t journal_bytes = 0;

  std::size_t chunk_bytes() const { return cfg.r * symbol_bytes; }
  /// chunk_bytes rounded up to the layout block — the on-disk stride and
  /// transfer length for one stripe's chunk (pad bytes are written as zero).
  std::size_t padded_chunk_bytes() const {
    return (chunk_bytes() + block_bytes - 1) / block_bytes * block_bytes;
  }
  /// Byte offset of stripe `stripe`'s chunk within each device file.
  std::uint64_t chunk_offset(std::size_t stripe) const {
    return std::uint64_t{stripe} * padded_chunk_bytes();
  }
  /// Stripe `stripe`'s n * r checksums; chunk j's r rows at [j * r, j * r + r).
  std::span<std::uint64_t> stripe_checksums(std::size_t stripe) {
    return std::span(sector_checksums).subspan(stripe * cfg.n * cfg.r, cfg.n * cfg.r);
  }

  /// Does sector (row, device) of `stripe` hash to its manifest checksum?
  bool sector_ok(std::size_t stripe, std::size_t device, std::size_t row,
                 std::span<const std::uint8_t> bytes) const;

  struct ChunkVerdict {
    bool missing = false;     // failed or short transfer: a device erasure
    std::size_t corrupt = 0;  // sector erasures: rows failing their checksum
  };
  /// Verifies chunk `device` of `stripe`, read into `staging` with outcome
  /// `result`: a failed or short transfer marks all r rows bad, otherwise
  /// each row gets its own verdict, at bad[row * n + device]. Bytes, not
  /// vector<bool> bits, so concurrent verifiers of disjoint columns never
  /// share a word. Good sectors are copied into `into` (if set) while warm.
  ChunkVerdict verify_chunk(std::size_t stripe, std::size_t device,
                            const io::Result& result, const std::uint8_t* staging,
                            std::span<std::uint8_t> bad, StripeBuffer* into = nullptr) const;
  /// Folds verdicts into a Codec::submit_decode mask; returns the erased count.
  static std::size_t erasure_mask(std::span<const std::uint8_t> bad,
                                  std::vector<bool>& mask);
  /// Gathers device `device`'s r symbols into padded staging, zeroes the pad
  /// tail, and writes their r checksums to `hashes` (none if it is empty).
  void stage_chunk(const StripeView& view, std::size_t device, std::uint8_t* staging,
                   std::span<std::uint64_t> hashes) const;

  /// A stripe's data hash: its data sectors' checksums folded in data order.
  std::uint64_t data_hash(std::size_t stripe, const StairLayout& layout) const;
  /// Every stripe's data_hash folded in stripe order — what data_checksum holds.
  std::uint64_t fold_data_checksum(const StairLayout& layout) const;
  /// The same fold over already-computed data_hash values (one per stripe,
  /// stripe order): how a layer that rewrites stripes in place (the
  /// StorageNode write path) refreshes data_checksum without re-deriving
  /// every stripe's hash.
  std::uint64_t fold_stripe_hashes(std::span<const std::uint64_t> stripe_hashes) const;

  static std::string device_path(const std::string& dir, std::size_t device);
  static std::string manifest_path(const std::string& dir);
  static std::string journal_path(const std::string& dir);

  /// Bytes of one journal record: the stripe index, its n * r sector
  /// checksums, data_checksum and the store's hash over the rest, 8 bytes
  /// each (LE). Fixed by the geometry, whatever the number of stripes.
  std::size_t journal_record_bytes() const { return 8 * (cfg.n * cfg.r + 3); }
  /// Stripe `stripe`'s journal record: its current checksums and the
  /// current data_checksum — what one committed stripe rewrite appends.
  std::vector<std::uint8_t> journal_record(std::size_t stripe) const;

  /// Writes the snapshot manifest.txt, as format `version`, into `dir`
  /// (unique temp file + rename: a process crash mid-save leaves the
  /// previous snapshot in place. Nothing is synced, so a power cut gives no
  /// such promise). Leaves the journal alone: replaying records the
  /// snapshot already holds changes nothing. Throws on IO failure.
  void save(const std::string& dir) const;
  /// Loads and validates manifest.txt, then replays manifest.log over it.
  /// A missing version line or a version other than 1 or 2 is rejected.
  /// Every snapshot field is parse-checked and bounds-checked (file_size
  /// against what `stripes` stripes hold) before it is used to size or
  /// index sector_checksums: a truncated, garbled, or adversarial manifest
  /// throws std::runtime_error with a "manifest" message — never UB. Replay
  /// is last-record-wins and stops quietly at the first record that is
  /// short, fails its hash, or names a stripe >= stripes. (The accessors
  /// above stay unchecked; a loaded store is guaranteed self-consistent.)
  static StripeStore load(const std::string& dir);

 private:
  /// The version's hash over a byte span: sector checksums and journal
  /// records.
  std::uint64_t hash(std::span<const std::uint8_t> bytes) const;
  /// The version's hash over `count` 64-bit words, word(i) being the i-th,
  /// hashed in place as their little-endian bytes: the checksum folds.
  template <typename Word>
  std::uint64_t fold(std::size_t count, Word word) const;
};

/// One leased stripe slot of an async stripe walk (IoPipeline runs and
/// Scrubber passes), reused warm through a WorkspacePool.
struct StripeSlot {
  std::optional<StripeBuffer> buf;
  std::vector<std::uint8_t> data;  // flat stripe data staging (user file side)
  // Aligned per-device chunk staging (O_DIRECT-safe, fixed-buffer capable).
  std::vector<IoBufferPool::Lease> chunks;
  std::vector<io::Result> results;      // per-chunk read outcome
  std::vector<std::uint8_t> sector_bad;  // verify_chunk verdicts
  std::vector<bool> mask;               // erased symbols
  std::atomic<std::size_t> pending{0};  // countdown to stage change; publishes the above

  /// Readies the slot for a stripe: rebuilds buf on a symbol-size change,
  /// re-leases chunk staging only when missing or too small, clears results
  /// and verdicts.
  void prepare(const StairCode& code, std::size_t symbol_bytes, std::size_t padded_chunk,
               IoBufferPool& pool);
};

class IoPipeline {
 public:
  struct Options {
    /// Stripes in flight (ring depth). 1 degrades to read-compute-write
    /// lockstep; >= 4 keeps IO and compute overlapped.
    std::size_t queue_depth = 4;
    /// Bytes per symbol when encoding (decode takes it from the manifest).
    std::size_t symbol_bytes = 4096;
    /// Encoding method for encode_file.
    EncodingMethod method = EncodingMethod::kAuto;
    /// Raw-device mode (STAIR_IO_DIRECT): encode pads the store layout to
    /// `block_bytes` and chunk files are opened O_DIRECT; decode/read_range
    /// open O_DIRECT whenever the store is padded. Filesystems that refuse
    /// O_DIRECT fall back to buffered opens transparently (the padded
    /// layout and aligned transfers are valid either way, so the store is
    /// byte-identical across modes).
    bool direct = io::direct_from_env();
    /// Layout block for newly encoded stores when `direct` is set (the
    /// device's logical block size; 4096 covers 512e/4Kn disks).
    std::size_t block_bytes = 4096;
    /// Lease chunk staging from a registered buffer pool and issue
    /// READ_FIXED/WRITE_FIXED on engines that support registration (uring).
    /// Engines that don't (or a failed registration) degrade to plain
    /// transfers on the same aligned buffers.
    bool fixed_buffers = true;
    /// IO engine to run on (borrowed; fault-injection tests pass a wrapped
    /// one). nullptr: the pipeline creates and owns one per `backend`.
    io::Engine* engine = nullptr;
    io::Backend backend = io::Backend::kAuto;  // used only when engine == nullptr
    io::Engine::Options io;                    // used only when engine == nullptr
  };

  /// Per-operation outcome + counters. `ok` is the everything-checks-out
  /// bit: no fatal IO error, no unrecoverable stripe, and (decode) the
  /// reassembled data matching the manifest checksum.
  struct Stats {
    bool ok = false;
    std::string error;                 // first fatal error (empty when ok)
    std::size_t stripes = 0;
    std::size_t degraded_stripes = 0;  // reconstructed through the plan cache
    std::size_t failed_stripes = 0;    // pattern outside the code's coverage
    std::size_t chunks_missing = 0;    // open/read failure or short chunk
    std::size_t sectors_corrupt = 0;   // read fine, sector checksum mismatch
    std::size_t manifest_errors = 0;   // manifest missing/truncated/garbled
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
  };

  explicit IoPipeline(Codec& codec);
  IoPipeline(Codec& codec, Options options);
  ~IoPipeline();

  IoPipeline(const IoPipeline&) = delete;
  IoPipeline& operator=(const IoPipeline&) = delete;

  /// Splits `input_path` into stripes, encodes each through the Codec, and
  /// writes the StripeStore into `store_dir` (created if needed). Returns
  /// stats; never throws for IO-shaped failures (see Stats.error).
  Stats encode_file(const std::string& input_path, const std::string& store_dir);

  /// Reassembles the original file from `store_dir` into `output_path`,
  /// serving degraded stripes through the session plan cache. Stats.ok is
  /// false when any stripe was unrecoverable or the final checksum failed;
  /// whatever was recoverable has still been written.
  Stats decode_file(const std::string& store_dir, const std::string& output_path);

  /// Serves the original-file byte range [offset, offset + out.size()) from
  /// the store without touching stripes outside it. The happy path reads
  /// *only the sectors the range needs* (sector-granular positioned reads)
  /// and verifies each against the manifest; any miss — a missing/short
  /// chunk, a torn sector, a device mid-rebuild — escalates that stripe to a
  /// degraded read through StairCode::build_degraded_read_schedule, decoding
  /// only the wanted symbols (a backward slice of the full decode plan, not
  /// a stripe repair). This is how client reads keep being served *during*
  /// a device rebuild. Stats.ok is false when the range exceeds the file or
  /// a needed stripe is unrecoverable.
  Stats read_range(const StripeStore& store, const std::string& store_dir,
                   std::uint64_t offset, std::span<std::uint8_t> out);
  /// read_range loading the manifest itself (convenience; per-call load).
  Stats read_range(const std::string& store_dir, std::uint64_t offset,
                   std::span<std::uint8_t> out);

  io::Engine& engine() { return *engine_; }
  Codec& codec() { return codec_; }
  /// Slot-pool high-water mark (== stripes concurrently in flight, settles
  /// at queue_depth).
  std::size_t slots_created() const { return slots_.created(); }
  /// The aligned chunk-staging pool (nullptr until the first operation) —
  /// exposed for tests asserting registration/overflow behavior.
  const IoBufferPool* buffer_pool() const { return buffers_.get(); }
  /// True while the staging pool is registered with the engine (fixed-path
  /// transfers engaged).
  bool fixed_buffers_active() const { return fixed_active_; }

 private:
  struct Run;

  using SlotLease = WorkspacePool<StripeSlot>::Lease;

  /// (Re)builds the aligned staging pool for the given chunk geometry and
  /// registers it with the engine when fixed_buffers is on.
  void ensure_buffers(std::size_t bytes, std::size_t alignment, std::size_t capacity);
  SlotLease acquire_slot(Run& run);
  void retire_slot(Run& run);
  void fatal(Run& run, std::string message);
  void drain(Run& run);

  // Stage bodies (each runs on an engine/pool thread; must not throw).
  void encode_on_input_read(Run& run, SlotLease slot, std::size_t stripe,
                            std::size_t data_len, const io::Result& r);
  void encode_on_encoded(Run& run, SlotLease slot, std::size_t stripe, bool ok);
  void decode_on_chunk_read(Run& run, SlotLease slot, std::size_t stripe,
                            std::size_t device, const io::Result& r);
  void decode_assemble(Run& run, SlotLease slot, std::size_t stripe);
  void decode_write_data(Run& run, SlotLease slot, std::size_t stripe);

  Codec& codec_;
  Options options_;
  std::unique_ptr<io::Engine> owned_engine_;
  io::Engine* engine_;
  WorkspacePool<StripeSlot> slots_;
  std::unique_ptr<IoBufferPool> buffers_;  // chunk staging, see ensure_buffers
  bool fixed_active_ = false;  // staging pool currently registered with engine_
};

}  // namespace stair
