// Test helper for the store-version suites: rewrites a freshly encoded
// (version 2) store as the version-1 store of the same bytes, which is what
// a build from before the 8-lane content_hash64 would have written.
#pragma once

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stair/io_pipeline.h"
#include "stair/stair_code.h"

namespace stair {

/// Rehashes every sector of the store in `dir` with content_hash64_v1, sets
/// version 1, refolds data_checksum and saves the snapshot. Any journal is
/// dropped: its records carry version-2 hashes (load has already replayed
/// them into the snapshot that is rehashed here).
inline void downgrade_to_v1(const std::string& dir) {
  StripeStore store = StripeStore::load(dir);
  std::vector<std::uint8_t> sector(store.symbol_bytes);
  for (std::size_t j = 0; j < store.cfg.n; ++j) {
    std::ifstream dev(StripeStore::device_path(dir, j), std::ios::binary);
    for (std::size_t s = 0; s < store.stripes; ++s)
      for (std::size_t i = 0; i < store.cfg.r; ++i) {
        dev.seekg(static_cast<std::streamoff>(store.chunk_offset(s) + i * store.symbol_bytes));
        if (!dev.read(reinterpret_cast<char*>(sector.data()),
                      static_cast<std::streamsize>(sector.size())))
          throw std::runtime_error("downgrade_to_v1: short device file " + std::to_string(j));
        store.stripe_checksums(s)[j * store.cfg.r + i] = content_hash64_v1(sector);
      }
  }
  store.version = 1;
  store.data_checksum = store.fold_data_checksum(StairCode(store.cfg).layout());
  store.save(dir);
  std::filesystem::remove(StripeStore::journal_path(dir));
}

}  // namespace stair
