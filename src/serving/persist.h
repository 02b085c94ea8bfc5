// Persistent on-disk schedule cache: the serialization layer that lets
// everything a process measured — cached KernelTimings and completed
// tuning searches — survive a restart, so a serving deployment pays
// cold-compile cost once per fleet, not once per process (the
// amortization the ROADMAP's tuning-as-a-service axis is about; cf. TVM's
// tuning-record logs, which likewise keep measured costs, not kernels).
//
// File layout (host-endian; this is a local cache, not an interchange
// format — a foreign-endian file simply fails its checksums):
//
//   magic "ALCP" | u32 schema version | u64 spec fingerprint
//                | u64 fitted-constants fingerprint
//   then a sequence of independently framed records:
//   u32 payload_len | u32 FNV-1a checksum of payload | payload
//
// A header mismatch (magic, version, either fingerprint) rejects the
// whole file — entries computed under different device numerics or
// fitted model constants must never be silently reused. Within an
// accepted file each frame stands alone: a bad checksum, an unknown
// record type, or a truncated tail skips that frame (counted in
// PersistStats::skipped) and the loader resyncs at the next frame —
// load never crashes on a corrupt or torn file.
//
// Loaded entries enter the sim cache through InsertCachedTiming (an
// existing live entry always wins, and the LRU budget applies) and the
// TuningStore.
//
// Writes go to `path.tmp.<pid>` and rename() into place, so a crash
// mid-save leaves the previous file intact and concurrent savers
// last-writer-win a complete file.
#ifndef ALCOP_SERVING_PERSIST_H_
#define ALCOP_SERVING_PERSIST_H_

#include <cstdint>
#include <string>

#include "target/gpu_spec.h"

namespace alcop {
namespace serving {

inline constexpr uint32_t kPersistMagic = 0x50434C41;  // "ALCP", little-endian
inline constexpr uint32_t kPersistVersion = 2;

// FNV-1a over every GpuSpec rate/limit that participates in the sim
// cache key (the device numerics the cached values were computed under).
uint64_t SpecFingerprint(const target::GpuSpec& spec);

// FNV-1a over the spec's fitted model constants (spec.model_fit) — the
// part of the device model the cache key does NOT carry, so a refit must
// invalidate the file even though the keys would still match.
uint64_t FittedConstantsFingerprint(const target::GpuSpec& spec);

// $ALCOP_CACHE_DIR/sim_cache.alcp; empty string when the variable is
// unset (callers treat that as "persistence disabled").
std::string DefaultCachePath();

struct PersistStats {
  bool ok = false;
  std::string error;   // why ok == false (empty otherwise)
  uint64_t bytes = 0;  // file bytes written (save) or parsed (load)
  uint64_t timings = 0;
  uint64_t tunings = 0;
  uint64_t skipped = 0;  // corrupt/unknown frames skipped on load
};

// Serializes the current sim-cache snapshot and the global TuningStore.
// Creates the parent directory if needed.
PersistStats SaveCache(const std::string& path, const target::GpuSpec& spec);

// Loads a cache file into the in-memory caches and the TuningStore.
// Missing file / header mismatch => ok == false with an explanatory
// error and nothing loaded; per-frame corruption is skipped, never
// fatal. Updates the sim.cache.disk.* counters.
PersistStats LoadCache(const std::string& path, const target::GpuSpec& spec);

}  // namespace serving
}  // namespace alcop

#endif  // ALCOP_SERVING_PERSIST_H_
