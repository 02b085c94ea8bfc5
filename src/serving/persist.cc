#include "serving/persist.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "sim/sim_cache.h"
#include "tuner/records.h"

namespace alcop {
namespace serving {

namespace {

// Not FNV-1a's 64-bit offset basis, 14695981039346656037, but that number
// without its last digit (see SpecFingerprint in persist.h).
constexpr uint64_t kFingerprintBasis = 1469598103934665603ull;
constexpr uint64_t kFnv64Prime = 1099511628211ull;
// The frame checksum is 32-bit FNV-1a.
constexpr uint32_t kFnv32Offset = 2166136261u;
constexpr uint32_t kFnv32Prime = 16777619u;

uint32_t Fnv32(const char* data, size_t size) {
  uint32_t hash = kFnv32Offset;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<uint8_t>(data[i]);
    hash *= kFnv32Prime;
  }
  return hash;
}

class Fingerprinter {
 public:
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    AddBits(bits);
  }
  void Add(int64_t v) { AddBits(static_cast<uint64_t>(v)); }
  void Add(int v) { AddBits(static_cast<uint64_t>(v)); }
  void Add(bool v) { AddBits(v ? 1 : 0); }
  uint64_t hash() const { return hash_; }

 private:
  void AddBits(uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xff;
      hash_ *= kFnv64Prime;
    }
  }
  uint64_t hash_ = kFingerprintBasis;
};

// Record types (one u8 leading each frame payload).
enum RecordType : uint8_t {
  kTimingRecord = 3,
  kTuningRecord = 4,
};

// ---------------------------------------------------------------------------
// Byte-buffer writer/reader. The reader bounds-checks every access and
// reports failure instead of reading past the payload, which is what
// makes corrupt frames skippable rather than fatal.
// ---------------------------------------------------------------------------

class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
  }
  void Raw(const void* data, size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }
  const std::string& buf() const { return buf_; }

 private:
  std::string buf_;
};

class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  bool U8(uint8_t* v) { return Raw(v, sizeof(*v)); }
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool I32(int32_t* v) { return Raw(v, sizeof(*v)); }
  bool I64(int64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  bool Str(std::string* s) {
    uint32_t size = 0;
    if (!U32(&size) || size > size_ - pos_) return false;
    s->assign(data_ + pos_, size);
    pos_ += size;
    return true;
  }
  bool Raw(void* out, size_t size) {
    if (size == 0) return true;  // `out` may be null (an empty vector)
    if (size > size_ - pos_) return false;
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
    return true;
  }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

void AppendFrame(std::string* out, const Writer& payload) {
  const std::string& body = payload.buf();
  uint32_t len = static_cast<uint32_t>(body.size());
  uint32_t checksum = Fnv32(body.data(), body.size());
  out->append(reinterpret_cast<const char*>(&len), sizeof(len));
  out->append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out->append(body);
}

// ---------------------------------------------------------------------------
// Field-wise record serializers: structs with padding (KernelTiming,
// ScheduleConfig) are never memcpy'd whole.
// ---------------------------------------------------------------------------

void WriteConfig(Writer* w, const schedule::ScheduleConfig& c) {
  w->I64(c.tile.tb_m);
  w->I64(c.tile.tb_n);
  w->I64(c.tile.tb_k);
  w->I64(c.tile.warp_m);
  w->I64(c.tile.warp_n);
  w->I64(c.tile.warp_k);
  w->I32(c.smem_stages);
  w->I32(c.reg_stages);
  w->I32(c.split_k);
  w->I32(c.raster_block);
  w->U8(c.inner_fusion ? 1 : 0);
  w->U8(c.swizzle ? 1 : 0);
  w->U8(c.async_copies ? 1 : 0);
}

bool ReadConfig(Reader* r, schedule::ScheduleConfig* c) {
  uint8_t fusion = 0, swizzle = 0, async = 0;
  bool ok = r->I64(&c->tile.tb_m) && r->I64(&c->tile.tb_n) &&
            r->I64(&c->tile.tb_k) && r->I64(&c->tile.warp_m) &&
            r->I64(&c->tile.warp_n) && r->I64(&c->tile.warp_k) &&
            r->I32(&c->smem_stages) && r->I32(&c->reg_stages) &&
            r->I32(&c->split_k) && r->I32(&c->raster_block) &&
            r->U8(&fusion) && r->U8(&swizzle) && r->U8(&async);
  if (!ok) return false;
  c->inner_fusion = fusion != 0;
  c->swizzle = swizzle != 0;
  c->async_copies = async != 0;
  return true;
}

void WriteOp(Writer* w, const schedule::GemmOp& op) {
  w->Str(op.name);
  w->I32(static_cast<int32_t>(op.family));
  w->I64(op.batch);
  w->I64(op.m);
  w->I64(op.n);
  w->I64(op.k);
  w->I32(static_cast<int32_t>(op.a_producer_op));
  w->F64(op.a_producer_param);
  w->I32(static_cast<int32_t>(op.epilogue_op));
  w->F64(op.epilogue_param);
}

bool ReadOp(Reader* r, schedule::GemmOp* op) {
  int32_t family = 0, producer = 0, epilogue = 0;
  bool ok = r->Str(&op->name) && r->I32(&family) && r->I64(&op->batch) &&
            r->I64(&op->m) && r->I64(&op->n) && r->I64(&op->k) &&
            r->I32(&producer) && r->F64(&op->a_producer_param) &&
            r->I32(&epilogue) && r->F64(&op->epilogue_param);
  if (!ok) return false;
  op->family = static_cast<schedule::OpFamily>(family);
  op->a_producer_op = static_cast<ir::EwiseOp>(producer);
  op->epilogue_op = static_cast<ir::EwiseOp>(epilogue);
  return true;
}

void WriteTiming(Writer* w, const std::string& key,
                 const sim::KernelTiming& t) {
  w->U8(kTimingRecord);
  w->Str(key);
  w->U8(t.feasible ? 1 : 0);
  w->Str(t.reason);
  w->F64(t.cycles);
  w->F64(t.microseconds);
  w->F64(t.tflops);
  w->I32(t.threadblocks_per_sm);
  w->I64(t.batches);
  w->F64(t.batch_cycles);
}

bool ReadTiming(Reader* r, std::string* key, sim::KernelTiming* t) {
  uint8_t feasible = 0;
  bool ok = r->Str(key) && r->U8(&feasible) && r->Str(&t->reason) &&
            r->F64(&t->cycles) && r->F64(&t->microseconds) &&
            r->F64(&t->tflops) && r->I32(&t->threadblocks_per_sm) &&
            r->I64(&t->batches) && r->F64(&t->batch_cycles);
  if (!ok) return false;
  t->feasible = feasible != 0;
  return true;
}

void WriteTuning(Writer* w, const tuner::StoredTuning& tuning) {
  w->U8(kTuningRecord);
  w->Str(tuning.op_key);
  WriteOp(w, tuning.op);
  w->U32(static_cast<uint32_t>(tuning.signature.size()));
  w->Raw(tuning.signature.data(), tuning.signature.size() * sizeof(double));
  w->U32(static_cast<uint32_t>(tuning.trials.size()));
  for (const tuner::StoredTrial& trial : tuning.trials) {
    WriteConfig(w, trial.config);
    w->F64(trial.cycles);
  }
}

bool ReadTuning(Reader* r, tuner::StoredTuning* tuning) {
  uint32_t dims = 0;
  if (!(r->Str(&tuning->op_key) && ReadOp(r, &tuning->op) && r->U32(&dims))) {
    return false;
  }
  tuning->signature.resize(dims);
  if (!r->Raw(tuning->signature.data(), dims * sizeof(double))) return false;
  uint32_t trials = 0;
  if (!r->U32(&trials)) return false;
  tuning->trials.resize(trials);
  for (tuner::StoredTrial& trial : tuning->trials) {
    if (!(ReadConfig(r, &trial.config) && r->F64(&trial.cycles))) {
      return false;
    }
  }
  return true;
}

}  // namespace

uint64_t SpecFingerprint(const target::GpuSpec& spec) {
  Fingerprinter fp;
  target::VisitDeviceNumerics(spec, [&fp](auto field) { fp.Add(field); });
  return fp.hash();
}

uint64_t FittedConstantsFingerprint(const target::GpuSpec& spec) {
  const target::ModelFit& fit = spec.model_fit;
  Fingerprinter fp;
  fp.Add(fit.iter_overhead_cycles);
  fp.Add(fit.fill_scale);
  return fp.hash();
}

std::string DefaultCachePath() {
  const char* dir = std::getenv("ALCOP_CACHE_DIR");
  if (dir == nullptr || dir[0] == '\0') return "";
  return std::string(dir) + "/sim_cache.alcp";
}

PersistStats SaveCache(const std::string& path, const target::GpuSpec& spec) {
  PersistStats stats;
  if (path.empty()) {
    stats.error = "empty cache path (is ALCOP_CACHE_DIR set?)";
    return stats;
  }

  std::string out;
  const uint32_t magic = kPersistMagic;
  const uint32_t version = kPersistVersion;
  const uint64_t spec_fp = SpecFingerprint(spec);
  const uint64_t fit_fp = FittedConstantsFingerprint(spec);
  out.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.append(reinterpret_cast<const char*>(&version), sizeof(version));
  out.append(reinterpret_cast<const char*>(&spec_fp), sizeof(spec_fp));
  out.append(reinterpret_cast<const char*>(&fit_fp), sizeof(fit_fp));

  for (const auto& [key, timing] : sim::SnapshotCachedTimings()) {
    Writer w;
    WriteTiming(&w, key, timing);
    AppendFrame(&out, w);
    ++stats.timings;
  }
  for (const tuner::StoredTuning& tuning : tuner::TuningStore::Global().Snapshot()) {
    Writer w;
    WriteTuning(&w, tuning);
    AppendFrame(&out, w);
    ++stats.tunings;
  }

  // Atomic write-then-rename: a crash mid-save leaves any previous file
  // intact, and readers only ever see complete files.
  std::error_code ec;
  std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path(), ec);
  }
  // One temporary file per save, so concurrent savers in one process
  // never write into the file another is renaming into place.
  static std::atomic<uint64_t> saves{0};
  std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(saves.fetch_add(1));
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) {
      stats.error = "cannot open " + tmp + " for writing";
      return stats;
    }
    file.write(out.data(), static_cast<std::streamsize>(out.size()));
    if (!file) {
      stats.error = "short write to " + tmp;
      return stats;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    stats.error = "rename to " + path + " failed";
    return stats;
  }
  stats.bytes = out.size();
  stats.ok = true;
  return stats;
}

PersistStats LoadCache(const std::string& path, const target::GpuSpec& spec) {
  PersistStats stats;
  if (path.empty()) {
    stats.error = "empty cache path (is ALCOP_CACHE_DIR set?)";
    sim::AddSimCacheDiskStats(0, 1, 0);
    return stats;
  }
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    stats.error = "cannot open " + path;
    sim::AddSimCacheDiskStats(0, 1, 0);
    return stats;
  }
  std::string data((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());

  constexpr size_t kHeaderBytes = 2 * sizeof(uint32_t) + 2 * sizeof(uint64_t);
  if (data.size() < kHeaderBytes) {
    stats.error = "truncated header";
    sim::AddSimCacheDiskStats(0, 1, 0);
    return stats;
  }
  uint32_t magic = 0, version = 0;
  uint64_t spec_fp = 0, fit_fp = 0;
  std::memcpy(&magic, data.data(), sizeof(magic));
  std::memcpy(&version, data.data() + 4, sizeof(version));
  std::memcpy(&spec_fp, data.data() + 8, sizeof(spec_fp));
  std::memcpy(&fit_fp, data.data() + 16, sizeof(fit_fp));
  if (magic != kPersistMagic) {
    stats.error = "bad magic (not an ALCOP cache file)";
    sim::AddSimCacheDiskStats(0, 1, 0);
    return stats;
  }
  if (version != kPersistVersion) {
    stats.error = "schema version mismatch (file " + std::to_string(version) +
                  ", expected " + std::to_string(kPersistVersion) + ")";
    sim::AddSimCacheDiskStats(0, 1, 0);
    return stats;
  }
  if (spec_fp != SpecFingerprint(spec)) {
    stats.error = "GpuSpec fingerprint mismatch (cache built for a different device model)";
    sim::AddSimCacheDiskStats(0, 1, 0);
    return stats;
  }
  if (fit_fp != FittedConstantsFingerprint(spec)) {
    stats.error = "fitted-constants fingerprint mismatch (model was re-calibrated)";
    sim::AddSimCacheDiskStats(0, 1, 0);
    return stats;
  }

  size_t pos = kHeaderBytes;
  while (pos < data.size()) {
    if (data.size() - pos < 8) {
      ++stats.skipped;  // torn tail
      break;
    }
    uint32_t len = 0, checksum = 0;
    std::memcpy(&len, data.data() + pos, sizeof(len));
    std::memcpy(&checksum, data.data() + pos + 4, sizeof(checksum));
    if (len > data.size() - pos - 8) {
      ++stats.skipped;  // frame truncated by a crash mid-append
      break;
    }
    const char* payload = data.data() + pos + 8;
    pos += 8 + len;
    if (Fnv32(payload, len) != checksum) {
      ++stats.skipped;  // corrupt frame; resync at the next one
      continue;
    }
    Reader r(payload, len);
    uint8_t type = 0;
    if (!r.U8(&type)) {
      ++stats.skipped;
      continue;
    }
    switch (type) {
      case kTimingRecord: {
        std::string key;
        sim::KernelTiming timing;
        if (!ReadTiming(&r, &key, &timing)) {
          ++stats.skipped;
          break;
        }
        sim::InsertCachedTiming(key, timing);
        ++stats.timings;
        break;
      }
      case kTuningRecord: {
        tuner::StoredTuning tuning;
        if (!ReadTuning(&r, &tuning)) {
          ++stats.skipped;
          break;
        }
        tuner::TuningStore::Global().Put(std::move(tuning));
        ++stats.tunings;
        break;
      }
      default:
        ++stats.skipped;  // unknown record type from a newer minor writer
        break;
    }
  }

  stats.bytes = data.size();
  stats.ok = true;
  sim::AddSimCacheDiskStats(stats.timings + stats.tunings, stats.skipped,
                            stats.bytes);
  return stats;
}

}  // namespace serving
}  // namespace alcop
