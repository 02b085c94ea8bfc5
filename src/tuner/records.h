// Tuning records: the canonical workload key and the process-wide store
// of completed tunings, so the best known schedule for a workload can be
// re-applied without re-searching (serving/persist.h saves the store
// across runs).
#ifndef ALCOP_TUNER_RECORDS_H_
#define ALCOP_TUNER_RECORDS_H_

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "schedule/schedule.h"

namespace alcop {
namespace tuner {

// Canonical workload key: family, batch and problem sizes (everything the
// schedule space depends on).
std::string OpKey(const schedule::GemmOp& op);

// A completed search worth remembering: the workload, its canonical
// feature signature (CanonicalSignature — the warm-start distance key),
// and every measured trial in proposal order. Unlike TuningResult, the
// trials carry explicit configs rather than space indices, so a stored
// tuning is meaningful without the enumerated space that produced it —
// the durable form the persistence layer serializes.
struct StoredTrial {
  schedule::ScheduleConfig config;
  double cycles = 0.0;
};

struct StoredTuning {
  std::string op_key;
  schedule::GemmOp op;
  std::vector<double> signature;  // CanonicalSignature(op, spec)
  std::vector<StoredTrial> trials;

  // Best (lowest-cycles) trial; nullopt if nothing measured finite.
  std::optional<StoredTrial> Best() const;
};

// Process-wide store of completed tunings, keyed by OpKey: the warm-start
// neighbor index and the tuning half of the persistent cache. Thread-safe;
// deterministic iteration (ordered by key) so serialization and
// nearest-neighbor ties are stable.
class TuningStore {
 public:
  static TuningStore& Global();

  // Replaces any existing tuning for the same op_key (latest search wins).
  void Put(StoredTuning tuning);
  std::optional<StoredTuning> Get(const std::string& op_key) const;
  std::vector<StoredTuning> Snapshot() const;  // key-ordered copies
  size_t Size() const;
  void Clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, StoredTuning> map_;
};

}  // namespace tuner
}  // namespace alcop

#endif  // ALCOP_TUNER_RECORDS_H_
