#include "tuner/records.h"

#include <cmath>
#include <utility>

#include "schedule/tensor.h"

namespace alcop {
namespace tuner {

// Appended in place rather than through a stream: alcopd builds this key
// for every compile and tune request on its IO thread.
std::string OpKey(const schedule::GemmOp& op) {
  std::string key = schedule::OpFamilyName(op.family);
  key += '/';
  key += std::to_string(op.batch);
  key += '/';
  key += std::to_string(op.m);
  key += 'x';
  key += std::to_string(op.n);
  key += 'x';
  key += std::to_string(op.k);
  return key;
}

std::optional<StoredTrial> StoredTuning::Best() const {
  std::optional<StoredTrial> best;
  for (const StoredTrial& trial : trials) {
    if (!std::isfinite(trial.cycles)) continue;
    if (!best.has_value() || trial.cycles < best->cycles) best = trial;
  }
  return best;
}

TuningStore& TuningStore::Global() {
  static TuningStore* store = new TuningStore();  // leaked: outlives threads
  return *store;
}

void TuningStore::Put(StoredTuning tuning) {
  std::lock_guard<std::mutex> lock(mu_);
  map_[tuning.op_key] = std::move(tuning);
}

std::optional<StoredTuning> TuningStore::Get(const std::string& op_key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(op_key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

std::vector<StoredTuning> TuningStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StoredTuning> out;
  out.reserve(map_.size());
  for (const auto& [key, tuning] : map_) out.push_back(tuning);
  return out;
}

size_t TuningStore::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

void TuningStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

}  // namespace tuner
}  // namespace alcop
