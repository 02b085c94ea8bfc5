#include "analysis/races.h"

#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "verify/sync_walk.h"

namespace alcop {
namespace analysis {

using namespace alcop::ir;  // NOLINT(google-build-using-namespace)

namespace {

// A concrete rectangular region: per-dim [lo, hi) element ranges.
struct Box {
  std::vector<int64_t> lo;
  std::vector<int64_t> hi;
};

bool Overlaps(const Box& a, const Box& b) {
  if (a.lo.size() != b.lo.size()) return false;
  for (size_t d = 0; d < a.lo.size(); ++d) {
    if (a.hi[d] <= b.lo[d] || b.hi[d] <= a.lo[d]) return false;
  }
  return true;
}

bool Contains(const Box& outer, const Box& inner) {
  if (outer.lo.size() != inner.lo.size()) return false;
  for (size_t d = 0; d < outer.lo.size(); ++d) {
    if (inner.lo[d] < outer.lo[d] || inner.hi[d] > outer.hi[d]) return false;
  }
  return true;
}

std::string BoxString(const Box& box) {
  std::ostringstream out;
  out << "[";
  for (size_t d = 0; d < box.lo.size(); ++d) {
    if (d > 0) out << ", ";
    out << box.lo[d] << ":" << box.hi[d];
  }
  out << "]";
  return out.str();
}

// One async write, live while its data may still be invisible.
struct BoxWrite {
  const BufferNode* buffer = nullptr;
  Box box;
  int64_t group = -1;   // commit-group index within its pipeline
  int pipeline = -1;    // pipeline group id
  bool live = false;    // still pending (not promoted, not overwritten)
};

// Tracks in-flight async writes by box; the FIFO holds indices into
// writes_.
class BoxTracker : public verify::SyncWalk<BoxTracker, size_t> {
 public:
  using SyncWalk::SyncWalk;

  void Read(const StmtNode* site, const BufferRegion& region) {
    auto it = live_.find(region.buffer.get());
    if (it == live_.end() || it->second.empty()) return;
    Box box;
    if (!EvalBox(region, site, &box)) return;
    for (size_t id : it->second) {
      const BoxWrite& w = writes_[id];
      if (!w.live || !Overlaps(box, w.box)) continue;
      std::ostringstream msg;
      msg << "read region " << BoxString(box) << " of '"
          << region.buffer->name
          << "' overlaps an in-flight async write (region-level race)";
      std::ostringstream note;
      note << "written region " << BoxString(w.box) << " by commit group "
           << w.group << " of pipeline group " << w.pipeline
           << ", not yet promoted by a consumer_wait";
      Report(site, verify::Severity::kError, "L003", msg.str(), note.str());
      return;
    }
  }

  // A synchronous write makes the overwritten data visible: live boxes
  // fully contained in the written box stop being pending.
  void Overwrite(const StmtNode* site, const BufferRegion& region) {
    Box box;
    if (!EvalBox(region, site, &box)) return;
    auto it = live_.find(region.buffer.get());
    if (it == live_.end()) return;
    std::vector<size_t>& live = it->second;
    for (size_t i = 0; i < live.size();) {
      BoxWrite& w = writes_[live[i]];
      if (w.live && Contains(box, w.box)) {
        w.live = false;
        live[i] = live.back();
        live.pop_back();
      } else {
        ++i;
      }
    }
  }

  bool AsyncWrite(const CopyNode* op, int64_t group, size_t* write) {
    Box box;
    if (!EvalBox(op->dst, op, &box)) return false;
    std::vector<size_t>& live = live_[op->dst.buffer.get()];
    for (size_t i = 0; i < live.size();) {
      BoxWrite& w = writes_[live[i]];
      bool earlier =
          !(w.pipeline == op->pipeline_group && w.group == group);
      if (w.live && Overlaps(box, w.box) && earlier) {
        std::ostringstream msg;
        msg << "async write region " << BoxString(box) << " of '"
            << op->dst.buffer->name
            << "' overlaps a live region of an earlier commit group (two "
               "live groups alias one region; wrong rolling index?)";
        std::ostringstream note;
        note << "aliased region " << BoxString(w.box) << " written by commit "
             << "group " << w.group << " of pipeline group " << w.pipeline;
        Report(op, verify::Severity::kWarning, "L004", msg.str(), note.str());
      }
      // A full overwrite transfers ownership to the newer group: the old
      // group's promotion must not make this data visible (the epoch
      // check of the slot-granular verifier).
      if (w.live && Contains(box, w.box) && earlier) {
        w.live = false;
        live[i] = live.back();
        live.pop_back();
        continue;
      }
      ++i;
    }
    *write = writes_.size();
    writes_.push_back(BoxWrite{op->dst.buffer.get(), std::move(box), group,
                               op->pipeline_group, true});
    live.push_back(*write);
    return true;
  }

  void Promote(size_t id) {
    BoxWrite& w = writes_[id];
    if (!w.live) return;
    w.live = false;
    std::vector<size_t>& live = live_[w.buffer];
    for (size_t i = 0; i < live.size(); ++i) {
      if (live[i] == id) {
        live[i] = live.back();
        live.pop_back();
        break;
      }
    }
  }

 private:
  void Report(const StmtNode* site, verify::Severity severity,
              const char* code, std::string message, std::string note) {
    verify::Diagnostic* diag = Emit(site, severity, code, std::move(message));
    if (diag != nullptr) diag->notes.push_back(std::move(note));
  }

  bool EvalBox(const BufferRegion& region, const StmtNode* site, Box* out) {
    out->lo.resize(region.offsets.size());
    out->hi.resize(region.offsets.size());
    for (size_t d = 0; d < region.offsets.size(); ++d) {
      if (!Eval(region.offsets[d], site, &out->lo[d])) return false;
      out->hi[d] = out->lo[d] +
                   (d < region.sizes.size() ? region.sizes[d] : 1);
    }
    return true;
  }

  std::vector<BoxWrite> writes_;
  std::unordered_map<const BufferNode*, std::vector<size_t>> live_;
};

}  // namespace

bool CheckRegionRaces(const ir::Stmt& program,
                      verify::DiagnosticEngine& diags) {
  BoxTracker tracker(&diags);
  tracker.Run(program);
  return tracker.reached_step_limit();
}

}  // namespace analysis
}  // namespace alcop
