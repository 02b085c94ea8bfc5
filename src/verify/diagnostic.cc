#include "verify/diagnostic.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "support/json.h"

namespace alcop {
namespace verify {

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

std::string Diagnostic::Render() const {
  std::ostringstream out;
  out << SeverityName(severity) << "[" << code << "]";
  if (span.IsKnown()) {
    out << " at line " << span.line << ":" << span.column;
  }
  out << ": " << message;
  if (!path.empty()) {
    out << "\n  at: " << path;
  }
  for (const std::string& note : notes) {
    out << "\n  note: " << note;
  }
  return out.str();
}

Diagnostic& DiagnosticEngine::Emit(Severity severity, std::string code,
                                   std::string message) {
  Diagnostic diag;
  diag.severity = severity;
  diag.code = std::move(code);
  diag.message = std::move(message);
  diagnostics_.push_back(std::move(diag));
  return diagnostics_.back();
}

void DiagnosticEngine::Report(Diagnostic diag) {
  diagnostics_.push_back(std::move(diag));
}

bool DiagnosticEngine::HasErrors() const { return ErrorCount() > 0; }

size_t DiagnosticEngine::ErrorCount() const {
  size_t count = 0;
  for (const Diagnostic& diag : diagnostics_) {
    if (diag.severity == Severity::kError) ++count;
  }
  return count;
}

std::string DiagnosticEngine::Render() const {
  std::ostringstream out;
  for (const Diagnostic& diag : diagnostics_) {
    out << diag.Render() << "\n";
  }
  return out.str();
}

std::string StmtLabel(const ir::StmtNode* s) {
  using namespace alcop::ir;  // NOLINT(build/namespaces) - IR node kinds
  switch (s->kind) {
    case StmtKind::kCopy: {
      const auto* op = static_cast<const CopyNode*>(s);
      return std::string(op->is_async ? "copy.async(" : "copy(") +
             op->dst.buffer->name + ")";
    }
    case StmtKind::kFill:
      return "fill(" + static_cast<const FillNode*>(s)->dst.buffer->name + ")";
    case StmtKind::kMma:
      return "mma(" + static_cast<const MmaNode*>(s)->c.buffer->name + ")";
    case StmtKind::kSync: {
      const auto* op = static_cast<const SyncNode*>(s);
      if (op->sync_kind == SyncKind::kBarrier) return "barrier";
      std::string name = op->buffers.empty() ? "?" : op->buffers[0]->name;
      return name + "." + SyncKindName(op->sync_kind) + "@group" +
             std::to_string(op->group);
    }
    case StmtKind::kAlloc:
      return "alloc(" + static_cast<const AllocNode*>(s)->buffer->name + ")";
    default:
      return "stmt";
  }
}

void SortDiagnostics(std::vector<Diagnostic>* diagnostics) {
  std::stable_sort(diagnostics->begin(), diagnostics->end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return std::make_tuple(a.span.line, a.span.column,
                                            std::cref(a.code)) <
                            std::make_tuple(b.span.line, b.span.column,
                                            std::cref(b.code));
                   });
}

namespace {

// `s` as a quoted JSON string.
std::string Quoted(const std::string& s) {
  return "\"" + support::JsonEscape(s) + "\"";
}

}  // namespace

std::string DiagnosticsToJson(const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& diag = diagnostics[i];
    if (i > 0) out << ",";
    out << "\n  {\"severity\": " << Quoted(SeverityName(diag.severity))
        << ", \"code\": " << Quoted(diag.code)
        << ", \"line\": " << (diag.span.IsKnown() ? diag.span.line : 0)
        << ", \"column\": " << (diag.span.IsKnown() ? diag.span.column : 0)
        << ", \"message\": " << Quoted(diag.message)
        << ", \"path\": " << Quoted(diag.path) << ", \"notes\": [";
    for (size_t n = 0; n < diag.notes.size(); ++n) {
      if (n > 0) out << ", ";
      out << Quoted(diag.notes[n]);
    }
    out << "]}";
  }
  if (!diagnostics.empty()) out << "\n";
  out << "]";
  return out.str();
}

}  // namespace verify
}  // namespace alcop
