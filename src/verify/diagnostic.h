// Reusable compiler-diagnostics engine.
//
// A Diagnostic is one finding: severity, a stable machine-readable code
// (e.g. "V001"), a human-readable message, the IR path of the offending
// statement ("for ko=3 / mma(C_acc)"), the source span when the statement
// came from a textual .tir file, and optional secondary notes.
//
// Four producers share the type:
//   - the static pipeline verifier (src/verify/verifier.*, codes V0xx),
//   - alcop-lint (src/analysis/, codes L0xx),
//   - the parser (codes P0xx, rendered into parse-error messages),
//   - the pipeline detection rules (codes D0xx, rejection reasons),
// and the functional executor renders its runtime async-semantics
// violations through it as well (codes X0xx), so every layer reports
// findings in the same format.
#ifndef ALCOP_VERIFY_DIAGNOSTIC_H_
#define ALCOP_VERIFY_DIAGNOSTIC_H_

#include <string>
#include <vector>

#include "ir/stmt.h"

namespace alcop {
namespace verify {

enum class Severity {
  kNote,
  kWarning,
  kError,
};

const char* SeverityName(Severity severity);

struct Diagnostic {
  Severity severity = Severity::kError;
  std::string code;     // stable identifier, e.g. "V001"
  std::string message;  // one-line description
  std::string path;     // IR path of the offending statement ("" if none)
  ir::SourceSpan span;  // source location when the IR was parsed from text
  std::vector<std::string> notes;

  // "error[V001] at line 12:5: <message>\n  at: <path>\n  note: ..."
  std::string Render() const;
};

// Collects diagnostics during one analysis run.
class DiagnosticEngine {
 public:
  // Appends a diagnostic and returns it for the caller to attach the
  // path/span/notes.
  Diagnostic& Emit(Severity severity, std::string code, std::string message);
  void Report(Diagnostic diag);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  bool HasErrors() const;
  size_t ErrorCount() const;
  std::string Render() const;  // all findings, one block per diagnostic
  void Clear() { diagnostics_.clear(); }

 private:
  std::vector<Diagnostic> diagnostics_;
};

// Short printable label of a statement ("copy.async(A_shared)",
// "A_shared.consumer_wait@group0"): the leaf of every diagnostic path and
// the name of a sync site.
std::string StmtLabel(const ir::StmtNode* s);

// Stable-sorts diagnostics by (line, column, code). Diagnostics with no
// source span (programmatically built IR) sort first and keep their
// emission order within equal keys, so multi-pass output is
// deterministic regardless of pass order.
void SortDiagnostics(std::vector<Diagnostic>* diagnostics);

// Renders diagnostics as a stable JSON array, shared by
// `alcop_cli verify --json` and `alcop_cli lint --json`. Schema per
// element (all keys always present, in this order):
//   {"severity": "error", "code": "V001", "line": 12, "column": 5,
//    "message": "...", "path": "...", "notes": ["..."]}
// line/column are 0 when the span is unknown.
std::string DiagnosticsToJson(const std::vector<Diagnostic>& diagnostics);

}  // namespace verify
}  // namespace alcop

#endif  // ALCOP_VERIFY_DIAGNOSTIC_H_
