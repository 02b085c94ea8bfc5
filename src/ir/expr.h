// Integer index-expression IR.
//
// ALCOP's program transformation (Sec. III of the paper) manipulates the
// index arithmetic of memory accesses: shifting pipeline loop variables
// forward, wrapping them modulo the stage count, and carrying inner-pipeline
// overflow into the outer pipeline variable. This module provides the small
// immutable expression tree those rewrites operate on.
//
// Nodes are immutable and shared via shared_ptr, TVM-style: a mutation pass
// produces new nodes and structurally shares the untouched subtrees.
// Variables have pointer identity (two VarNodes with the same name are
// distinct variables).
#ifndef ALCOP_IR_EXPR_H_
#define ALCOP_IR_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace alcop {
namespace ir {

enum class ExprKind {
  kIntImm,
  kVar,
  kAdd,
  kSub,
  kMul,
  kFloorDiv,  // floor division (both operands non-negative in practice)
  kFloorMod,  // floor modulo
  kMin,
  kMax,
  kLT,  // comparisons evaluate to 0/1
  kLE,
  kGT,
  kGE,
  kEQ,
  kNE,
  kAnd,
  kOr,
};

// Returns a short printable token for an expression kind ("+"/"%"/"min"/..).
const char* ExprKindToken(ExprKind kind);

class ExprNode;
using Expr = std::shared_ptr<const ExprNode>;

// Base of all index expressions. `kind` tags the concrete node type so
// passes can switch without RTTI.
class ExprNode {
 public:
  explicit ExprNode(ExprKind kind) : kind(kind) {}
  virtual ~ExprNode() = default;

  ExprKind kind;
};

// Compile-time integer constant.
class IntImmNode final : public ExprNode {
 public:
  explicit IntImmNode(int64_t value) : ExprNode(ExprKind::kIntImm), value(value) {}
  int64_t value;
};

// Loop/iteration variable; identity is the node pointer.
class VarNode final : public ExprNode {
 public:
  explicit VarNode(std::string name)
      : ExprNode(ExprKind::kVar), name(std::move(name)) {}
  std::string name;
};

using Var = std::shared_ptr<const VarNode>;

// Any two-operand arithmetic/logical node; `kind` selects the operator.
class BinaryNode final : public ExprNode {
 public:
  BinaryNode(ExprKind kind, Expr a, Expr b)
      : ExprNode(kind), a(std::move(a)), b(std::move(b)) {}
  Expr a;
  Expr b;
};

// ---- Construction helpers ----

Expr Int(int64_t value);
Var MakeVar(const std::string& name);
Expr Binary(ExprKind kind, Expr a, Expr b);

Expr Add(Expr a, Expr b);
Expr Sub(Expr a, Expr b);
Expr Mul(Expr a, Expr b);
Expr FloorDiv(Expr a, Expr b);
Expr FloorMod(Expr a, Expr b);
Expr Min(Expr a, Expr b);
Expr Max(Expr a, Expr b);

// Convenience mixed-operand overloads used heavily by the lowering code.
Expr Add(Expr a, int64_t b);
Expr Mul(Expr a, int64_t b);
Expr FloorDiv(Expr a, int64_t b);
Expr FloorMod(Expr a, int64_t b);

// ---- Inspection helpers ----

// If `e` is an IntImm, returns its value; otherwise nullopt-like via flag.
bool AsConst(const Expr& e, int64_t* value);

// True if the expression is the constant `value`.
bool IsConst(const Expr& e, int64_t value);

// Collects the distinct variables appearing in `e` (in first-visit order).
std::vector<Var> CollectVars(const Expr& e);

// True if variable `v` (pointer identity) appears in `e`.
bool UsesVar(const Expr& e, const Var& v);

// Substitutes every occurrence of variable `v` with `replacement`.
Expr Substitute(const Expr& e, const Var& v, const Expr& replacement);

// Simultaneous substitution: all replacements refer to the *original*
// variables (a replacement expression may mention another substituted
// variable without being rewritten again). The pipeline transformation
// relies on this when shifting an inner pipeline variable and carrying its
// overflow into the outer pipeline variable in one step.
Expr SubstituteSimultaneous(const Expr& e,
                            const std::vector<std::pair<Var, Expr>>& subs);

// Evaluates a closed expression given variable bindings; throws CheckError
// if an unbound variable is encountered or a divisor is zero.
struct VarBinding {
  const VarNode* var;
  int64_t value;
};
int64_t Evaluate(const Expr& e, const std::vector<VarBinding>& bindings);

}  // namespace ir
}  // namespace alcop

#endif  // ALCOP_IR_EXPR_H_
