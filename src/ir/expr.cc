#include "ir/expr.h"

#include <algorithm>

#include "support/check.h"

namespace alcop {
namespace ir {

const char* ExprKindToken(ExprKind kind) {
  switch (kind) {
    case ExprKind::kIntImm: return "int";
    case ExprKind::kVar: return "var";
    case ExprKind::kAdd: return "+";
    case ExprKind::kSub: return "-";
    case ExprKind::kMul: return "*";
    case ExprKind::kFloorDiv: return "/";
    case ExprKind::kFloorMod: return "%";
    case ExprKind::kMin: return "min";
    case ExprKind::kMax: return "max";
    case ExprKind::kLT: return "<";
    case ExprKind::kLE: return "<=";
    case ExprKind::kGT: return ">";
    case ExprKind::kGE: return ">=";
    case ExprKind::kEQ: return "==";
    case ExprKind::kNE: return "!=";
    case ExprKind::kAnd: return "&&";
    case ExprKind::kOr: return "||";
  }
  return "?";
}

Expr Int(int64_t value) { return std::make_shared<IntImmNode>(value); }

Var MakeVar(const std::string& name) { return std::make_shared<VarNode>(name); }

Expr Binary(ExprKind kind, Expr a, Expr b) {
  ALCOP_CHECK(a != nullptr && b != nullptr) << "binary operand is null";
  return std::make_shared<BinaryNode>(kind, std::move(a), std::move(b));
}

Expr Add(Expr a, Expr b) { return Binary(ExprKind::kAdd, std::move(a), std::move(b)); }
Expr Sub(Expr a, Expr b) { return Binary(ExprKind::kSub, std::move(a), std::move(b)); }
Expr Mul(Expr a, Expr b) { return Binary(ExprKind::kMul, std::move(a), std::move(b)); }
Expr FloorDiv(Expr a, Expr b) {
  return Binary(ExprKind::kFloorDiv, std::move(a), std::move(b));
}
Expr FloorMod(Expr a, Expr b) {
  return Binary(ExprKind::kFloorMod, std::move(a), std::move(b));
}
Expr Min(Expr a, Expr b) { return Binary(ExprKind::kMin, std::move(a), std::move(b)); }
Expr Max(Expr a, Expr b) { return Binary(ExprKind::kMax, std::move(a), std::move(b)); }

Expr Add(Expr a, int64_t b) { return Add(std::move(a), Int(b)); }
Expr Mul(Expr a, int64_t b) { return Mul(std::move(a), Int(b)); }
Expr FloorDiv(Expr a, int64_t b) { return FloorDiv(std::move(a), Int(b)); }
Expr FloorMod(Expr a, int64_t b) { return FloorMod(std::move(a), Int(b)); }

bool AsConst(const Expr& e, int64_t* value) {
  if (e->kind != ExprKind::kIntImm) return false;
  *value = static_cast<const IntImmNode*>(e.get())->value;
  return true;
}

bool IsConst(const Expr& e, int64_t value) {
  int64_t v = 0;
  return AsConst(e, &v) && v == value;
}

namespace {

void CollectVarsImpl(const Expr& e, std::vector<Var>& out) {
  if (e->kind == ExprKind::kVar) {
    const VarNode* node = static_cast<const VarNode*>(e.get());
    for (const Var& seen : out) {
      if (seen.get() == node) return;
    }
    out.push_back(std::static_pointer_cast<const VarNode>(e));
    return;
  }
  if (e->kind == ExprKind::kIntImm) return;
  const BinaryNode* bin = static_cast<const BinaryNode*>(e.get());
  CollectVarsImpl(bin->a, out);
  CollectVarsImpl(bin->b, out);
}

}  // namespace

std::vector<Var> CollectVars(const Expr& e) {
  std::vector<Var> out;
  CollectVarsImpl(e, out);
  return out;
}

bool UsesVar(const Expr& e, const Var& v) {
  if (e->kind == ExprKind::kVar) return e.get() == v.get();
  if (e->kind == ExprKind::kIntImm) return false;
  const BinaryNode* bin = static_cast<const BinaryNode*>(e.get());
  return UsesVar(bin->a, v) || UsesVar(bin->b, v);
}

Expr Substitute(const Expr& e, const Var& v, const Expr& replacement) {
  if (e->kind == ExprKind::kVar) {
    return e.get() == v.get() ? replacement : e;
  }
  if (e->kind == ExprKind::kIntImm) return e;
  const BinaryNode* bin = static_cast<const BinaryNode*>(e.get());
  Expr a = Substitute(bin->a, v, replacement);
  Expr b = Substitute(bin->b, v, replacement);
  if (a.get() == bin->a.get() && b.get() == bin->b.get()) return e;
  return Binary(e->kind, std::move(a), std::move(b));
}

Expr SubstituteSimultaneous(const Expr& e,
                            const std::vector<std::pair<Var, Expr>>& subs) {
  if (e->kind == ExprKind::kVar) {
    for (const auto& [var, replacement] : subs) {
      if (e.get() == var.get()) return replacement;
    }
    return e;
  }
  if (e->kind == ExprKind::kIntImm) return e;
  const BinaryNode* bin = static_cast<const BinaryNode*>(e.get());
  Expr a = SubstituteSimultaneous(bin->a, subs);
  Expr b = SubstituteSimultaneous(bin->b, subs);
  if (a.get() == bin->a.get() && b.get() == bin->b.get()) return e;
  return Binary(e->kind, std::move(a), std::move(b));
}

int64_t Evaluate(const Expr& e, const std::vector<VarBinding>& bindings) {
  switch (e->kind) {
    case ExprKind::kIntImm:
      return static_cast<const IntImmNode*>(e.get())->value;
    case ExprKind::kVar: {
      const VarNode* var = static_cast<const VarNode*>(e.get());
      for (const VarBinding& b : bindings) {
        if (b.var == var) return b.value;
      }
      ALCOP_CHECK(false) << "unbound variable '" << var->name << "' in Evaluate";
    }
    default:
      break;
  }
  const BinaryNode* bin = static_cast<const BinaryNode*>(e.get());
  int64_t a = Evaluate(bin->a, bindings);
  int64_t b = Evaluate(bin->b, bindings);
  switch (e->kind) {
    case ExprKind::kAdd: return a + b;
    case ExprKind::kSub: return a - b;
    case ExprKind::kMul: return a * b;
    case ExprKind::kFloorDiv: {
      ALCOP_CHECK_NE(b, 0) << "division by zero";
      int64_t q = a / b;
      if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
      return q;
    }
    case ExprKind::kFloorMod: {
      ALCOP_CHECK_NE(b, 0) << "modulo by zero";
      int64_t r = a % b;
      if (r != 0 && ((r < 0) != (b < 0))) r += b;
      return r;
    }
    case ExprKind::kMin: return std::min(a, b);
    case ExprKind::kMax: return std::max(a, b);
    case ExprKind::kLT: return a < b ? 1 : 0;
    case ExprKind::kLE: return a <= b ? 1 : 0;
    case ExprKind::kGT: return a > b ? 1 : 0;
    case ExprKind::kGE: return a >= b ? 1 : 0;
    case ExprKind::kEQ: return a == b ? 1 : 0;
    case ExprKind::kNE: return a != b ? 1 : 0;
    case ExprKind::kAnd: return (a != 0 && b != 0) ? 1 : 0;
    case ExprKind::kOr: return (a != 0 || b != 0) ? 1 : 0;
    default:
      ALCOP_CHECK(false) << "unhandled expression kind";
  }
  return 0;
}

}  // namespace ir
}  // namespace alcop
