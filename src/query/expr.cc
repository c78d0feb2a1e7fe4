#include "query/expr.h"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>

#include "bitmap/codec.h"
#include "bitmap/wah_ops.h"
#include "common/logging.h"
#include "storage/value_compare.h"

namespace cods {

namespace {

std::shared_ptr<Expr> MakeLeaf(ExprKind kind, std::string column) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  e->column = std::move(column);
  return e;
}

// Grammar precedence, used to emit minimal parentheses: OR < AND < NOT
// < leaf. AND/OR are associative, so a same-kind child prints bare (it
// re-parses flattened, which is equivalent).
int Precedence(ExprKind kind) {
  switch (kind) {
    case ExprKind::kOr:
      return 1;
    case ExprKind::kAnd:
      return 2;
    case ExprKind::kNot:
      return 3;
    default:
      return 4;
  }
}

std::string ToStringWithParens(const Expr& child, int parent_prec) {
  std::string s = child.ToString();
  if (Precedence(child.kind) < parent_prec) return "(" + s + ")";
  return s;
}

}  // namespace

const char* ExprKindToString(ExprKind kind) {
  switch (kind) {
    case ExprKind::kCompare:
      return "COMPARE";
    case ExprKind::kIn:
      return "IN";
    case ExprKind::kBetween:
      return "BETWEEN";
    case ExprKind::kNot:
      return "NOT";
    case ExprKind::kAnd:
      return "AND";
    case ExprKind::kOr:
      return "OR";
  }
  return "?";
}

ExprPtr Expr::Compare(std::string column, CompareOp op, Value literal) {
  auto e = MakeLeaf(ExprKind::kCompare, std::move(column));
  e->op = op;
  e->literal = std::move(literal);
  return e;
}

ExprPtr Expr::In(std::string column, std::vector<Value> values) {
  // An empty list would render as "c IN ()", which the grammar rejects
  // — enforce non-emptiness here like And/Or do, so every constructible
  // expression round-trips through ToString.
  CODS_CHECK(!values.empty()) << "IN needs at least one value";
  auto e = MakeLeaf(ExprKind::kIn, std::move(column));
  e->in_values = std::move(values);
  return e;
}

ExprPtr Expr::Between(std::string column, Value lo, Value hi) {
  auto e = MakeLeaf(ExprKind::kBetween, std::move(column));
  e->between_lo = std::move(lo);
  e->between_hi = std::move(hi);
  return e;
}

ExprPtr Expr::Not(ExprPtr child) {
  CODS_CHECK(child != nullptr) << "NOT needs a child expression";
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kNot;
  e->children.push_back(std::move(child));
  return e;
}

ExprPtr Expr::And(std::vector<ExprPtr> children) {
  CODS_CHECK(!children.empty()) << "AND needs at least one child";
  for (const ExprPtr& c : children) CODS_CHECK(c != nullptr);
  if (children.size() == 1) return children[0];
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kAnd;
  e->children = std::move(children);
  return e;
}

ExprPtr Expr::Or(std::vector<ExprPtr> children) {
  CODS_CHECK(!children.empty()) << "OR needs at least one child";
  for (const ExprPtr& c : children) CODS_CHECK(c != nullptr);
  if (children.size() == 1) return children[0];
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kOr;
  e->children = std::move(children);
  return e;
}

bool Expr::LeafMatches(const Value& v) const {
  switch (kind) {
    case ExprKind::kCompare:
      return EvalCompare(v, op, literal);
    case ExprKind::kIn:
      for (const Value& candidate : in_values) {
        // Order-equivalence, like EvalCompare's kEq: int64 3 matches a
        // double 3.0 list entry.
        if (EvalCompare(v, CompareOp::kEq, candidate)) return true;
      }
      return false;
    case ExprKind::kBetween:
      return !(v < between_lo) && !(between_hi < v);
    default:
      CODS_CHECK(false) << "LeafMatches on non-leaf " << ExprKindToString(kind);
      return false;
  }
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kCompare:
      return column + " " + CompareOpToString(op) + " " +
             FormatScriptLiteral(literal);
    case ExprKind::kIn: {
      std::string out = column + " IN (";
      for (size_t i = 0; i < in_values.size(); ++i) {
        if (i > 0) out += ", ";
        out += FormatScriptLiteral(in_values[i]);
      }
      return out + ")";
    }
    case ExprKind::kBetween:
      return column + " BETWEEN " + FormatScriptLiteral(between_lo) +
             " AND " + FormatScriptLiteral(between_hi);
    case ExprKind::kNot:
      return "NOT " + ToStringWithParens(*children[0], Precedence(kind));
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const char* sep = kind == ExprKind::kAnd ? " AND " : " OR ";
      std::string out;
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += sep;
        out += ToStringWithParens(*children[i], Precedence(kind));
      }
      return out;
    }
  }
  return "?";
}

bool ExprEquals(const Expr& a, const Expr& b) {
  if (a.kind != b.kind || a.column != b.column || a.op != b.op ||
      a.literal != b.literal || a.in_values != b.in_values ||
      a.between_lo != b.between_lo || a.between_hi != b.between_hi ||
      a.children.size() != b.children.size()) {
    return false;
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!ExprEquals(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

namespace {

// The recursive normalizer: `negate` carries a pending NOT down the
// tree. Comparisons absorb it (total Value order makes the negated
// operator exact), AND/OR flip De Morgan-style, IN/BETWEEN keep a
// residual NOT directly above the leaf (evaluated as a complement).
ExprPtr Normalize(const ExprPtr& node, bool negate) {
  switch (node->kind) {
    case ExprKind::kCompare:
      if (!negate) return node;
      return Expr::Compare(node->column, NegateCompareOp(node->op),
                           node->literal);
    case ExprKind::kIn:
    case ExprKind::kBetween:
      return negate ? Expr::Not(node) : node;
    case ExprKind::kNot:
      return Normalize(node->children[0], !negate);
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      bool is_and = (node->kind == ExprKind::kAnd) != negate;
      ExprKind kind = is_and ? ExprKind::kAnd : ExprKind::kOr;
      std::vector<ExprPtr> flat;
      flat.reserve(node->children.size());
      for (const ExprPtr& child : node->children) {
        ExprPtr n = Normalize(child, negate);
        if (n->kind == kind) {
          // Same-kind child: splice its children in (flattening), so
          // the whole run feeds ONE k-way kernel call.
          flat.insert(flat.end(), n->children.begin(), n->children.end());
        } else {
          flat.push_back(std::move(n));
        }
      }
      return is_and ? Expr::And(std::move(flat)) : Expr::Or(std::move(flat));
    }
  }
  return node;
}

// Leaves of the normalized tree, in DFS order: kCompare/kIn/kBetween
// nodes, plus kNot nodes (whose single child is an IN/BETWEEN leaf).
// Each OCCURRENCE gets its own slot so evaluation can move results out.
void CollectLeaves(const Expr& node, std::vector<const Expr*>* leaves) {
  switch (node.kind) {
    case ExprKind::kCompare:
    case ExprKind::kIn:
    case ExprKind::kBetween:
    case ExprKind::kNot:
      leaves->push_back(&node);
      return;
    case ExprKind::kAnd:
    case ExprKind::kOr:
      for (const ExprPtr& child : node.children) {
        CollectLeaves(*child, leaves);
      }
      return;
  }
}

// The rows holding one of `vids`, or with `complement` every other row
// (exact: a column's value bitmaps partition its rows).
struct LeafVids {
  std::vector<Vid> vids;  // ascending, distinct
  bool complement = false;
};

// The one leaf resolver. A point leaf (=, !=, IN, NOT IN) probes the
// hash index once per literal, != and NOT IN as the complement of the
// probe. Other leaves, and literals whose probe could disagree with
// EvalCompare's order, scan the dictionary.
LeafVids MatchingVids(const Column& column, const Expr& leaf) {
  LeafVids out;
  const Expr* inner = &leaf;
  if (leaf.kind == ExprKind::kNot) {
    out.complement = true;
    inner = leaf.children[0].get();
  }
  const Dictionary& dict = column.dict();
  const bool compare = inner->kind == ExprKind::kCompare;
  const bool ne = compare && inner->op == CompareOp::kNe;
  std::span<const Value> literals;
  if (inner->kind == ExprKind::kIn) literals = inner->in_values;
  if (ne || (compare && inner->op == CompareOp::kEq)) {
    literals = {&inner->literal, 1};
  }
  if (!literals.empty() &&
      std::all_of(literals.begin(), literals.end(), [&](const Value& v) {
        return dict.LookupIsOrderExact(v);
      })) {
    for (const Value& v : literals) {
      if (std::optional<Vid> vid = dict.Lookup(v)) out.vids.push_back(*vid);
    }
    std::ranges::sort(out.vids);
    out.vids.erase(std::ranges::unique(out.vids).begin(), out.vids.end());
    out.complement ^= ne;
    return out;
  }
  for (Vid vid = 0; vid < dict.size(); ++vid) {
    if (inner->LeafMatches(dict.value(vid))) out.vids.push_back(vid);
  }
  return out;
}

// The column a leaf (or a kNot over one) reads. References bind
// loosely: exact name, unique qualified suffix, or `<table>.<col>` of
// the probed table (cross-table WHERE clauses).
Result<std::shared_ptr<const Column>> LeafColumn(const Table& table,
                                                 const Expr& leaf) {
  const Expr& inner = leaf.kind == ExprKind::kNot ? *leaf.children[0] : leaf;
  return table.ColumnByRef(inner.column);
}

// One leaf to its selection bitmap: a single-pass k-way union of the
// matching value bitmaps, complemented when the leaf selects the rest.
Result<WahBitmap> EvalLeafBitmap(const Table& table, const Expr& leaf) {
  CODS_ASSIGN_OR_RETURN(auto col, LeafColumn(table, leaf));
  LeafVids match = MatchingVids(*col, leaf);
  std::vector<const ValueBitmap*> bitmaps;
  for (Vid vid : match.vids) bitmaps.push_back(&col->bitmap(vid));
  WahBitmap bm = CodecOrManyWah(bitmaps, table.rows());
  if (match.complement) return WahNot(bm);
  return bm;
}

// Evaluates every leaf of the normalized tree in parallel (one task per
// leaf). Every leaf always runs, so invalid leaves error identically at
// every thread count; the first error in DFS leaf order wins.
Result<std::vector<WahBitmap>> EvalAllLeaves(
    const ExecContext& ctx, const Table& table,
    const std::vector<const Expr*>& leaves) {
  std::vector<Result<WahBitmap>> slots(leaves.size(),
                                       Result<WahBitmap>(WahBitmap()));
  Status st = ParallelFor(ctx, 0, leaves.size(), 1, [&](uint64_t i) {
    slots[i] = EvalLeafBitmap(table, *leaves[i]);
    return Status::OK();
  });
  CODS_CHECK(st.ok()) << st.ToString();
  std::vector<WahBitmap> evaluated;
  evaluated.reserve(leaves.size());
  for (Result<WahBitmap>& slot : slots) {
    CODS_RETURN_NOT_OK(slot.status());
    evaluated.push_back(std::move(slot).ValueOrDie());
  }
  return evaluated;
}

// Bottom-up combine over the normalized tree. `cursor` walks the leaf
// slots in the same DFS order CollectLeaves produced; each slot is
// consumed (moved) exactly once.
WahBitmap Combine(const Expr& node, uint64_t rows,
                  std::vector<WahBitmap>& slots, size_t& cursor) {
  switch (node.kind) {
    case ExprKind::kCompare:
    case ExprKind::kIn:
    case ExprKind::kBetween:
    case ExprKind::kNot:
      return std::move(slots[cursor++]);
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      std::vector<WahBitmap> kids;
      kids.reserve(node.children.size());
      for (const ExprPtr& child : node.children) {
        kids.push_back(Combine(*child, rows, slots, cursor));
      }
      if (node.kind == ExprKind::kAnd) {
        // O(1) per-child emptiness skips the k-way AND entirely;
        // pairwise-disjoint operands are handled by zero-fill
        // annihilation inside the single k-way merge.
        for (const WahBitmap& k : kids) {
          if (k.IsAllZeros()) {
            WahBitmap none;
            none.AppendRun(false, rows);
            return none;
          }
        }
        return WahAndMany(kids, rows);
      }
      return WahOrMany(kids, rows);
    }
  }
  return WahBitmap();
}

}  // namespace

uint64_t CountLeafRows(const Column& column, const Expr& leaf) {
  LeafVids match = MatchingVids(column, leaf);
  uint64_t rows = 0;
  for (Vid vid : match.vids) rows += column.ValueCount(vid);
  return match.complement ? column.rows() - rows : rows;
}

ExprPtr NormalizeExpr(const ExprPtr& expr) {
  CODS_CHECK(expr != nullptr) << "NormalizeExpr on null expression";
  return Normalize(expr, false);
}

Result<WahBitmap> EvalExpr(const Table& table, const ExprPtr& expr,
                           const ExecContext* ctx) {
  ExprPtr root = NormalizeExpr(expr);
  std::vector<const Expr*> leaves;
  CollectLeaves(*root, &leaves);
  CODS_ASSIGN_OR_RETURN(
      std::vector<WahBitmap> slots,
      EvalAllLeaves(ResolveContext(ctx), table, leaves));
  size_t cursor = 0;
  return Combine(*root, table.rows(), slots, cursor);
}

Result<uint64_t> EvalExprCount(const Table& table, const ExprPtr& expr,
                               const ExecContext* ctx) {
  ExprPtr root = NormalizeExpr(expr);
  if (root->kind != ExprKind::kAnd && root->kind != ExprKind::kOr) {
    CODS_ASSIGN_OR_RETURN(auto col, LeafColumn(table, *root));
    return CountLeafRows(*col, *root);
  }
  std::vector<const Expr*> leaves;
  CollectLeaves(*root, &leaves);
  CODS_ASSIGN_OR_RETURN(
      std::vector<WahBitmap> slots,
      EvalAllLeaves(ResolveContext(ctx), table, leaves));
  size_t cursor = 0;
  // The root node's bitmap is never materialized: its children combine
  // normally, then the count-only kernel folds them.
  std::vector<WahBitmap> kids;
  kids.reserve(root->children.size());
  for (const ExprPtr& child : root->children) {
    kids.push_back(Combine(*child, table.rows(), slots, cursor));
  }
  if (root->kind == ExprKind::kAnd) {
    for (const WahBitmap& k : kids) {
      if (k.IsAllZeros()) return 0;
    }
    return WahAndManyCount(kids, table.rows());
  }
  return WahOrManyCount(kids, table.rows());
}

}  // namespace cods
