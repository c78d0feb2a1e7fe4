// The composable predicate AST of the query layer: compare, IN, BETWEEN,
// NOT, and arbitrarily nested AND/OR over single-column leaves. An Expr
// compiles onto the compressed-domain WAH kernels instead of a row scan:
//
//   1. Normalize: NOT is pushed down De Morgan-style (NOT over AND/OR
//      distributes, double NOT cancels) and NOT over a comparison folds
//      into the negated comparison operator (NegateCompareOp), so the
//      only surviving NOTs sit directly over IN/BETWEEN leaves. Same-kind
//      AND/AND and OR/OR children are flattened into one node, exposing
//      the maximal fan-in to the single-pass k-way kernels.
//   2. Leaf evaluation: a hash probe per literal (=, !=, IN, NOT IN) or
//      a dictionary scan (ranges) plus a k-way WahOrMany union of the
//      matching value bitmaps. Leaves evaluate in parallel on the
//      ExecContext (one task per leaf, pre-sized slots, first error in
//      leaf order), so results are bit-identical at every thread count.
//   3. Combine: AND/OR nodes feed their children to WahAndMany/WahOrMany
//      (one pass, no pairwise intermediates); a residual NOT is a WahNot
//      complement on top of its leaf. The complement is exact because
//      every row holds exactly one non-null value per column, so a
//      column's value bitmaps partition the row domain.
//
// This is the FastBit-style bitmap-index selection, generalized from
// flat predicate lists to arbitrary boolean trees.

#ifndef CODS_QUERY_EXPR_H_
#define CODS_QUERY_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "bitmap/wah_bitmap.h"
#include "common/compare.h"
#include "exec/exec.h"
#include "storage/table.h"

namespace cods {

struct Expr;
/// Nodes are immutable and shared; subtrees can be reused across
/// requests (and across threads) freely.
using ExprPtr = std::shared_ptr<const Expr>;

enum class ExprKind { kCompare, kIn, kBetween, kNot, kAnd, kOr };

const char* ExprKindToString(ExprKind kind);

/// One node of a predicate expression. Leaves (kCompare, kIn, kBetween)
/// name a column and carry literals; kNot has exactly one child; kAnd
/// and kOr have one or more. The factories below construct well-formed
/// nodes — use them instead of aggregate initialization.
struct Expr {
  ExprKind kind = ExprKind::kCompare;

  // Leaf payload.
  std::string column;
  CompareOp op = CompareOp::kEq;     // kCompare
  Value literal;                     // kCompare right-hand side
  std::vector<Value> in_values;      // kIn candidate set
  Value between_lo, between_hi;      // kBetween inclusive bounds

  // kNot: exactly one; kAnd/kOr: one or more.
  std::vector<ExprPtr> children;

  // ---- Factories ---------------------------------------------------------
  static ExprPtr Compare(std::string column, CompareOp op, Value literal);
  static ExprPtr In(std::string column, std::vector<Value> values);
  static ExprPtr Between(std::string column, Value lo, Value hi);
  static ExprPtr Not(ExprPtr child);
  static ExprPtr And(std::vector<ExprPtr> children);
  static ExprPtr Or(std::vector<ExprPtr> children);

  /// True when a row whose `column` holds `v` satisfies this LEAF
  /// (kCompare/kIn/kBetween only) — the dictionary-scan qualifier and
  /// the row-level oracle tests check against.
  bool LeafMatches(const Value& v) const;

  /// Renders the expression in the statement grammar of smo/parser.h
  /// ("a = 'x' AND (b > 3 OR NOT c IN (1, 2))"). Minimal parentheses;
  /// the output re-parses to an equivalent expression.
  std::string ToString() const;
};

/// Structural equality (same shape, columns, operators, literals).
bool ExprEquals(const Expr& a, const Expr& b);

/// The normalization pass described above, exposed for tests and for
/// plan display. Idempotent. Never errors: unknown columns are caught
/// at evaluation (bind) time.
ExprPtr NormalizeExpr(const ExprPtr& expr);

/// Rows `leaf` (a kCompare/kIn/kBetween leaf or a kNot over one)
/// selects on `column`, from the cached per-value counts. Shares
/// EvalExpr's leaf resolver: O(#literals) hash probes for =, !=, IN and
/// NOT IN; a dictionary scan for ranges and for literals
/// Dictionary::LookupIsOrderExact rejects.
uint64_t CountLeafRows(const Column& column, const Expr& leaf);

/// Evaluates `expr` to a selection bitmap of length table.rows().
/// Normalizes, resolves every leaf in parallel on `ctx` into a k-way
/// union of its value bitmaps, and combines with the k-way kernels.
/// Unknown columns error; the first error in leaf order wins at every
/// thread count.
Result<WahBitmap> EvalExpr(const Table& table, const ExprPtr& expr,
                           const ExecContext* ctx = nullptr);

/// Number of selected rows. A leaf root is CountLeafRows (no bitmap
/// work); an AND/OR root folds its children with the count-only k-way
/// kernels, so the root's selection bitmap is never materialized.
Result<uint64_t> EvalExprCount(const Table& table, const ExprPtr& expr,
                               const ExecContext* ctx = nullptr);

}  // namespace cods

#endif  // CODS_QUERY_EXPR_H_
