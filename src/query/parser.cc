#include "query/parser.h"

#include <algorithm>
#include <cmath>

#include "query/lexer.h"

namespace relfab::query {

namespace {

/// Token-stream cursor bound to a target schema.
class ParseContext {
 public:
  ParseContext(const std::vector<Token>* tokens, const layout::Schema* schema)
      : tokens_(tokens), schema_(schema) {}

  const Token& Peek() const { return (*tokens_)[pos_]; }
  /// Consumes one token; the trailing kEnd token is never stepped past,
  /// so a later Peek() (or Error()) stays inside the token vector.
  const Token& Next() {
    const Token& t = (*tokens_)[pos_];
    if (t.type != TokenType::kEnd) ++pos_;
    return t;
  }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }
  size_t pos() const { return pos_; }
  void Seek(size_t pos) { pos_ = pos; }

  Status Expect(std::string_view symbol) {
    if (!Peek().IsSymbol(symbol)) {
      return Error(std::string("expected '") + std::string(symbol) + "'");
    }
    ++pos_;
    return Status::Ok();
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(message + " at offset " +
                                   std::to_string(Peek().offset));
  }

  StatusOr<uint32_t> ResolveColumn(const std::string& name) const {
    return schema_->IndexOf(name);
  }

  const layout::Schema& schema() const { return *schema_; }

 private:
  const std::vector<Token>* tokens_;
  const layout::Schema* schema_;
  size_t pos_ = 0;
};

StatusOr<int32_t> ParseExpr(ParseContext* ctx, engine::ExprPool* pool);

StatusOr<int32_t> ParseFactor(ParseContext* ctx, engine::ExprPool* pool) {
  const Token& t = ctx->Peek();
  if (t.type == TokenType::kNumber) {
    ctx->Next();
    return pool->Constant(t.number);
  }
  if (t.IsSymbol("-")) {
    ctx->Next();
    RELFAB_ASSIGN_OR_RETURN(int32_t inner, ParseFactor(ctx, pool));
    return pool->Sub(pool->Constant(0), inner);
  }
  if (t.IsSymbol("(")) {
    ctx->Next();
    RELFAB_ASSIGN_OR_RETURN(int32_t inner, ParseExpr(ctx, pool));
    RELFAB_RETURN_IF_ERROR(ctx->Expect(")"));
    return inner;
  }
  if (t.type == TokenType::kIdent) {
    ctx->Next();
    RELFAB_ASSIGN_OR_RETURN(uint32_t col, ctx->ResolveColumn(t.text));
    if (ctx->schema().type(col) == layout::ColumnType::kChar) {
      return ctx->Error("char column '" + t.text + "' in arithmetic");
    }
    return pool->Column(col);
  }
  return ctx->Error("expected expression");
}

StatusOr<int32_t> ParseTerm(ParseContext* ctx, engine::ExprPool* pool) {
  RELFAB_ASSIGN_OR_RETURN(int32_t lhs, ParseFactor(ctx, pool));
  while (ctx->Peek().IsSymbol("*")) {
    ctx->Next();
    RELFAB_ASSIGN_OR_RETURN(int32_t rhs, ParseFactor(ctx, pool));
    lhs = pool->Mul(lhs, rhs);
  }
  return lhs;
}

StatusOr<int32_t> ParseExpr(ParseContext* ctx, engine::ExprPool* pool) {
  RELFAB_ASSIGN_OR_RETURN(int32_t lhs, ParseTerm(ctx, pool));
  while (ctx->Peek().IsSymbol("+") || ctx->Peek().IsSymbol("-")) {
    const bool add = ctx->Next().IsSymbol("+");
    RELFAB_ASSIGN_OR_RETURN(int32_t rhs, ParseTerm(ctx, pool));
    lhs = add ? pool->Add(lhs, rhs) : pool->Sub(lhs, rhs);
  }
  return lhs;
}

StatusOr<engine::AggFunc> AggKeyword(const Token& t) {
  if (t.IsKeyword("SUM")) return engine::AggFunc::kSum;
  if (t.IsKeyword("AVG")) return engine::AggFunc::kAvg;
  if (t.IsKeyword("MIN")) return engine::AggFunc::kMin;
  if (t.IsKeyword("MAX")) return engine::AggFunc::kMax;
  if (t.IsKeyword("COUNT")) return engine::AggFunc::kCount;
  return Status::NotFound("not an aggregate");
}

StatusOr<relmem::CompareOp> ParseCompareOp(ParseContext* ctx) {
  const Token& t = ctx->Next();
  if (t.IsSymbol("<")) return relmem::CompareOp::kLt;
  if (t.IsSymbol("<=")) return relmem::CompareOp::kLe;
  if (t.IsSymbol(">")) return relmem::CompareOp::kGt;
  if (t.IsSymbol(">=")) return relmem::CompareOp::kGe;
  if (t.IsSymbol("=")) return relmem::CompareOp::kEq;
  if (t.IsSymbol("!=")) return relmem::CompareOp::kNe;
  return ctx->Error("expected comparison operator");
}

}  // namespace

StatusOr<ParsedQuery> Parser::Parse(std::string_view sql) const {
  RELFAB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  // Locate FROM <table> first: the select list needs the schema.
  size_t from_idx = tokens.size();
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].IsKeyword("FROM")) {
      from_idx = i;
      break;
    }
  }
  if (from_idx == tokens.size()) {
    return Status::InvalidArgument("query has no FROM clause");
  }
  if (from_idx + 1 >= tokens.size() ||
      tokens[from_idx + 1].type != TokenType::kIdent) {
    return Status::InvalidArgument("expected table name after FROM");
  }
  ParsedQuery parsed;
  parsed.table = tokens[from_idx + 1].text;
  RELFAB_ASSIGN_OR_RETURN(TableEntry entry, catalog_->Lookup(parsed.table));
  const layout::Schema& schema = entry.schema();

  ParseContext ctx(&tokens, &schema);
  if (!ctx.Peek().IsKeyword("SELECT")) {
    return ctx.Error("expected SELECT");
  }
  ctx.Next();

  // --- select list (up to FROM) ---
  std::vector<uint32_t> bare_columns;
  while (ctx.pos() < from_idx) {
    const Token& t = ctx.Peek();
    auto agg = AggKeyword(t);
    if (agg.ok() && tokens[ctx.pos() + 1].IsSymbol("(")) {
      ctx.Next();  // aggregate keyword
      ctx.Next();  // '('
      engine::AggSpec spec;
      spec.func = *agg;
      if (spec.func == engine::AggFunc::kCount && ctx.Peek().IsSymbol("*")) {
        ctx.Next();
        spec.expr = -1;
      } else {
        RELFAB_ASSIGN_OR_RETURN(spec.expr,
                                ParseExpr(&ctx, &parsed.spec.exprs));
      }
      RELFAB_RETURN_IF_ERROR(ctx.Expect(")"));
      parsed.spec.aggregates.push_back(spec);
    } else if (t.type == TokenType::kIdent) {
      ctx.Next();
      RELFAB_ASSIGN_OR_RETURN(uint32_t col, ctx.ResolveColumn(t.text));
      bare_columns.push_back(col);
    } else {
      return ctx.Error("expected column or aggregate in select list");
    }
    if (ctx.pos() < from_idx) {
      RELFAB_RETURN_IF_ERROR(ctx.Expect(","));
    }
  }
  ctx.Seek(from_idx + 2);  // past FROM <table>

  // --- WHERE ---
  if (ctx.Peek().IsKeyword("WHERE")) {
    ctx.Next();
    while (true) {
      const Token& col_tok = ctx.Next();
      if (col_tok.type != TokenType::kIdent) {
        return ctx.Error("expected column in WHERE");
      }
      RELFAB_ASSIGN_OR_RETURN(uint32_t col, ctx.ResolveColumn(col_tok.text));
      RELFAB_ASSIGN_OR_RETURN(relmem::CompareOp op, ParseCompareOp(&ctx));
      const Token& lit = ctx.Next();
      if (lit.type != TokenType::kNumber) {
        return ctx.Error("expected numeric literal in WHERE");
      }
      engine::Predicate pred;
      pred.column = col;
      pred.op = op;
      pred.double_operand = lit.number;
      pred.int_operand = static_cast<int64_t>(std::llround(lit.number));
      parsed.spec.predicates.push_back(pred);
      if (ctx.Peek().IsKeyword("AND")) {
        ctx.Next();
        continue;
      }
      break;
    }
  }

  // --- GROUP BY ---
  if (ctx.Peek().IsKeyword("GROUP")) {
    ctx.Next();
    if (!ctx.Peek().IsKeyword("BY")) return ctx.Error("expected BY");
    ctx.Next();
    while (true) {
      const Token& col_tok = ctx.Next();
      if (col_tok.type != TokenType::kIdent) {
        return ctx.Error("expected column in GROUP BY");
      }
      RELFAB_ASSIGN_OR_RETURN(uint32_t col, ctx.ResolveColumn(col_tok.text));
      parsed.spec.group_by.push_back(col);
      if (ctx.Peek().IsSymbol(",")) {
        ctx.Next();
        continue;
      }
      break;
    }
  }
  if (ctx.Peek().IsSymbol(";")) ctx.Next();
  if (!ctx.AtEnd()) return ctx.Error("unexpected trailing input");

  // Bare selected columns: projection for scan queries, otherwise they
  // must be group keys.
  if (parsed.spec.aggregates.empty()) {
    parsed.spec.projection = std::move(bare_columns);
  } else {
    for (uint32_t col : bare_columns) {
      if (std::find(parsed.spec.group_by.begin(), parsed.spec.group_by.end(),
                    col) == parsed.spec.group_by.end()) {
        return Status::InvalidArgument(
            "selected column '" + schema.column(col).name +
            "' must appear in GROUP BY");
      }
    }
  }
  RELFAB_RETURN_IF_ERROR(parsed.spec.Validate(schema));
  return parsed;
}

}  // namespace relfab::query
