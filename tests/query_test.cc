#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/fabric.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "query/planner.h"

namespace relfab::query {
namespace {

using layout::ColumnType;
using layout::RowBuilder;
using layout::Schema;

// ---------------------------------------------------------------- lexer

TEST(LexerTest, TokenizesSelectStatement) {
  auto tokens = Tokenize("SELECT a, SUM(b*2) FROM t WHERE c >= 1.5");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 15u);
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_EQ((*tokens)[1].text, "a");
  EXPECT_TRUE((*tokens)[2].IsSymbol(","));
  EXPECT_TRUE((*tokens)[3].IsKeyword("SUM"));
  EXPECT_TRUE((*tokens)[4].IsSymbol("("));
}

TEST(LexerTest, NumbersParseAsDoubles) {
  auto tokens = Tokenize("123 4.5 .25");
  ASSERT_TRUE(tokens.ok());
  EXPECT_DOUBLE_EQ((*tokens)[0].number, 123.0);
  EXPECT_DOUBLE_EQ((*tokens)[1].number, 4.5);
  EXPECT_DOUBLE_EQ((*tokens)[2].number, 0.25);
}

TEST(LexerTest, TwoCharOperators) {
  auto tokens = Tokenize("a <= b >= c != d <> e");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[1].IsSymbol("<="));
  EXPECT_TRUE((*tokens)[3].IsSymbol(">="));
  EXPECT_TRUE((*tokens)[5].IsSymbol("!="));
  EXPECT_TRUE((*tokens)[7].IsSymbol("!="));  // <> normalizes to !=
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Tokenize("select From wHeRe");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_TRUE((*tokens)[1].IsKeyword("FROM"));
  EXPECT_TRUE((*tokens)[2].IsKeyword("WHERE"));
}

TEST(LexerTest, StringsAndErrors) {
  auto ok = Tokenize("'hello world'");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)[0].text, "hello world");
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("a # b").ok());
}

// --------------------------------------------------- fabric test rig

class QueryTest : public ::testing::Test {
 protected:
  QueryTest() {
    auto schema = Schema::Create({
        {"id", ColumnType::kInt64, 0},
        {"qty", ColumnType::kInt32, 0},
        {"price", ColumnType::kDouble, 0},
        {"region", ColumnType::kChar, 4},
        {"pad0", ColumnType::kInt64, 0},
        {"pad1", ColumnType::kInt64, 0},
        {"pad2", ColumnType::kInt64, 0},
        {"pad3", ColumnType::kInt64, 0},
    });
    auto* table = fabric_.CreateTable("orders", std::move(*schema)).value();
    RowBuilder b(&table->schema());
    Random rng(5);
    const char* regions[] = {"EU", "US", "AP"};
    for (int i = 0; i < 2000; ++i) {
      b.Reset();
      b.AddInt64(i)
          .AddInt32(static_cast<int32_t>(rng.Uniform(50)))
          .AddDouble(static_cast<double>(rng.Uniform(10000)) / 100.0)
          .AddChar(regions[rng.Uniform(3)])
          .AddInt64(0)
          .AddInt64(0)
          .AddInt64(0)
          .AddInt64(0);
      table->AppendRow(b.Finish());
    }
  }

  Fabric fabric_;
};

// --------------------------------------------------------------- parser

TEST_F(QueryTest, ParsesAggregateQuery) {
  Parser parser(&fabric_.catalog());
  auto parsed = parser.Parse(
      "SELECT SUM(qty * price), COUNT(*) FROM orders WHERE qty < 10");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->table, "orders");
  EXPECT_EQ(parsed->spec.aggregates.size(), 2u);
  EXPECT_EQ(parsed->spec.predicates.size(), 1u);
  EXPECT_EQ(parsed->spec.predicates[0].column, 1u);
}

TEST_F(QueryTest, ParsesGroupBy) {
  Parser parser(&fabric_.catalog());
  auto parsed = parser.Parse(
      "SELECT region, AVG(price) FROM orders GROUP BY region");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->spec.group_by, (std::vector<uint32_t>{3}));
}

TEST_F(QueryTest, ParsesProjection) {
  Parser parser(&fabric_.catalog());
  auto parsed = parser.Parse("SELECT id, qty FROM orders");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->spec.projection, (std::vector<uint32_t>{0, 1}));
  EXPECT_TRUE(parsed->spec.aggregates.empty());
}

TEST_F(QueryTest, ParsesArithmeticPrecedence) {
  Parser parser(&fabric_.catalog());
  auto parsed =
      parser.Parse("SELECT SUM(qty + price * 2 - 1) FROM orders");
  ASSERT_TRUE(parsed.ok());
  const auto& exprs = parsed->spec.exprs;
  // Root is a Sub; its lhs an Add of qty and Mul.
  const auto& root = exprs.node(parsed->spec.aggregates[0].expr);
  EXPECT_EQ(root.kind, engine::ExprPool::Kind::kSub);
  EXPECT_EQ(exprs.node(root.lhs).kind, engine::ExprPool::Kind::kAdd);
}

TEST_F(QueryTest, ParseErrors) {
  Parser parser(&fabric_.catalog());
  EXPECT_FALSE(parser.Parse("SELECT a FROM nope").ok());
  EXPECT_FALSE(parser.Parse("SELECT bogus FROM orders").ok());
  EXPECT_FALSE(parser.Parse("qty FROM orders").ok());
  EXPECT_FALSE(parser.Parse("SELECT qty").ok());
  EXPECT_FALSE(parser.Parse("SELECT qty FROM orders WHERE region = 1").ok());
  EXPECT_FALSE(
      parser.Parse("SELECT qty, SUM(price) FROM orders").ok());
  EXPECT_FALSE(parser.Parse("SELECT SUM(region) FROM orders").ok());
  EXPECT_FALSE(parser.Parse("SELECT qty FROM orders trailing").ok());

  // Input that stops where a token is required reports the end of the
  // input as its offset, and never reads past the token stream.
  for (const std::string sql :
       {"SELECT qty FROM orders WHERE", "SELECT qty FROM orders WHERE qty",
        "SELECT qty FROM orders WHERE qty <",
        "SELECT SUM(qty) FROM orders GROUP BY"}) {
    auto parsed = parser.Parse(sql);
    ASSERT_FALSE(parsed.ok()) << sql;
    const std::string suffix = " at offset " + std::to_string(sql.size());
    const std::string& message = parsed.status().message();
    ASSERT_GE(message.size(), suffix.size()) << message;
    EXPECT_EQ(message.substr(message.size() - suffix.size()), suffix) << sql;
  }
}

TEST_F(QueryTest, SelectedColumnsMustBeGrouped) {
  Parser parser(&fabric_.catalog());
  EXPECT_FALSE(
      parser.Parse("SELECT qty, SUM(price) FROM orders GROUP BY region")
          .ok());
  EXPECT_TRUE(
      parser.Parse("SELECT region, SUM(price) FROM orders GROUP BY region")
          .ok());
}

// -------------------------------------------------------------- planner

TEST_F(QueryTest, PlannerPrefersRmForNarrowScansWithoutColumnarCopy) {
  auto plan = fabric_.ExplainSql("SELECT SUM(qty) FROM orders");
  ASSERT_TRUE(plan.ok());
  // No columnar copy exists: COL must be priced out entirely.
  EXPECT_TRUE(std::isinf(plan->est_cost_column));
  EXPECT_EQ(plan->backend, Backend::kRelationalMemory);
  EXPECT_NE(plan->explanation.find("RM"), std::string::npos);
}

TEST_F(QueryTest, PlannerCanChooseColumnarCopyWhenNarrow) {
  ASSERT_TRUE(fabric_.MaterializeColumnarCopy("orders").ok());
  auto plan = fabric_.ExplainSql("SELECT SUM(qty) FROM orders");
  ASSERT_TRUE(plan.ok());
  // One-column scan: the materialized columnar copy is the fastest path.
  EXPECT_EQ(plan->backend, Backend::kColumn);
}

TEST_F(QueryTest, PlannerChoiceTracksMeasuredOrdering) {
  ASSERT_TRUE(fabric_.MaterializeColumnarCopy("orders").ok());
  // For a spread of queries: execute on all three backends and check the
  // planner picked the (measured) cheapest or within 30% of it.
  const char* queries[] = {
      "SELECT SUM(qty) FROM orders",
      "SELECT SUM(qty*price) FROM orders WHERE qty < 25",
      "SELECT id, qty, price, pad0, pad1, pad2 FROM orders",
      "SELECT region, SUM(price), COUNT(*) FROM orders GROUP BY region",
  };
  Parser parser(&fabric_.catalog());
  for (const char* sql : queries) {
    auto parsed = parser.Parse(sql);
    ASSERT_TRUE(parsed.ok()) << sql;
    auto plan = fabric_.ExplainSql(sql);
    ASSERT_TRUE(plan.ok());
    uint64_t best = ~0ull;
    uint64_t chosen = 0;
    for (Backend backend : {Backend::kRow, Backend::kColumn,
                            Backend::kRelationalMemory}) {
      Plan probe = *plan;
      probe.backend = backend;
      fabric_.memory().ResetState();
      Executor executor(&fabric_.catalog(), &fabric_.rm(),
                        fabric_.cost_model());
      auto result = executor.Execute(probe);
      ASSERT_TRUE(result.ok()) << sql;
      if (result->sim_cycles < best) best = result->sim_cycles;
      if (backend == plan->backend) chosen = result->sim_cycles;
    }
    EXPECT_LE(chosen, best + best * 3 / 10)
        << sql << " chose " << BackendToString(plan->backend);
  }
}

// ---------------------------------------------------------- end to end

TEST_F(QueryTest, SqlCountMatchesTableSize) {
  auto result = fabric_.ExecuteSql("SELECT COUNT(*) FROM orders");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->result.aggregates.size(), 1u);
  EXPECT_DOUBLE_EQ(result->result.aggregates[0], 2000.0);
}

TEST_F(QueryTest, SqlMatchesHandBuiltSpec) {
  auto sql = fabric_.ExecuteSql(
      "SELECT SUM(qty*price) FROM orders WHERE qty >= 25");
  ASSERT_TRUE(sql.ok());
  // Hand-computed ground truth from the base table.
  auto* table = fabric_.GetTable("orders").value();
  double expected = 0;
  uint64_t matched = 0;
  for (uint64_t r = 0; r < table->num_rows(); ++r) {
    if (table->GetInt(r, 1) >= 25) {
      expected += table->GetDouble(r, 1) * table->GetDouble(r, 2);
      ++matched;
    }
  }
  EXPECT_NEAR(sql->result.aggregates[0], expected, 1e-6 * expected);
  EXPECT_EQ(sql->result.rows_matched, matched);
}

TEST_F(QueryTest, SqlGroupByProducesSortedGroups) {
  auto result = fabric_.ExecuteSql(
      "SELECT region, COUNT(*) FROM orders GROUP BY region");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->result.groups.size(), 3u);
  double total = 0;
  for (const auto& [key, aggs] : result->result.groups) total += aggs[0];
  EXPECT_DOUBLE_EQ(total, 2000.0);
}

TEST_F(QueryTest, AllBackendsAgreeOnSql) {
  ASSERT_TRUE(fabric_.MaterializeColumnarCopy("orders").ok());
  ASSERT_TRUE(fabric_.CreateIndex("orders", "id").ok());
  Executor executor(&fabric_.catalog(), &fabric_.rm(), fabric_.cost_model());
  const auto run = [&](const std::string& sql,
                       Backend backend) -> StatusOr<engine::QueryResult> {
    RELFAB_ASSIGN_OR_RETURN(Plan plan, fabric_.ExplainSql(sql));
    plan.backend = backend;
    fabric_.memory().ResetState();
    return executor.Execute(plan);
  };
  const Backend scans[] = {Backend::kRow, Backend::kColumn,
                           Backend::kRelationalMemory, Backend::kHybrid};
  const std::string sql =
      "SELECT SUM(price), MIN(qty), MAX(qty) FROM orders WHERE id < 1500";
  auto reference = run(sql, Backend::kRow);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (Backend backend : scans) {
    auto result = run(sql, backend);
    ASSERT_TRUE(result.ok()) << BackendToString(backend);
    EXPECT_TRUE(reference->SameAnswer(*result)) << BackendToString(backend);
  }

  // When no row matches, every aggregate is 0 on every path — MIN, MAX
  // and AVG included (AggState::Final) — and so is an index probe for a
  // key the table does not hold.
  const std::vector<double> zeros(5, 0.0);
  for (Backend backend : scans) {
    auto result = run(
        "SELECT COUNT(*), SUM(price), MIN(qty), MAX(qty), AVG(price) FROM "
        "orders WHERE qty > 100",
        backend);
    ASSERT_TRUE(result.ok()) << BackendToString(backend);
    EXPECT_EQ(result->rows_matched, 0u) << BackendToString(backend);
    EXPECT_EQ(result->aggregates, zeros) << BackendToString(backend);
  }
  auto missing = run(
      "SELECT COUNT(*), SUM(price), MIN(qty), MAX(qty), AVG(price) FROM "
      "orders WHERE id = 5000",
      Backend::kIndex);
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  EXPECT_EQ(missing->rows_matched, 0u);
  EXPECT_EQ(missing->aggregates, zeros);
}

}  // namespace
}  // namespace relfab::query
