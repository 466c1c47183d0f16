#include "harness.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

namespace perfbench {

using relfab::Fabric;
using relfab::StatusOr;
using relfab::engine::AggFunc;
using relfab::engine::GroupKey;
using relfab::engine::QueryResult;
using relfab::engine::QuerySpec;
using relfab::layout::ColumnType;
using relfab::layout::RowTable;

namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

int64_t CpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t WallNs() { return ClockNs(CLOCK_MONOTONIC); }

void Must(const relfab::Status& s) {
  if (!s.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
    std::exit(3);
  }
}

Hasher& Hasher::Bytes(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
  return *this;
}

Hasher& Hasher::Answer(const QueryResult& r) {
  U64(r.rows_scanned).U64(r.rows_matched).F64(r.projection_checksum);
  for (double v : r.aggregates) F64(v);
  for (const auto& [key, values] : r.groups) {
    for (uint32_t i = 0; i < key.size; ++i) {
      U64(static_cast<uint64_t>(key.values[i]));
    }
    for (double v : values) F64(v);
  }
  return U64(r.sim_cycles);
}

void SpanLog::Open(const char* name, uint64_t op) {
  int32_t recorded = -1;
  if (op < record_ops_) {
    const int32_t parent = stack_.empty() ? -1 : stack_.back().recorded;
    recorded = static_cast<int32_t>(recorded_.size());
    recorded_.push_back({name, 0, 0, op, parent});
  }
  stack_.push_back({name, CpuNs(), 0, recorded});
  if (recorded >= 0) recorded_.back().start_ns = stack_.back().start_ns;
}

void SpanLog::Close() {
  const int64_t end_ns = CpuNs();
  const Active span = stack_.back();
  stack_.pop_back();
  const int64_t duration = end_ns - span.start_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (span.recorded >= 0) {
    recorded_[static_cast<size_t>(span.recorded)].end_ns = end_ns;
  }
  auto it = std::find_if(self_.begin(), self_.end(), [&](const SelfTime& t) {
    return t.name == span.name;
  });
  if (it == self_.end()) it = self_.insert(self_.end(), {span.name});
  it->ns += static_cast<double>(duration - span.child_ns);
  ++it->calls;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,op,parent\n");
  for (const Span& s : recorded_) {
    std::fprintf(f, "%s,%lld,%lld,%llu,%d\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.op), s.parent);
  }
  return std::fclose(f) == 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return values[rank];
}

namespace {

bool Holds(const RowTable& t, const relfab::engine::Predicate& p,
           uint64_t row) {
  const int64_t v = t.GetInt(row, p.column);
  switch (p.op) {
    case relfab::engine::CompareOp::kLt:
      return v < p.int_operand;
    case relfab::engine::CompareOp::kLe:
      return v <= p.int_operand;
    case relfab::engine::CompareOp::kGt:
      return v > p.int_operand;
    case relfab::engine::CompareOp::kGe:
      return v >= p.int_operand;
    case relfab::engine::CompareOp::kEq:
      return v == p.int_operand;
    case relfab::engine::CompareOp::kNe:
      return v != p.int_operand;
  }
  return false;
}

int64_t KeyOf(const RowTable& t, uint64_t row, uint32_t col) {
  if (t.schema().type(col) != ColumnType::kChar) return t.GetInt(row, col);
  const std::string_view bytes = t.GetChar(row, col);
  int64_t key = 0;
  std::memcpy(&key, bytes.data(), std::min<size_t>(bytes.size(), 8));
  return key;
}

/// One aggregate's running state. The reference keeps its own state,
/// expression evaluation and finalization rather than the engines'
/// AggState and ExprPool::Eval, so a bug there cannot hide in both.
struct RefAgg {
  double sum = 0, min = 0, max = 0;
  uint64_t count = 0;

  void Add(double v) {
    min = count == 0 ? v : std::min(min, v);
    max = count == 0 ? v : std::max(max, v);
    sum += v;
    ++count;
  }
  /// Aggregates over no rows read 0, the rule every engine follows.
  double Final(AggFunc func) const {
    const auto n = static_cast<double>(count);
    switch (func) {
      case AggFunc::kCount:
        return n;
      case AggFunc::kSum:
        return sum;
      case AggFunc::kMin:
        return count == 0 ? 0 : min;
      case AggFunc::kMax:
        return count == 0 ? 0 : max;
      case AggFunc::kAvg:
        return count == 0 ? 0 : sum / n;
    }
    return 0;
  }
};

double Eval(const relfab::engine::ExprPool& pool, int32_t idx,
            const RowTable& t, uint64_t row) {
  using Kind = relfab::engine::ExprPool::Kind;
  const relfab::engine::ExprPool::Node& n = pool.node(idx);
  switch (n.kind) {
    case Kind::kColumn:
      return t.GetDouble(row, n.column);
    case Kind::kConst:
      return n.constant;
    case Kind::kAdd:
      return Eval(pool, n.lhs, t, row) + Eval(pool, n.rhs, t, row);
    case Kind::kSub:
      return Eval(pool, n.lhs, t, row) - Eval(pool, n.rhs, t, row);
    case Kind::kMul:
      return Eval(pool, n.lhs, t, row) * Eval(pool, n.rhs, t, row);
  }
  return 0;
}

/// Accumulates matching rows of one table into the aggregation state.
/// Predicates in the benchmark's statements all compare integer or date
/// columns with integer literals.
struct RefAccumulator {
  const QuerySpec& spec;
  QueryResult result;
  std::vector<RefAgg> flat;
  std::map<GroupKey, std::vector<RefAgg>> groups;

  explicit RefAccumulator(const QuerySpec& s)
      : spec(s), flat(s.aggregates.size()) {}

  void Row(const RowTable& t, uint64_t row) {
    for (const auto& p : spec.predicates) {
      if (!Holds(t, p, row)) return;
    }
    ++result.rows_matched;
    if (spec.aggregates.empty()) {
      for (uint32_t c : spec.projection) {
        result.projection_checksum +=
            t.schema().type(c) == ColumnType::kChar
                ? static_cast<double>(KeyOf(t, row, c) & 0xffff)
                : t.GetDouble(row, c);
      }
      return;
    }
    std::vector<RefAgg>* aggs = &flat;
    if (!spec.group_by.empty()) {
      GroupKey key;
      key.size = static_cast<uint32_t>(spec.group_by.size());
      for (uint32_t i = 0; i < key.size; ++i) {
        key.values[i] = KeyOf(t, row, spec.group_by[i]);
      }
      aggs = &groups.try_emplace(key, spec.aggregates.size()).first->second;
    }
    for (size_t a = 0; a < spec.aggregates.size(); ++a) {
      const int32_t e = spec.aggregates[a].expr;
      (*aggs)[a].Add(e >= 0 ? Eval(spec.exprs, e, t, row) : 0.0);
    }
  }

  QueryResult Finish() {
    const auto finals = [&](const std::vector<RefAgg>& aggs) {
      std::vector<double> out;
      for (size_t a = 0; a < aggs.size(); ++a) {
        out.push_back(aggs[a].Final(spec.aggregates[a].func));
      }
      return out;
    };
    if (spec.aggregates.empty()) return std::move(result);
    if (spec.group_by.empty()) {
      result.aggregates = finals(flat);
    } else {
      for (const auto& [key, aggs] : groups) {
        result.groups.emplace_back(key, finals(aggs));
      }
    }
    return std::move(result);
  }
};

}  // namespace

QueryResult ReferenceAnswer(const RowTable& table, const QuerySpec& spec,
                            const std::vector<uint64_t>* rows) {
  RefAccumulator acc(spec);
  if (rows != nullptr) {
    for (uint64_t r : *rows) acc.Row(table, r);
  } else {
    for (uint64_t r = 0; r < table.num_rows(); ++r) acc.Row(table, r);
  }
  return acc.Finish();
}

QueryResult ReferenceAnswer(const relfab::shard::ShardedTable& table,
                            const QuerySpec& spec) {
  RefAccumulator acc(spec);
  for (uint32_t s = 0; s < table.num_shards(); ++s) {
    const RowTable& shard = table.shard(s);
    for (uint64_t r = 0; r < shard.num_rows(); ++r) acc.Row(shard, r);
  }
  return acc.Finish();
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The planner's cycle estimate for the backend the plan runs on.
double EstimateOfChosen(const relfab::query::Plan& plan) {
  switch (plan.backend) {
    case relfab::exec::Backend::kRow:
      return plan.est_cost_row;
    case relfab::exec::Backend::kColumn:
      return plan.est_cost_column;
    case relfab::exec::Backend::kRelationalMemory:
      return plan.est_cost_rm;
    case relfab::exec::Backend::kIndex:
      return plan.est_cost_index;
    case relfab::exec::Backend::kHybrid:
      return plan.est_cost_hybrid;
  }
  return 0;
}

}  // namespace

void LayerCounters::Deterministic(Metrics* out) const {
  const double stmts = static_cast<double>(statements);
  out->push_back({"query.q_error_p50", Quantile(q_errors, 0.50), "ratio"});
  out->push_back({"query.q_error_p90", Quantile(q_errors, 0.90), "ratio"});
  static const char* kBackends[] = {"ROW", "COL", "RM", "INDEX", "HYBRID"};
  for (int b = 0; b < 5; ++b) {
    out->push_back({std::string("query.backend_share.") + kBackends[b],
                    Ratio(static_cast<double>(backend[b]), stmts), "ratio"});
  }
  out->push_back({"query.rows_scanned_per_match",
                  Ratio(static_cast<double>(rows_scanned),
                        static_cast<double>(rows_matched)),
                  "ratio"});
  out->push_back({"exec.shards_scanned_per_stmt",
                  Ratio(static_cast<double>(shards_scanned),
                        static_cast<double>(sharded)),
                  "count"});
  out->push_back({"exec.shards_pruned_frac",
                  Ratio(static_cast<double>(shards_total - shards_scanned),
                        static_cast<double>(shards_total)),
                  "ratio"});
  out->push_back({"sim.l1_hit_rate",
                  Ratio(static_cast<double>(l1_hits),
                        static_cast<double>(l1_hits + l1_misses)),
                  "ratio"});
  out->push_back({"sim.l2_hit_rate",
                  Ratio(static_cast<double>(l2_hits),
                        static_cast<double>(l2_hits + l2_misses)),
                  "ratio"});
  out->push_back(
      {"sim.prefetch_coverage",
       Ratio(static_cast<double>(prefetch_covered),
             static_cast<double>(prefetch_covered + prefetch_uncovered)),
       "ratio"});
  out->push_back({"sim.dram_bytes_per_stmt",
                  Ratio(static_cast<double>(dram_bytes), stmts), "B"});
  out->push_back(
      {"sim.cpu_bound_frac", Ratio(cpu_cycles, elapsed_cycles), "ratio"});
  out->push_back({"relmem.rows_packed_per_parsed",
                  Ratio(static_cast<double>(rows_packed),
                        static_cast<double>(rows_parsed)),
                  "ratio"});
  out->push_back({"relmem.refills_per_scan",
                  Ratio(static_cast<double>(refills),
                        static_cast<double>(rm_ops)),
                  "count"});
  out->push_back({"mvcc.abort_frac",
                  Ratio(static_cast<double>(aborts),
                        static_cast<double>(commits + aborts)),
                  "ratio"});
  out->push_back({"mvcc.versions_per_key",
                  Ratio(versions_per_key_sum,
                        static_cast<double>(versions_samples)),
                  "ratio"});
  const double cluster = static_cast<double>(cluster_statements);
  out->push_back({"net.bytes_per_stmt",
                  Ratio(static_cast<double>(net_bytes), cluster), "B"});
  out->push_back({"net.messages_per_stmt",
                  Ratio(static_cast<double>(net_messages), cluster),
                  "count"});
  out->push_back({"net.ship_aggs_frac",
                  Ratio(static_cast<double>(ship_aggs),
                        static_cast<double>(ship_rows + ship_aggs)),
                  "ratio"});
}

SqlClient::SqlClient(Fabric* fabric)
    : fabric_(fabric),
      parser_(&fabric->catalog()),
      planner_(&fabric->catalog(), fabric->memory().params(),
               fabric->cost_model(), &fabric->health()),
      executor_(&fabric->catalog(), &fabric->rm(), fabric->cost_model()) {
  planner_.set_topology(&fabric->topology());
}

StatusOr<Fabric::SqlResult> SqlClient::Execute(
    std::string_view sql, const relfab::exec::QueryOptions& options,
    SpanLog* spans, uint64_t op, const char* execute_span) {
  if (spans == nullptr) return fabric_->ExecuteSql(sql, options);

  // The traced replay of Fabric::ExecuteSql: the same calls in the same
  // order, so answers, cycles and query-log records must come out equal.
  relfab::exec::ShardScheduler& sched = fabric_->shard_scheduler();
  relfab::obs::WorkloadTelemetry* telemetry = fabric_->telemetry();
  const uint64_t failovers_before = sched.shards_failed_over();
  const uint64_t net_bytes_before = sched.net_bytes();
  const uint64_t ship_rows_before = sched.shards_ship_rows();
  const uint64_t ship_aggs_before = sched.shards_ship_aggs();

  StatusOr<Fabric::SqlResult> run = [&]() -> StatusOr<Fabric::SqlResult> {
    StatusOr<relfab::query::ParsedQuery> parsed =
        relfab::Status::Internal("unparsed");
    {
      ScopedSpan span(spans, "query.parse", op);
      parsed = parser_.Parse(sql);
    }
    if (!parsed.ok()) return parsed.status();
    StatusOr<relfab::query::Plan> plan = relfab::Status::Internal("unplanned");
    {
      ScopedSpan span(spans, "query.plan", op);
      plan = planner_.MakePlan(*parsed, &options);
    }
    if (!plan.ok()) return plan.status();
    Fabric::SqlResult out;
    relfab::exec::ExecContext ctx;
    ctx.tracer = &fabric_->tracer();
    ctx.injector = fabric_->fault_injector();
    ctx.profile = options.analyze ? &out.profile : nullptr;
    ctx.scheduler = &sched;
    ctx.health = &fabric_->health();
    if (telemetry != nullptr) {
      ctx.digests = &telemetry->digests();
      ctx.query_log = &telemetry->query_log();
      ctx.recorder = &telemetry->flight_recorder();
    }
    ctx.options = options;
    StatusOr<relfab::engine::QueryResult> result =
        relfab::Status::Internal("unexecuted");
    {
      ScopedSpan span(spans, execute_span, op);
      result = executor_.Execute(*plan, ctx);
    }
    if (!result.ok()) return result.status();
    out.result = std::move(*result);
    out.plan = std::move(*plan);
    return out;
  }();
  if (telemetry == nullptr) return run;

  ScopedSpan span(spans, "obs.epilogue", op);
  relfab::obs::WorkloadTelemetry::Statement st;
  st.sql = std::string(sql);
  st.status_code = std::string(relfab::StatusCodeToString(
      run.ok() ? relfab::StatusCode::kOk : run.status().code()));
  st.shards_failed_over =
      static_cast<uint32_t>(sched.shards_failed_over() - failovers_before);
  st.net_bytes = sched.net_bytes() - net_bytes_before;
  st.shards_ship_rows =
      static_cast<uint32_t>(sched.shards_ship_rows() - ship_rows_before);
  st.shards_ship_aggs =
      static_cast<uint32_t>(sched.shards_ship_aggs() - ship_aggs_before);
  if (run.ok()) {
    st.table = run->plan.table;
    st.backend = std::string(relfab::exec::BackendToString(run->plan.backend));
    st.cycles = run->result.sim_cycles;
    st.rows_scanned = run->result.rows_scanned;
    st.rows_matched = run->result.rows_matched;
    if (run->plan.shards.enabled) {
      st.shards_total = run->plan.shards.shards_total;
      st.shards_scanned =
          static_cast<uint32_t>(run->plan.shards.shard_ids.size());
      st.shards_pruned = st.shards_total - st.shards_scanned;
    }
  } else {
    st.ok = false;
    st.error = run.status().ToString();
  }
  telemetry->RecordStatement(st);
  telemetry->Sample(fabric_->CollectMetrics());
  return run;
}

void SqlClient::Mark() {
  fastpath_before_ = fabric_->memory().fastpath_lines();
  packed_before_ = fabric_->rm().rows_packed();
  parsed_before_ = fabric_->rm().rows_parsed();
  const relfab::exec::ShardScheduler& sched = fabric_->shard_scheduler();
  net_bytes_before_ = sched.net_bytes();
  net_messages_before_ = sched.net_messages();
  ship_rows_before_ = sched.shards_ship_rows();
  ship_aggs_before_ = sched.shards_ship_aggs();
}

uint64_t SqlClient::Account(const Fabric::SqlResult& r, bool guarded,
                            LayerCounters* c) {
  const relfab::sim::MemorySystem& mem = fabric_->memory();
  const relfab::sim::MemStats s = mem.stats();
  c->sim_lines += s.l1_hits + s.l1_misses + s.dram_lines_gather;
  c->fastpath_lines += mem.fastpath_lines() - fastpath_before_;

  Hasher h;
  h.Answer(r.result).Str(relfab::exec::BackendToString(r.plan.backend));
  if (!guarded) return h.value();
  if (relfab::obs::WorkloadTelemetry* t = fabric_->telemetry()) {
    const auto recent = t->query_log().Recent();
    if (!recent.empty()) h.Str(recent.back()->ToJson().Dump());
  }

  const relfab::query::Plan& plan = r.plan;
  const uint64_t packed = fabric_->rm().rows_packed() - packed_before_;
  const uint64_t parsed = fabric_->rm().rows_parsed() - parsed_before_;
  if (parsed > 0) {
    ++c->rm_ops;
    c->rows_packed += packed;
    c->rows_parsed += parsed;
    c->refills += s.fabric_refills;
  }
  if (plan.shards.enabled) {
    ++c->sharded;
    c->shards_scanned += plan.shards.shard_ids.size();
    c->shards_total += plan.shards.shards_total;
    if (plan.shards.distributed) {
      const relfab::exec::ShardScheduler& sched = fabric_->shard_scheduler();
      ++c->cluster_statements;
      c->net_bytes += sched.net_bytes() - net_bytes_before_;
      c->net_messages += sched.net_messages() - net_messages_before_;
      c->ship_rows += sched.shards_ship_rows() - ship_rows_before_;
      c->ship_aggs += sched.shards_ship_aggs() - ship_aggs_before_;
    }
    return h.value();
  }
  ++c->statements;
  ++c->backend[static_cast<int>(plan.backend)];
  c->rows_scanned += r.result.rows_scanned;
  c->rows_matched += r.result.rows_matched;
  const double est = std::max(EstimateOfChosen(plan), 1.0);
  const double actual =
      static_cast<double>(std::max<uint64_t>(r.result.sim_cycles, 1));
  c->q_errors.push_back(std::max(est / actual, actual / est));
  c->l1_hits += s.l1_hits;
  c->l1_misses += s.l1_misses;
  c->l2_hits += s.l2_hits;
  c->l2_misses += s.l2_misses;
  c->prefetch_covered += s.prefetch_covered;
  c->prefetch_uncovered += s.prefetch_uncovered;
  c->dram_bytes += s.dram_bytes_total();
  c->cpu_cycles += mem.cpu_cycles();
  c->elapsed_cycles += std::max(mem.cpu_cycles(), mem.channel_busy_cycles());
  return h.value();
}

}  // namespace perfbench
