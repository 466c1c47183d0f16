// oltp_htap: transactional writes beside reads on shared data, as in
// Polynesia, bound by the front end, with workload telemetry on as in
// the SQL shell. One fabric holds
//   - `items`, an indexed unsharded table serving SQL point lookups,
//     which the planner sends to INDEX;
//   - `accounts`, a versioned table taking MVCC transfer transactions
//     (Begin, 2x Read, 2x Update, Commit). Four transactions stay open at
//     once over skewed keys, so first-committer-wins aborts happen, in
//     the same places for a seed; an aborted transfer is retried;
//   - periodic snapshot-sum scans of `accounts` through an ephemeral
//     view with the MVCC snapshot filter evaluated in the fabric, checked
//     against the conservation invariant.
// Transfers keep adding versions that the scans must skip. The versioned
// table has no garbage collection, so the workload runs in episodes of
// a fixed number of ops; each episode starts on a fresh fabric built
// outside the clock, which keeps versions per key between 1 and ~2.6.

#include <array>
#include <cstdio>
#include <cstring>
#include <optional>

#include "common/random.h"
#include "harness.h"

namespace perfbench {
namespace {

using relfab::Fabric;
using relfab::Random;
using relfab::Status;
using relfab::layout::ColumnType;

constexpr int64_t kItems = 50000;
constexpr int64_t kAccounts = 10000;
constexpr int64_t kInitialBalance = 1000;
constexpr uint64_t kEpisodeOps = 20000;
constexpr uint64_t kGuarded = kEpisodeOps;
constexpr uint64_t kScanEvery = 50;    // every 50th op is a snapshot scan
constexpr double kLookupShare = 0.6;   // of the rest; others are transfers
constexpr size_t kOpenTxns = 4;
constexpr int64_t kHotAccounts = 64;
constexpr double kHotShare = 0.5;
constexpr uint64_t kLookupPool = 4096;
constexpr int kMaxAttempts = 16;

int32_t QtyOf(int64_t id) {
  return static_cast<int32_t>((id * 7 + 3) % 50 + 1);
}
int64_t PriceOf(int64_t id) { return (id * 131 + 17) % 100000 + 100; }

enum class Kind { kLookup, kTransfer, kScan };

struct Lookup {
  std::string sql;
  int64_t id = 0;
  relfab::engine::QueryResult expected;
};

struct Transfer {
  int64_t from = 0, to = 0, amount = 0;
};

/// A transfer in flight: buffered writes under an open snapshot.
struct Open {
  bool active = false;
  relfab::mvcc::Transaction txn;
  Transfer t;
};

class OltpHtap final : public Workload {
 public:
  explicit OltpHtap(uint64_t seed) : ops_rng_(seed * 31 + 7) {
    Random rng(seed * 0x9E3779B97F4A7C15ull + 23);
    for (uint64_t j = 0; j < kLookupPool; ++j) {
      Lookup l;
      l.id = static_cast<int64_t>(rng.Uniform(kItems));
      l.sql = rng.Bernoulli(0.5)
                  ? "SELECT qty, price FROM items WHERE id = " +
                        std::to_string(l.id)
                  : "SELECT COUNT(*), SUM(price), MAX(qty) FROM items WHERE "
                    "id = " + std::to_string(l.id);
      lookups_.push_back(std::move(l));
    }
  }

  void Setup() override { BuildEpisode(); }

  void ComputeReferences() override {
    const relfab::layout::RowTable& items = *fabric_->GetTable("items").value();
    relfab::query::Parser parser(&fabric_->catalog());
    for (Lookup& l : lookups_) {
      auto parsed = parser.Parse(l.sql);
      Must(parsed.status());
      const std::vector<uint64_t> rows = {static_cast<uint64_t>(l.id)};
      l.expected = ReferenceAnswer(items, parsed->spec, &rows);
      l.expected.rows_scanned = 1;  // one index candidate
    }
  }

  uint64_t guarded_ops() const override { return kGuarded; }

  int64_t Prepare(uint64_t i) override {
    int64_t setup_ns = 0;
    if (i > 0 && i % kEpisodeOps == 0) {
      if (!EndEpisode()) ++episode_failures_;
      const int64_t c0 = CpuNs();
      BuildEpisode();
      setup_ns = CpuNs() - c0;
    }
    fabric_->memory().ResetTiming();
    client_->Mark();
    packed_before_ = fabric_->rm().rows_packed();
    parsed_before_ = fabric_->rm().rows_parsed();
    if (i % kScanEvery == kScanEvery - 1) {
      kind_ = Kind::kScan;
    } else if (ops_rng_.Bernoulli(kLookupShare)) {
      kind_ = Kind::kLookup;
    } else {
      kind_ = Kind::kTransfer;
      next_from_ = DrawAccount();
      do {
        next_to_ = DrawAccount();
      } while (next_to_ == next_from_);
      next_amount_ = static_cast<int64_t>(1 + ops_rng_.Uniform(100));
    }
    return setup_ns;
  }

  void Run(uint64_t i, SpanLog* spans) override {
    switch (kind_) {
      case Kind::kLookup:
        last_ = client_->Execute(lookups_[lookup_next_ % kLookupPool].sql,
                                 {}, spans, i);
        return;
      case Kind::kTransfer:
        RunTransfer(i, spans);
        return;
      case Kind::kScan:
        RunScan(i, spans);
        return;
    }
  }

  bool Check(uint64_t i, uint64_t* sim_cycles, uint64_t* fp) override {
    const bool guarded = i < kGuarded;
    *sim_cycles = fabric_->memory().ElapsedCycles();
    switch (kind_) {
      case Kind::kLookup: {
        const Lookup& l = lookups_[lookup_next_++ % kLookupPool];
        if (!last_->ok()) {
          std::fprintf(stderr, "op %llu failed: %s\n",
                       static_cast<unsigned long long>(i),
                       last_->status().ToString().c_str());
          return false;
        }
        *fp = client_->Account(**last_, guarded, &counters_);
        if ((*last_)->plan.backend != relfab::exec::Backend::kIndex ||
            !(*last_)->result.SameAnswer(l.expected)) {
          std::fprintf(stderr, "op %llu wrong answer: %s -> %s\n",
                       static_cast<unsigned long long>(i), l.sql.c_str(),
                       (*last_)->result.ToString().c_str());
          return false;
        }
        return true;
      }
      case Kind::kTransfer: {
        for (const Transfer& done : committed_) {
          model_[static_cast<size_t>(done.from)] -= done.amount;
          model_[static_cast<size_t>(done.to)] += done.amount;
        }
        if (guarded) {
          counters_.commits += committed_.size();
          counters_.aborts += aborts_in_op_;
        }
        *fp = Hasher()
                  .U64(*sim_cycles)
                  .U64(committed_.size())
                  .U64(aborts_in_op_)
                  .U64(static_cast<uint64_t>(read_sum_))
                  .value();
        committed_.clear();
        if (!transfer_status_.ok()) {
          std::fprintf(stderr, "op %llu transfer failed: %s\n",
                       static_cast<unsigned long long>(i),
                       transfer_status_.ToString().c_str());
          return false;
        }
        return true;
      }
      case Kind::kScan: {
        if (guarded) {
          ++counters_.rm_ops;
          counters_.rows_packed += fabric_->rm().rows_packed() - packed_before_;
          counters_.rows_parsed += fabric_->rm().rows_parsed() - parsed_before_;
          counters_.refills += fabric_->memory().stats().fabric_refills;
          counters_.versions_per_key_sum +=
              static_cast<double>(accounts_->num_versions()) /
              static_cast<double>(kAccounts);
          ++counters_.versions_samples;
        }
        *fp = Hasher()
                  .U64(*sim_cycles)
                  .U64(static_cast<uint64_t>(scan_sum_))
                  .value();
        if (!scan_status_.ok() || scan_sum_ != kAccounts * kInitialBalance) {
          std::fprintf(stderr,
                       "op %llu snapshot sum %lld (%s), expected %lld\n",
                       static_cast<unsigned long long>(i),
                       static_cast<long long>(scan_sum_),
                       scan_status_.ToString().c_str(),
                       static_cast<long long>(kAccounts * kInitialBalance));
          return false;
        }
        return true;
      }
    }
    return false;
  }

  bool Finish() override { return EndEpisode() && episode_failures_ == 0; }

 private:
  int64_t DrawAccount() {
    return static_cast<int64_t>(ops_rng_.Bernoulli(kHotShare)
                                    ? ops_rng_.Uniform(kHotAccounts)
                                    : ops_rng_.Uniform(kAccounts));
  }

  /// A fresh fabric: indexed items, seeded accounts, telemetry on.
  void BuildEpisode() {
    client_.reset();
    fabric_.reset();
    fabric_ = std::make_unique<Fabric>();
    auto schema = relfab::layout::Schema::Create({
        {"id", ColumnType::kInt64, 0},
        {"qty", ColumnType::kInt32, 0},
        {"price", ColumnType::kInt64, 0},
        {"cat", ColumnType::kInt32, 0},
        {"note", ColumnType::kChar, 16},
    });
    Must(schema.status());
    auto* items = fabric_->CreateTable("items", std::move(*schema)).value();
    relfab::layout::RowBuilder b(&items->schema());
    for (int64_t id = 0; id < kItems; ++id) {
      b.Reset();
      b.AddInt64(id).AddInt32(QtyOf(id)).AddInt64(PriceOf(id))
          .AddInt32(static_cast<int32_t>(id % 16)).AddChar("item");
      items->AppendRow(b.Finish());
    }
    Must(fabric_->CreateIndex("items", "id"));

    auto account_schema = relfab::layout::Schema::Create({
        {"account_id", ColumnType::kInt64, 0},
        {"balance", ColumnType::kInt64, 0},
        {"branch", ColumnType::kInt32, 0},
        {"touches", ColumnType::kInt32, 0},
    });
    Must(account_schema.status());
    accounts_ =
        fabric_->CreateVersionedTable("accounts", *account_schema, 0).value();
    tm_ = fabric_->GetTransactionManager("accounts").value();
    row_ = std::make_unique<relfab::layout::RowBuilder>(
        &accounts_->user_schema());
    relfab::mvcc::Transaction seed_txn = tm_->Begin();
    for (int64_t id = 0; id < kAccounts; ++id) {
      row_->Reset();
      row_->AddInt64(id).AddInt64(kInitialBalance)
          .AddInt32(static_cast<int32_t>(id % 16)).AddInt32(0);
      Must(tm_->Insert(&seed_txn, row_->Finish()));
    }
    Must(tm_->Commit(&seed_txn));
    model_.assign(kAccounts, kInitialBalance);
    window_ = {};
    transfers_ = 0;

    fabric_->EnableTelemetry();
    client_ = std::make_unique<SqlClient>(fabric_.get());
    // Warm-up: one lookup and one snapshot scan.
    Must(fabric_->ExecuteSql(lookups_[0].sql).status());
    RunScan(0, nullptr);
  }

  /// Begins a transfer: Begin, 2x Read, 2x Update.
  Status BeginTransfer(Open* o, SpanLog* spans, uint64_t op) {
    ScopedSpan span(spans, "mvcc.txn", op);
    o->txn = tm_->Begin();
    o->active = true;
    auto from_row = tm_->Read(o->txn, o->t.from);
    auto to_row = tm_->Read(o->txn, o->t.to);
    if (!from_row.ok()) return from_row.status();
    if (!to_row.ok()) return to_row.status();
    int64_t from_balance = 0, to_balance = 0;
    std::memcpy(&from_balance, from_row->data() + 8, 8);
    std::memcpy(&to_balance, to_row->data() + 8, 8);
    read_sum_ += from_balance + to_balance;
    for (const auto& [key, balance] :
         {std::pair{o->t.from, from_balance - o->t.amount},
          std::pair{o->t.to, to_balance + o->t.amount}}) {
      row_->Reset();
      row_->AddInt64(key).AddInt64(balance)
          .AddInt32(static_cast<int32_t>(key % 16))
          .AddInt32(static_cast<int32_t>(op));
      RELFAB_RETURN_IF_ERROR(tm_->Update(&o->txn, key, row_->Finish()));
    }
    return Status::Ok();
  }

  /// Commits `o`; an abort (first committer wins) reruns the transfer on
  /// a fresh snapshot, which nothing else can commit into before it ends.
  Status CommitTransfer(Open* o, SpanLog* spans, uint64_t op) {
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      Status s;
      {
        ScopedSpan span(spans, "mvcc.commit", op);
        s = tm_->Commit(&o->txn);
      }
      if (s.ok()) {
        o->active = false;
        committed_.push_back(o->t);
        return s;
      }
      if (!s.IsAborted()) return s;
      ++aborts_in_op_;
      RELFAB_RETURN_IF_ERROR(BeginTransfer(o, spans, op));
    }
    return Status::Aborted("transfer still conflicting after retries");
  }

  /// Commits the oldest open transfer and opens a new one in its slot.
  void RunTransfer(uint64_t op, SpanLog* spans) {
    aborts_in_op_ = 0;
    read_sum_ = 0;
    Open& o = window_[transfers_++ % kOpenTxns];
    transfer_status_ = Status::Ok();
    if (o.active) transfer_status_ = CommitTransfer(&o, spans, op);
    if (!transfer_status_.ok()) return;
    o.t = {next_from_, next_to_, next_amount_};
    transfer_status_ = BeginTransfer(&o, spans, op);
  }

  /// Snapshot sum of every balance, filtered by visibility in the fabric.
  void RunScan(uint64_t op, SpanLog* spans) {
    relfab::relmem::Geometry g;
    g.columns = {1};
    g.visibility = accounts_->SnapshotFilter(tm_->current_ts());
    relfab::StatusOr<relfab::relmem::EphemeralView> view =
        Status::Internal("unconfigured");
    {
      ScopedSpan span(spans, "relmem.configure", op);
      view = fabric_->ConfigureView("accounts", std::move(g));
    }
    scan_sum_ = 0;
    if (!view.ok()) {
      scan_status_ = view.status();
      return;
    }
    {
      ScopedSpan span(spans, "relmem.drain", op);
      for (relfab::relmem::EphemeralView::Cursor cur(&*view); cur.Valid();
           cur.Advance()) {
        scan_sum_ += cur.GetInt(0);
      }
    }
    scan_status_ = view->status();
  }

  /// Commits what is still open, oldest first, then checks every balance
  /// in the latest snapshot against the host-side model of the commits.
  bool EndEpisode() {
    bool ok = true;
    for (size_t k = 0; k < kOpenTxns; ++k) {
      Open& o = window_[(transfers_ + k) % kOpenTxns];
      if (o.active && !CommitTransfer(&o, nullptr, 0).ok()) ok = false;
    }
    for (const Transfer& done : committed_) {
      model_[static_cast<size_t>(done.from)] -= done.amount;
      model_[static_cast<size_t>(done.to)] += done.amount;
    }
    committed_.clear();
    relfab::relmem::Geometry g;
    g.columns = {0, 1};
    g.visibility = accounts_->SnapshotFilter(tm_->current_ts());
    auto view = fabric_->ConfigureView("accounts", std::move(g));
    if (!view.ok()) return false;
    int64_t seen = 0;
    for (relfab::relmem::EphemeralView::Cursor cur(&*view); cur.Valid();
         cur.Advance()) {
      const int64_t id = cur.GetInt(0);
      if (id < 0 || id >= kAccounts ||
          cur.GetInt(1) != model_[static_cast<size_t>(id)]) {
        ok = false;
      }
      ++seen;
    }
    if (!ok || seen != kAccounts) {
      std::fprintf(stderr, "episode end: balances differ from the commits\n");
      return false;
    }
    return view->status().ok();
  }

  Random ops_rng_;
  std::vector<Lookup> lookups_;
  uint64_t lookup_next_ = 0;

  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<SqlClient> client_;
  relfab::mvcc::VersionedTable* accounts_ = nullptr;
  relfab::mvcc::TransactionManager* tm_ = nullptr;
  std::unique_ptr<relfab::layout::RowBuilder> row_;
  std::vector<int64_t> model_;
  std::array<Open, kOpenTxns> window_;
  uint64_t transfers_ = 0;
  uint64_t episode_failures_ = 0;

  // The op in flight.
  Kind kind_ = Kind::kLookup;
  int64_t next_from_ = 0, next_to_ = 0, next_amount_ = 0;
  std::optional<relfab::StatusOr<Fabric::SqlResult>> last_;
  Status transfer_status_;
  std::vector<Transfer> committed_;
  uint64_t aborts_in_op_ = 0;
  int64_t read_sum_ = 0;
  int64_t scan_sum_ = 0;
  Status scan_status_;
  uint64_t packed_before_ = 0, parsed_before_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeOltpHtap(uint64_t seed) {
  return std::make_unique<OltpHtap>(seed);
}

}  // namespace perfbench
