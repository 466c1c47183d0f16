#ifndef RELFAB_MVCC_TRANSACTION_H_
#define RELFAB_MVCC_TRANSACTION_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "faults/injector.h"
#include "faults/retry.h"
#include "mvcc/versioned_table.h"
#include "obs/trace.h"

namespace relfab::mvcc {

enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

/// Handle to an in-flight transaction. Writes buffer locally until
/// Commit; reads see the snapshot taken at Begin (reads of a
/// transaction's own uncommitted writes go through ReadOwn*).
class Transaction {
 public:
  uint64_t id() const { return id_; }
  /// Snapshot timestamp: this transaction sees versions committed at or
  /// before read_ts.
  uint64_t read_ts() const { return read_ts_; }
  TxnState state() const { return state_; }
  size_t pending_writes() const { return ops_.size(); }

 private:
  friend class TransactionManager;

  enum class OpKind : uint8_t { kInsert, kUpdate, kDelete };
  struct Op {
    OpKind kind;
    int64_t key;
    std::vector<uint8_t> user_row;  // empty for kDelete
  };

  uint64_t id_ = 0;
  uint64_t read_ts_ = 0;
  TxnState state_ = TxnState::kActive;
  std::vector<Op> ops_;
  // relfab-lint: allow(unordered-iteration) point lookups only (find/insert by key); commit replays ops_ in vector order
  std::unordered_map<int64_t, size_t> op_by_key_;
};

/// Snapshot-isolation transaction manager over a VersionedTable
/// (paper §III-C): one source of truth in row format, versions selected
/// by timestamp, updates append new versions, and conflicting concurrent
/// writers abort (first committer wins).
///
/// The manager is single-threaded — transactions *interleave* logically
/// (Begin/Commit in any order) as in the paper's simulation setting, but
/// calls themselves must not race.
class TransactionManager {
 public:
  explicit TransactionManager(VersionedTable* table) : table_(table) {
    RELFAB_CHECK(table != nullptr);
  }

  /// Starts a transaction reading at the current timestamp.
  Transaction Begin() {
    Transaction txn;
    txn.id_ = ++next_txn_id_;
    txn.read_ts_ = clock_;
    return txn;
  }

  /// Buffers an insert. Fails fast if the key is visible in the snapshot
  /// or already inserted by this transaction.
  Status Insert(Transaction* txn, const uint8_t* user_row);

  /// Buffers an update of `key` (full-row replacement). The key must be
  /// visible in the snapshot or inserted by this transaction.
  Status Update(Transaction* txn, int64_t key, const uint8_t* user_row);

  /// Buffers a delete of `key`.
  Status Delete(Transaction* txn, int64_t key);

  /// Reads this transaction's own pending write of `key`, if any.
  /// Returns NotFound when the transaction has no pending write for it.
  StatusOr<std::vector<uint8_t>> ReadOwnWrite(const Transaction& txn,
                                              int64_t key) const;

  /// Snapshot point read: the user-row bytes of `key` as visible to the
  /// transaction (own writes take precedence).
  StatusOr<std::vector<uint8_t>> Read(const Transaction& txn,
                                      int64_t key) const;

  /// Validates (first-committer-wins) and applies the buffered writes at
  /// a fresh commit timestamp. On conflict returns Aborted and the
  /// transaction is rolled back.
  Status Commit(Transaction* txn);

  /// Drops all buffered writes.
  void Abort(Transaction* txn);

  uint64_t current_ts() const { return clock_; }
  uint64_t commits() const { return commits_; }
  uint64_t aborts() const { return aborts_; }

  /// Attaches a tracer; each Commit emits an "mvcc.commit" span with the
  /// transaction id, op count and outcome. Null detaches.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Arms "mvcc.commit" injection: Commit draws the site before
  /// validation. A kConflict rule aborts the transaction like a real
  /// write-write conflict (kAborted); retryable kinds stall the simulated
  /// clock per the retry policy and, when exhausted, abort the
  /// transaction with the mapped I/O-class Status. The commit clock only
  /// advances on successful commits, so a replayed fault plan yields the
  /// same version history. Null disarms.
  void set_fault_injector(faults::FaultInjector* injector) {
    injector_ = injector;
    commit_site_ = injector == nullptr ? faults::FaultInjector::kNoSite
                                       : injector->Site("mvcc.commit");
  }

 private:
  int64_t KeyFromRow(const uint8_t* user_row) const {
    int64_t key = 0;
    std::memcpy(&key,
                user_row + table_->user_schema().offset(table_->key_column()),
                8);
    return key;
  }

  VersionedTable* table_;
  obs::Tracer* tracer_ = nullptr;
  faults::FaultInjector* injector_ = nullptr;
  faults::RetryPolicy retry_;
  int commit_site_ = faults::FaultInjector::kNoSite;
  uint64_t clock_ = 0;
  uint64_t next_txn_id_ = 0;
  uint64_t commits_ = 0;
  uint64_t aborts_ = 0;
};

}  // namespace relfab::mvcc

#endif  // RELFAB_MVCC_TRANSACTION_H_
