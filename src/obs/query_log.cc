#include "obs/query_log.h"

#include <sstream>

#include "common/format.h"

namespace relfab::obs {

Json QueryLogRecord::ToJson() const {
  Json doc = Json::Object();
  doc.Set("seq", seq);
  doc.Set("session", session);
  doc.Set("sql", sql);
  doc.Set("table", table);
  doc.Set("backend", backend);
  doc.Set("status", ok ? "ok" : "error");
  doc.Set("status_code", status_code);
  if (!ok) doc.Set("error", error);
  doc.Set("cycles", cycles);
  doc.Set("end_cycles", end_cycles);
  doc.Set("rows_scanned", rows_scanned);
  doc.Set("rows_matched", rows_matched);
  doc.Set("shards_total", static_cast<uint64_t>(shards_total));
  doc.Set("shards_scanned", static_cast<uint64_t>(shards_scanned));
  doc.Set("shards_pruned", static_cast<uint64_t>(shards_pruned));
  doc.Set("shards_failed_over", static_cast<uint64_t>(shards_failed_over));
  doc.Set("net_bytes", net_bytes);
  doc.Set("shards_ship_rows", static_cast<uint64_t>(shards_ship_rows));
  doc.Set("shards_ship_aggs", static_cast<uint64_t>(shards_ship_aggs));
  doc.Set("degraded", degraded);
  doc.Set("degradation", degradation);
  doc.Set("faults_injected", faults_injected);
  doc.Set("fault_retries", fault_retries);
  doc.Set("fault_fallbacks", fault_fallbacks);
  return doc;
}

Status QueryLog::OpenSink(const std::string& path) {
  CloseSink();
  sink_ = std::fopen(path.c_str(), "a");
  if (sink_ == nullptr) {
    return Status::Internal("cannot open query-log sink '" + path + "'");
  }
  sink_path_ = path;
  return Status::Ok();
}

void QueryLog::CloseSink() {
  if (sink_ != nullptr) {
    std::fclose(sink_);
    sink_ = nullptr;
  }
  sink_path_.clear();
}

void QueryLog::Append(QueryLogRecord record) {
  record.seq = total_++;
  if (sink_ != nullptr) {
    const std::string line = record.ToJson().Dump() + "\n";
    std::fwrite(line.data(), 1, line.size(), sink_);
    std::fflush(sink_);
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[head_] = std::move(record);
    head_ = (head_ + 1) % capacity_;
  }
}

std::vector<const QueryLogRecord*> QueryLog::Recent() const {
  std::vector<const QueryLogRecord*> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    for (const QueryLogRecord& r : ring_) out.push_back(&r);
  } else {
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(&ring_[(head_ + i) % ring_.size()]);
    }
  }
  return out;
}

Status QueryLog::ValidateRecord(const Json& record) {
  if (!record.is_object()) {
    return Status::InvalidArgument("query-log record must be an object");
  }
  static constexpr const char* kStringFields[] = {
      "session", "sql", "table", "backend", "status", "status_code",
      "degradation"};
  for (const char* field : kStringFields) {
    if (!record.at(field).is_string()) {
      return Status::InvalidArgument(std::string("query-log field '") +
                                     field + "' must be a string");
    }
  }
  static constexpr const char* kNumberFields[] = {
      "seq",           "cycles",          "end_cycles",
      "rows_scanned",  "rows_matched",    "shards_total",
      "shards_scanned", "shards_pruned",  "shards_failed_over",
      "net_bytes",     "shards_ship_rows", "shards_ship_aggs",
      "faults_injected", "fault_retries", "fault_fallbacks"};
  for (const char* field : kNumberFields) {
    if (!record.at(field).is_number() || record.at(field).AsNumber() < 0) {
      return Status::InvalidArgument(std::string("query-log field '") +
                                     field +
                                     "' must be a non-negative number");
    }
  }
  if (!record.at("degraded").is_bool()) {
    return Status::InvalidArgument(
        "query-log field 'degraded' must be a bool");
  }
  const std::string& status = record.at("status").AsString();
  if (status != "ok" && status != "error") {
    return Status::InvalidArgument(
        "query-log field 'status' must be \"ok\" or \"error\"");
  }
  if (status == "error" && !record.at("error").is_string()) {
    return Status::InvalidArgument(
        "query-log error records must carry an 'error' string");
  }
  return Status::Ok();
}

Status QueryLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open query-log file '" + path + "'");
  }
  for (const QueryLogRecord* r : Recent()) {
    const std::string line = r->ToJson().Dump() + "\n";
    if (std::fwrite(line.data(), 1, line.size(), f) != line.size()) {
      std::fclose(f);
      return Status::Internal("short write to query-log file '" + path +
                              "'");
    }
  }
  std::fclose(f);
  return Status::Ok();
}

std::string QueryLog::ToTable(size_t last_n) const {
  std::vector<const QueryLogRecord*> recent = Recent();
  const size_t begin = recent.size() > last_n ? recent.size() - last_n : 0;
  std::ostringstream os;
  os << "=== query log (" << total_ << " statements, showing "
     << recent.size() - begin << ") ===\n";
  for (size_t i = begin; i < recent.size(); ++i) {
    const QueryLogRecord& r = *recent[i];
    os << "  #" << r.seq << " [" << r.session << "] " << r.backend;
    if (r.shards_total > 0) {
      os << " shards=" << r.shards_scanned << "/" << r.shards_total;
      if (r.shards_failed_over > 0) {
        os << " failed_over=" << r.shards_failed_over;
      }
      if (r.shards_ship_rows + r.shards_ship_aggs > 0) {
        os << " ship={rows:" << r.shards_ship_rows << ",aggs:"
           << r.shards_ship_aggs << "} net=" << FormatCount(r.net_bytes);
      }
    }
    os << " cycles=" << FormatCount(r.cycles)
       << " rows=" << FormatCount(r.rows_matched);
    if (!r.ok) os << " ERROR(" << r.error << ")";
    if (r.degraded) os << " DEGRADED(" << r.degradation << ")";
    if (r.faults_injected > 0) os << " faults=" << r.faults_injected;
    os << "  " << r.sql << '\n';
  }
  return os.str();
}

}  // namespace relfab::obs
