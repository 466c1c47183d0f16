#include "obs/report.h"

#include <cstdio>

namespace relfab::obs {

Json RunReport::ToJson() const {
  Json doc = Json::Object();
  doc.Set("schema_version", 3);
  doc.Set("bench", name_);
  Json config = Json::Object();
  for (const auto& [k, v] : config_) config.Set(k, v);
  doc.Set("config", std::move(config));
  Json results = Json::Array();
  for (const Result& r : results_) {
    Json rj = Json::Object();
    rj.Set("series", r.series);
    rj.Set("x", r.x);
    rj.Set("sim_cycles", r.sim_cycles);
    results.Append(std::move(rj));
  }
  doc.Set("results", std::move(results));
  doc.Set("metrics", metrics_);
  return doc;
}

Status RunReport::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open report file '" + path + "'");
  }
  const std::string text = ToJson().Dump(1);
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    return Status::Internal("short write to report file '" + path + "'");
  }
  return Status::Ok();
}

}  // namespace relfab::obs
