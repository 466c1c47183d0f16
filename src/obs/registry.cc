#include "obs/registry.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "common/format.h"

namespace relfab::obs {

uint32_t Histogram::BucketFor(double v) {
  if (!(v >= 1.0)) return 0;  // NaN and sub-1 values land in bucket 0
  // Octave = floor(log2(v)); sub-bucket = linear position inside it.
  const int exp = std::min(62, static_cast<int>(std::floor(std::log2(v))));
  const double lower = std::ldexp(1.0, exp);
  const uint32_t sub = std::min(
      kSubBuckets - 1,
      static_cast<uint32_t>((v - lower) / lower * kSubBuckets));
  return std::min(kNumBuckets - 1,
                  static_cast<uint32_t>(exp) * kSubBuckets + sub);
}

double Histogram::BucketLowerEdge(uint32_t b) {
  const uint32_t exp = b / kSubBuckets;
  const uint32_t sub = b % kSubBuckets;
  const double lower = std::ldexp(1.0, static_cast<int>(exp));
  return lower + lower * sub / kSubBuckets;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  if (q <= 0) return min();
  if (q >= 1) return max();
  const uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  uint64_t seen = 0;
  for (uint32_t b = 0; b < kNumBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) {
      // Report the bucket's upper edge, clamped to the observed max.
      const double upper = BucketLowerEdge(b + 1);
      return upper < max_ ? upper : max_;
    }
  }
  return max_;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
  for (uint32_t b = 0; b < kNumBuckets; ++b) buckets_[b] += other.buckets_[b];
}

void Registry::Reset() {
  for (auto& [name, c] : counters_) c->Set(0);
  for (auto& [name, g] : gauges_) g->Set(0);
  for (auto& [name, h] : histograms_) *h = Histogram();
}

void Registry::MergeFrom(const Registry& other) {
  for (const auto& [name, c] : other.counters_) {
    counter(name)->Inc(c->value());
  }
  for (const auto& [name, g] : other.gauges_) gauge(name)->Set(g->value());
  for (const auto& [name, h] : other.histograms_) {
    histogram(name)->Merge(*h);
  }
}

Json Registry::ToJson() const {
  Json doc = Json::Object();
  Json counters = Json::Object();
  for (const auto& [name, c] : counters_) counters.Set(name, c->value());
  Json gauges = Json::Object();
  for (const auto& [name, g] : gauges_) gauges.Set(name, g->value());
  Json histograms = Json::Object();
  for (const auto& [name, h] : histograms_) {
    Json hj = Json::Object();
    hj.Set("count", h->count());
    hj.Set("sum", h->sum());
    hj.Set("min", h->min());
    hj.Set("max", h->max());
    hj.Set("mean", h->mean());
    hj.Set("p50", h->Quantile(0.5));
    hj.Set("p90", h->Quantile(0.9));
    hj.Set("p99", h->Quantile(0.99));
    hj.Set("p999", h->Quantile(0.999));
    // Buckets carry both edges so external tools (analyze_query_log.py,
    // notebook consumers) can re-derive any quantile without knowing the
    // log-linear layout: [lower_edge, upper_edge, count].
    Json buckets = Json::Array();
    for (uint32_t b = 0; b < Histogram::kNumBuckets; ++b) {
      if (h->buckets()[b] == 0) continue;
      Json triple = Json::Array();
      triple.Append(Histogram::BucketLowerEdge(b));
      triple.Append(Histogram::BucketLowerEdge(b + 1));
      triple.Append(h->buckets()[b]);
      buckets.Append(std::move(triple));
    }
    hj.Set("buckets", std::move(buckets));
    histograms.Set(name, std::move(hj));
  }
  doc.Set("counters", std::move(counters));
  doc.Set("gauges", std::move(gauges));
  doc.Set("histograms", std::move(histograms));
  return doc;
}

std::string Registry::ToTable() const {
  // Single sorted pass over all instrument kinds: each per-kind map is
  // already name-ordered, so a three-way merge keeps the whole dump in
  // one stable lexicographic order and metric-dump diffs deterministic.
  std::ostringstream os;
  os << "=== metrics ===\n";
  auto pad = [&os](const std::string& name) {
    os << "  " << name;
    for (size_t i = name.size(); i < 40; ++i) os << ' ';
  };
  auto c = counters_.begin();
  auto g = gauges_.begin();
  auto h = histograms_.begin();
  while (c != counters_.end() || g != gauges_.end() ||
         h != histograms_.end()) {
    const std::string* next = nullptr;
    if (c != counters_.end()) next = &c->first;
    if (g != gauges_.end() && (next == nullptr || g->first < *next)) {
      next = &g->first;
    }
    if (h != histograms_.end() && (next == nullptr || h->first < *next)) {
      next = &h->first;
    }
    if (c != counters_.end() && &c->first == next) {
      pad(c->first);
      os << ' ' << FormatCount(c->second->value()) << '\n';
      ++c;
    } else if (g != gauges_.end() && &g->first == next) {
      pad(g->first);
      os << ' ' << FormatDouble(g->second->value(), 4) << '\n';
      ++g;
    } else {
      pad(h->first);
      const Histogram& hist = *h->second;
      os << " count=" << FormatCount(hist.count())
         << " mean=" << FormatDouble(hist.mean(), 2)
         << " p50=" << FormatDouble(hist.Quantile(0.5), 2)
         << " p99=" << FormatDouble(hist.Quantile(0.99), 2)
         << " max=" << FormatDouble(hist.max(), 2) << '\n';
      ++h;
    }
  }
  return os.str();
}

}  // namespace relfab::obs
