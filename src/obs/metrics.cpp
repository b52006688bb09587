#include "voprof/obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "voprof/util/assert.hpp"

namespace voprof::obs {

std::uint64_t detail::assign_thread_id() noexcept {
  static std::atomic<std::uint64_t> next_id{1};
  t_thread_id = next_id.fetch_add(1, std::memory_order_relaxed);
  return t_thread_id;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  VOPROF_REQUIRE_MSG(!bounds_.empty(),
                     "Histogram needs at least one bucket bound");
  VOPROF_REQUIRE_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                         std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                             bounds_.end(),
                     "Histogram bounds must be strictly increasing");
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(double v) noexcept {
  if constexpr (kObsCompiled) {
    // NaN is checked explicitly and sent to the overflow bucket:
    // lower_bound's `bound < NaN` comparisons are all false, which
    // would otherwise file NaN under the FIRST bucket.
    std::size_t idx = bounds_.size();
    if (!std::isnan(v)) {
      const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
      if (it != bounds_.end()) {
        idx = static_cast<std::size_t>(it - bounds_.begin());
      }
    }
    counts_[idx].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
  } else {
    (void)v;
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  // Immortal on purpose: components hold references in function-local
  // statics, and destruction order across translation units is
  // unspecified. One registry per process; the leak is bounded.
  static Registry* instance = new Registry();
  return *instance;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return *slot;
}

Registry::Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.entries.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    Snapshot::Entry e;
    e.name = name;
    e.kind = "counter";
    e.value = static_cast<double>(c->value());
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [name, g] : gauges_) {
    Snapshot::Entry e;
    e.name = name;
    e.kind = "gauge";
    e.value = g->value();
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [name, h] : histograms_) {
    Snapshot::Entry e;
    e.name = name;
    e.kind = "histogram";
    e.hist = h->snapshot();
    e.value = e.hist.mean();
    snap.entries.push_back(std::move(e));
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const Snapshot::Entry& a, const Snapshot::Entry& b) {
              return a.name < b.name;
            });
  return snap;
}

void Registry::reset_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& kv : counters_) {
    kv.second->reset();
  }
  for (auto& kv : gauges_) {
    kv.second->reset();
  }
  for (auto& kv : histograms_) {
    kv.second->reset();
  }
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::string metric_category(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace voprof::obs
