#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>

#include "trace_cmd.hpp"
#include "voprof/obs/metrics.hpp"

namespace voprof::e2e {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Counters read_counters() {
  Counters out;
  for (const auto& e : obs::Registry::global().snapshot().entries) {
    if (e.kind != "histogram") out[e.name] = e.value;
  }
  return out;
}

Counters counters_from_json(const util::Json& metrics) {
  Counters out;
  for (const auto& [name, entry] : metrics.as_object()) {
    const util::Json* value = entry.is_object() ? entry.find("value") : &entry;
    if (value != nullptr && value->is_number()) {
      out[name] = value->as_number();
    }
  }
  return out;
}

double delta(const Counters& before, const Counters& after,
             const std::string& name) {
  const auto read = [&name](const Counters& c) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  return read(after) - read(before);
}

void counter_layers(std::map<std::string, double>& layer,
                    const Counters& before, const Counters& after, double ops,
                    double op_wall_s, int jobs) {
  const auto per_op = [&](const std::string& name) {
    return delta(before, after, name) / ops;
  };
  const double task_cpu_s = per_op("taskpool.busy_us") / 1e6;
  layer["xensim.events"] = per_op("engine.events_fired");
  layer["xensim.machine_ticks"] = per_op("machine.ticks");
  layer["xensim.credit_ticks"] = per_op("credit_micro.ticks");
  layer["monitor.samples"] = per_op("monitor.samples");
  layer["runner.cells"] = per_op("runner.cells");
  layer["runner.task_cpu_s"] = task_cpu_s;
  layer["runner.busy_share"] = task_cpu_s / (op_wall_s * jobs);
  layer["runner.model_cache_hits"] = per_op("runner.model_cache_hits");
  layer["runner.model_cache_misses"] = per_op("runner.model_cache_misses");
}

std::vector<Span> wall_spans(const util::Json& trace) {
  std::vector<Span> out;
  for (const util::Json& e : trace.at("traceEvents").as_array()) {
    const util::Json* ph = e.find("ph");
    const util::Json* pid = e.find("pid");
    if (ph == nullptr || ph->as_string() != "X" || pid == nullptr ||
        pid->as_number() != obs::kWallPid) {
      continue;
    }
    out.push_back({e.at("cat").as_string(), e.at("name").as_string(),
                   static_cast<std::uint64_t>(e.at("tid").as_number()),
                   static_cast<std::int64_t>(e.at("ts").as_number()),
                   static_cast<std::int64_t>(e.at("dur").as_number())});
  }
  return out;
}

std::map<std::string, double> self_ms_by_category(
    const std::vector<Span>& spans) {
  // Per thread, sorted by start (longer first on ties), a span's
  // parent is the innermost open span that still contains it.
  std::vector<const Span*> order;
  for (const Span& s : spans) order.push_back(&s);
  std::sort(order.begin(), order.end(), [](const Span* a, const Span* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
    return a->dur_us > b->dur_us;
  });
  std::map<std::string, double> self_us;
  std::vector<const Span*> open;
  for (const Span* s : order) {
    while (!open.empty() && (open.back()->tid != s->tid ||
                             open.back()->ts_us + open.back()->dur_us <=
                                 s->ts_us)) {
      open.pop_back();
    }
    self_us[s->cat] += static_cast<double>(s->dur_us);
    if (!open.empty()) {
      const Span* parent = open.back();
      const std::int64_t end = std::min(parent->ts_us + parent->dur_us,
                                        s->ts_us + s->dur_us);
      self_us[parent->cat] -= static_cast<double>(end - s->ts_us);
    }
    open.push_back(s);
  }
  for (auto& [cat, us] : self_us) us /= 1000.0;
  return self_us;
}

double covered_us(const std::vector<Span>& spans, std::int64_t begin_us,
                  std::int64_t end_us) {
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const Span& s : spans) {
    const std::int64_t a = std::max(s.ts_us, begin_us);
    const std::int64_t b = std::min(s.ts_us + s.dur_us, end_us);
    if (a < b) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  std::int64_t cur_a = 0;
  std::int64_t cur_b = -1;
  for (const auto& [a, b] : iv) {
    if (cur_b < a) {
      if (cur_b > cur_a) total += static_cast<double>(cur_b - cur_a);
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) total += static_cast<double>(cur_b - cur_a);
  return total;
}

SpanTotal span_total(const std::vector<Span>& spans, const std::string& cat,
                     const std::string& name) {
  SpanTotal t;
  for (const Span& s : spans) {
    if (s.cat == cat && s.name == name) {
      t.us += static_cast<double>(s.dur_us);
      ++t.count;
    }
  }
  return t;
}

bool is_program_span(const Span& s) { return s.name.rfind("bench.", 0) != 0; }

std::vector<Span> digest_trace(Report& rep, const util::Json& doc,
                               const std::string& title) {
  const tools::TraceSummary summary = tools::summarize_trace(doc);
  rep.heading(title + ": span summary");
  std::istringstream lines(tools::format_trace_summary(summary));
  for (std::string line; std::getline(lines, line);) {
    rep.table.push_back("#   " + line);
  }
  std::vector<Span> spans = wall_spans(doc);
  self_time_rows(rep, title + ": self time by category",
                 self_ms_by_category(spans));
  return spans;
}

void finish_trace(Report& rep, const std::string& path, Traced* t) {
  obs::TraceCollector& collector = obs::TraceCollector::global();
  t->end_us = collector.wall_now_us();
  const util::Json doc = collector.to_json();
  if (!collector.write_file()) {
    throw std::runtime_error("cannot write trace " + path);
  }
  t->spans = digest_trace(rep, doc, "in-process trace " + path);
}

double Traced::unattributed_share() const {
  std::vector<Span> program;
  for (const Span& s : spans) {
    if (is_program_span(s)) program.push_back(s);
  }
  return 1.0 - covered_us(program, begin_us, end_us) /
                   static_cast<double>(end_us - begin_us);
}

}  // namespace voprof::e2e
