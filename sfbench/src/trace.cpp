#include "trace.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <unordered_map>

namespace sfbench {

namespace {

thread_local std::vector<SpanRecord> t_open;

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::open(const char* name, const char* category,
                           std::uint64_t item) {
  SpanRecord span;
  span.name = name;
  span.category = category;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = t_open.empty() ? 0 : t_open.back().id;
  span.item = item;
  span.thread = thread_number();
  span.start = Clock::now();
  t_open.push_back(span);
  return span.id;
}

void Tracer::close(std::uint64_t id) {
  const Clock::time_point end = Clock::now();
  if (t_open.empty() || t_open.back().id != id) return;
  SpanRecord record = t_open.back();
  t_open.pop_back();
  record.end = end;
  std::lock_guard lock(mutex_);
  spans_.push_back(record);
}

void Tracer::record(const char* name, const char* category,
                    Clock::time_point start, Clock::time_point end,
                    std::uint64_t item, std::uint64_t parent) {
  if (!enabled()) return;
  SpanRecord record;
  record.name = name;
  record.category = category;
  record.start = start;
  record.end = end;
  record.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  record.parent = parent;
  record.item = item;
  record.thread = thread_number();
  std::lock_guard lock(mutex_);
  spans_.push_back(record);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

bool Tracer::write_chrome(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  Clock::time_point origin = Clock::time_point::max();
  for (const SpanRecord& s : all) origin = std::min(origin, s.start);
  std::ofstream out(path);
  if (!out) return false;
  out.precision(15);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - origin).count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    out << "{\"name\": \"" << s.name << "\", \"cat\": \""
        << (std::strlen(s.category) > 0 ? s.category : "measure")
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << ts << ", \"dur\": " << dur
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"item\": " << s.item << "}}" << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::map<std::string, double> layer_self_ms(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans)
    if (s.parent != 0) children[s.parent].push_back(&s);
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.category, "verify") == 0 ||
        std::strcmp(s.category, "setup") == 0)
      continue;
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    if (const auto it = children.find(s.id); it != children.end())
      for (const SpanRecord* c : it->second)
        cover.emplace_back(std::max(c->start, s.start), std::min(c->end, s.end));
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [from, to] : cover) {
      const Clock::time_point begin = std::max(from, reach);
      if (to > begin) {
        covered += ms_between(begin, to);
        reach = to;
      }
    }
    const std::string name = s.name;
    self[name.substr(0, name.find('.'))] += ms_between(s.start, s.end) - covered;
  }
  return self;
}

double total_ms(const std::vector<SpanRecord>& spans, const std::string& name) {
  double total = 0.0;
  for (const SpanRecord& s : spans)
    if (name == s.name) total += ms_between(s.start, s.end);
  return total;
}

std::vector<double> durations_us(const std::vector<SpanRecord>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans)
    if (name == s.name) out.push_back(ms_between(s.start, s.end) * 1000.0);
  return out;
}

}  // namespace sfbench
