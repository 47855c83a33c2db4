#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace perfbench {

namespace {

bool CellsMatch(const Value& a, const Value& b) {
  if (a.IsNull() || b.IsNull()) return a.IsNull() && b.IsNull();
  if (a.is_numeric() && b.is_numeric()) {
    if (a.is_int() && b.is_int()) return a.AsInt() == b.AsInt();
    double x = a.AsDouble(), y = b.AsDouble();
    double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= kFloatTolerance * scale;
  }
  return a == b;
}

bool RowLess(const Row& a, const Row& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

}  // namespace

std::string Fmt(const char* format, ...) {
  char buf[2048];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

std::string CompareRows(std::vector<Row> actual, std::vector<Row> expected,
                        bool ordered) {
  if (actual.size() != expected.size()) {
    return "row count " + std::to_string(actual.size()) + " != expected " +
           std::to_string(expected.size());
  }
  if (!ordered) {
    std::sort(actual.begin(), actual.end(), RowLess);
    std::sort(expected.begin(), expected.end(), RowLess);
  }
  for (size_t r = 0; r < actual.size(); ++r) {
    const Row& a = actual[r];
    const Row& e = expected[r];
    bool same = a.size() == e.size();
    for (size_t c = 0; same && c < a.size(); ++c) same = CellsMatch(a[c], e[c]);
    if (!same) {
      return "row " + std::to_string(r) + ": got " + calcite::RowToString(a) +
             ", expected " + calcite::RowToString(e);
    }
  }
  return "";
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"query\": %lld, "
                 "\"tmpl\": \"%s\"}%s\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.query), s.tmpl.c_str(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  // Children of one span run one after another, so their durations add up
  // to the part of the parent's interval they cover.
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  return self;
}

}  // namespace perfbench
