// Shared pieces of the standing SQL benchmark: deterministic random numbers,
// the workload interface, the answer checker, and the in-memory span tracer.

#ifndef CALCITE_PERFBENCH_BENCH_H_
#define CALCITE_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/disk_table.h"
#include "tools/frameworks.h"
#include "type/value.h"

namespace perfbench {

using calcite::Row;
using calcite::Value;

/// splitmix64: the same seed gives the same stream on every platform and
/// standard library, unlike the std distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi] (inclusive).
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  template <typename T>
  const T& Pick(const std::vector<T>& items) {
    return items[Next() % items.size()];
  }

 private:
  uint64_t state_;
};

/// printf into a std::string (SQL text is short; longer output is cut).
std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One closed-loop operation: a read query with its oracle answer, a batch
/// append, or an ANALYZE.
struct Op {
  enum class Kind { kRead, kInsert, kAnalyze };
  Kind kind = Kind::kRead;
  std::string tmpl;
  std::string sql;
  std::vector<Row> expected;
  /// True when the query's ORDER BY fixes the row order completely.
  bool ordered = false;
  std::vector<Row> rows;  // kInsert payload
};

/// A workload owns its generated data, the connection that serves it and
/// the oracle that knows every answer without going through the engine.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the data from the seed, loads and ANALYZEs it, and builds
  /// the connection. Called several times; each call starts from scratch.
  virtual calcite::Status Setup() = 0;
  virtual calcite::Connection& conn() = 0;
  virtual const calcite::Connection::Config& config() const = 0;
  /// The next cycle of operations, answers included. A cycle is the unit
  /// of the fixed template mix, so whole cycles keep the mix exact.
  virtual std::vector<Op> NextCycle() = 0;
  /// Scale facts for the environment stamp (rows per table, pages).
  virtual std::map<std::string, double> Scale() const = 0;
  /// Seconds the last Setup() spent in ANALYZE.
  virtual double analyze_seconds() const = 0;
  /// The disk table, or nullptr for in-memory workloads.
  virtual calcite::storage::DiskTable* disk() { return nullptr; }
  /// Bytes of the table file after Flush(), divided by live rows.
  virtual double DiskBytesPerRow() { return 0; }
};

/// Each workload's read templates, in reporting order.
std::vector<std::string> OlapTemplates();
std::vector<std::string> PlanTemplates();
std::vector<std::string> DiskTemplates();

std::unique_ptr<Workload> MakeOlapWorkload(uint64_t seed);
std::unique_ptr<Workload> MakePlanWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeDiskWorkload(uint64_t seed,
                                           const std::string& data_dir,
                                           size_t num_threads);

/// Relative tolerance for floating-point cells: sums over 200k doubles in
/// a different order differ by far less than this.
inline constexpr double kFloatTolerance = 1e-9;

/// Compares an engine answer with the oracle's. Unordered results are
/// compared as sorted multisets. Returns an empty string on a match, else
/// a description of the first difference.
std::string CompareRows(std::vector<Row> actual, std::vector<Row> expected,
                        bool ordered);

/// An in-memory span: [start, end) in nanoseconds from the tracer's base,
/// the span that caused it (-1 for a root), the query it belongs to and,
/// on a root span, the template that query came from.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t query = -1;
  std::string tmpl;
};

class Tracer {
 public:
  Tracer() : base_(std::chrono::steady_clock::now()) {}
  int Begin(const char* name, int parent, int64_t query,
            const std::string& tmpl = "") {
    spans_.push_back(Span{name, Now(), 0, parent, query, tmpl});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_ns = Now(); }
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes the spans as a JSON array of objects.
  bool WriteJson(const std::string& path) const;

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - base_)
        .count();
  }
  std::chrono::steady_clock::time_point base_;
  std::vector<Span> spans_;
};

/// Self time per span: its duration minus what its children cover.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // CALCITE_PERFBENCH_BENCH_H_
