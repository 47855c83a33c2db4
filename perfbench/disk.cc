// `disk_mixed`: a lineitem-shaped storage::DiskTable about 13 times larger
// than its buffer pool. Each cycle appends a batch, then reads through the
// Connection at several threads: 10-row key-range lookups, 1% key-range
// GROUP BYs and full-scan Q6-like sums. ANALYZE reruns after a fixed number
// of appended rows. It is the one workload that reaches the buffer pool,
// the B-tree, the row codec, the write path and the morsel-parallel
// executor.

#include <filesystem>
#include <map>

#include "bench.h"
#include "schema/schema.h"

namespace perfbench {
namespace {

using calcite::SqlTypeName;
using calcite::Status;
using calcite::storage::DiskTable;

constexpr int kInitialRows = 200000;
constexpr size_t kPoolPages = 256;
constexpr int kInsertBatch = 500;
// Eleven cycles: an odd count, so the alternating cycles of a traced run
// see ANALYZE in both halves.
constexpr int kAnalyzeEveryRows = 5500;
constexpr int kLookupRows = 10;
constexpr int kLastShipDay = 2525;

// The oracle's mirror of every row in the table, appended rows included.
struct Line {
  int orderkey, quantity, discount_cents, shipdate;
  double extendedprice, discount;
  char returnflag;
};

class DiskWorkload final : public Workload {
 public:
  DiskWorkload(uint64_t seed, std::string data_dir, size_t num_threads)
      : seed_(seed),
        query_rng_(seed ^ 0xd1),
        path_(data_dir + "/lineitem-" + std::to_string(seed) + ".db"),
        num_threads_(num_threads) {}

  ~DiskWorkload() override {
    Release();
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }

  Status Setup() override {
    // The old table must be gone before Create truncates its file: its
    // buffer pool writes dirty frames back when it is destroyed.
    Release();
    data_rng_ = Rng(seed_);
    mirror_.clear();
    mirror_.reserve(kInitialRows + 50000);
    appended_since_analyze_ = 0;
    calcite::TypeFactory tf;
    auto i64 = tf.CreateSqlType(SqlTypeName::kBigInt);
    auto i32 = tf.CreateSqlType(SqlTypeName::kInteger);
    auto f64 = tf.CreateSqlType(SqlTypeName::kDouble);
    auto str = tf.CreateSqlType(SqlTypeName::kVarchar, 32);
    auto row_type = tf.CreateStructType(
        {"l_key", "l_orderkey", "l_quantity", "l_extendedprice", "l_discount",
         "l_shipdate", "l_returnflag"},
        {i64, i32, i32, f64, f64, i32, str});
    calcite::storage::DiskTableOptions options;
    options.pool_pages = kPoolPages;
    auto created = DiskTable::Create(path_, row_type, 0, options);
    if (!created.ok()) return created.status();
    table_ = std::move(created).value();
    for (int done = 0; done < kInitialRows; done += 10000) {
      Status st = table_->InsertRows(Append(10000));
      if (!st.ok()) return st;
    }
    double t0 = NowSeconds();
    Status st = table_->Analyze();
    analyze_seconds_ = NowSeconds() - t0;
    if (!st.ok()) return st;
    auto schema = std::make_shared<calcite::Schema>();
    schema->AddTable("lineitem", table_);
    config_ = calcite::Connection::Config{};
    config_.schema = schema;
    config_.exec_options.num_threads = num_threads_;
    conn_ = std::make_unique<calcite::Connection>(config_);
    return Status::OK();
  }

  calcite::Connection& conn() override { return *conn_; }
  const calcite::Connection::Config& config() const override { return config_; }
  double analyze_seconds() const override { return analyze_seconds_; }
  DiskTable* disk() override { return table_.get(); }


  std::map<std::string, double> Scale() const override {
    return {{"rows.lineitem", static_cast<double>(table_->row_count())},
            {"pages.heap", static_cast<double>(table_->heap_page_count())},
            {"pages.pool", static_cast<double>(table_->buffer_pool().capacity())}};
  }

  double DiskBytesPerRow() override {
    if (!table_->Flush().ok()) return 0;
    std::error_code ec;
    auto bytes = std::filesystem::file_size(path_, ec);
    if (ec) return 0;
    return static_cast<double>(bytes) / static_cast<double>(table_->row_count());
  }

  // One cycle: append a batch (and ANALYZE once enough rows arrived), then
  // four lookups, two 1% ranges and one full scan.
  std::vector<Op> NextCycle() override {
    std::vector<Op> ops;
    Op insert;
    insert.kind = Op::Kind::kInsert;
    insert.tmpl = "insert";
    insert.rows = Append(kInsertBatch);
    ops.push_back(std::move(insert));
    appended_since_analyze_ += kInsertBatch;
    if (appended_since_analyze_ >= kAnalyzeEveryRows) {
      appended_since_analyze_ = 0;
      Op analyze;
      analyze.kind = Op::Kind::kAnalyze;
      analyze.tmpl = "analyze";
      ops.push_back(std::move(analyze));
    }
    ops.push_back(Lookup());
    ops.push_back(Range());
    ops.push_back(Lookup());
    ops.push_back(Scan());
    ops.push_back(Lookup());
    ops.push_back(Range());
    ops.push_back(Lookup());
    return ops;
  }

 private:
  void Release() {
    conn_.reset();
    config_ = calcite::Connection::Config{};
    table_.reset();
  }

  // Generates `n` new rows with the next keys, mirrors them, and returns
  // them as engine rows.
  std::vector<Row> Append(int n) {
    std::vector<Row> rows;
    rows.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      int64_t key = static_cast<int64_t>(mirror_.size());
      Line l;
      l.orderkey = static_cast<int>(key / 4);
      l.quantity = static_cast<int>(data_rng_.Range(1, 50));
      l.extendedprice =
          static_cast<double>(l.quantity * data_rng_.Range(90000, 200000)) / 100.0;
      l.discount_cents = static_cast<int>(data_rng_.Range(0, 10));
      l.discount = l.discount_cents / 100.0;
      l.shipdate = static_cast<int>(data_rng_.Range(0, kLastShipDay));
      l.returnflag = l.shipdate > 1263 ? 'N' : (data_rng_.Range(0, 1) ? 'R' : 'A');
      rows.push_back({Value::Int(key), Value::Int(l.orderkey),
                      Value::Int(l.quantity), Value::Double(l.extendedprice),
                      Value::Double(l.discount), Value::Int(l.shipdate),
                      Value::String(std::string(1, l.returnflag))});
      mirror_.push_back(l);
    }
    return rows;
  }

  Op Lookup() {
    int64_t n = static_cast<int64_t>(mirror_.size());
    int64_t lo = query_rng_.Range(0, n - kLookupRows);
    Op op;
    op.tmpl = "lookup";
    op.sql = Fmt(
        "SELECT l_key, l_quantity, l_extendedprice FROM lineitem "
        "WHERE l_key >= %lld AND l_key < %lld",
        static_cast<long long>(lo), static_cast<long long>(lo + kLookupRows));
    for (int64_t k = lo; k < lo + kLookupRows; ++k) {
      const Line& l = mirror_[static_cast<size_t>(k)];
      op.expected.push_back({Value::Int(k), Value::Int(l.quantity),
                             Value::Double(l.extendedprice)});
    }
    return op;
  }

  Op Range() {
    int64_t n = static_cast<int64_t>(mirror_.size());
    int64_t width = n / 100;
    int64_t lo = query_rng_.Range(0, n - width);
    Op op;
    op.tmpl = "range";
    op.sql = Fmt(
        "SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS q "
        "FROM lineitem WHERE l_key >= %lld AND l_key < %lld "
        "GROUP BY l_returnflag",
        static_cast<long long>(lo), static_cast<long long>(lo + width));
    std::map<char, std::pair<int64_t, int64_t>> groups;
    for (int64_t k = lo; k < lo + width; ++k) {
      const Line& l = mirror_[static_cast<size_t>(k)];
      auto& g = groups[l.returnflag];
      ++g.first;
      g.second += l.quantity;
    }
    for (const auto& [flag, g] : groups) {
      op.expected.push_back({Value::String(std::string(1, flag)),
                             Value::Int(g.first), Value::Int(g.second)});
    }
    return op;
  }

  Op Scan() {
    int day = 365 * static_cast<int>(query_rng_.Range(0, 5));
    int disc = static_cast<int>(query_rng_.Range(2, 9));
    Op op;
    op.tmpl = "scan";
    op.sql = Fmt(
        "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
        "WHERE l_shipdate >= %d AND l_shipdate < %d "
        "AND l_discount BETWEEN 0.%02d AND 0.%02d AND l_quantity < 24",
        day, day + 365, disc - 1, disc + 1);
    double sum = 0;
    int64_t hits = 0;
    for (const Line& l : mirror_) {
      if (l.shipdate < day || l.shipdate >= day + 365) continue;
      if (l.discount_cents < disc - 1 || l.discount_cents > disc + 1) continue;
      if (l.quantity >= 24) continue;
      sum += l.extendedprice * l.discount;
      ++hits;
    }
    op.expected.push_back({hits == 0 ? Value::Null() : Value::Double(sum)});
    return op;
  }

  uint64_t seed_;
  Rng query_rng_;
  Rng data_rng_{0};
  std::string path_;
  size_t num_threads_;
  calcite::Connection::Config config_;
  std::unique_ptr<calcite::Connection> conn_;
  std::shared_ptr<DiskTable> table_;
  double analyze_seconds_ = 0;
  std::vector<Line> mirror_;
  int appended_since_analyze_ = 0;
};

}  // namespace

std::vector<std::string> DiskTemplates() { return {"lookup", "range", "scan"}; }

std::unique_ptr<Workload> MakeDiskWorkload(uint64_t seed,
                                           const std::string& data_dir,
                                           size_t num_threads) {
  return std::make_unique<DiskWorkload>(seed, data_dir, num_threads);
}

}  // namespace perfbench
