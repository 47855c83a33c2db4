// `plan`: 3-, 4- and 5-way equi-join chains plus short single-table
// queries over small ANALYZEd tables, planned with join reordering and the
// default exhaustive Volcano search. Planning dominates every join, so
// join-enumeration, memo and rule-matching changes move this workload and
// executor changes do not.

#include <map>

#include "bench.h"
#include "schema/analyze.h"
#include "schema/schema.h"
#include "schema/table.h"

namespace perfbench {
namespace {

using calcite::MemTable;
using calcite::SqlTypeName;
using calcite::Status;

// t1 -> t2 -> t3 -> t4 -> t5: each row of t<i> references one row of
// t<i+1> through `fk`.
constexpr int kTables = 5;
constexpr int kRows[kTables] = {3000, 1200, 600, 250, 60};
constexpr int kTags = 8;

struct ChainRow {
  int fk;    // key into the next table (unused in t5)
  int v;     // 0..999
  int tag;   // 0..kTags-1
};

class PlanWorkload final : public Workload {
 public:
  explicit PlanWorkload(uint64_t seed) : seed_(seed), query_rng_(seed ^ 0x9e) {}

  Status Setup() override {
    conn_.reset();
    config_ = calcite::Connection::Config{};
    config_.join_reorder = true;
    Rng rng(seed_);
    calcite::TypeFactory tf;
    auto i64 = tf.CreateSqlType(SqlTypeName::kInteger);
    auto str = tf.CreateSqlType(SqlTypeName::kVarchar, 16);
    auto schema = std::make_shared<calcite::Schema>();
    analyze_seconds_ = 0;
    for (int t = 0; t < kTables; ++t) {
      auto& rows = data_[t];
      rows.assign(static_cast<size_t>(kRows[t]), ChainRow{});
      std::vector<Row> table_rows;
      for (int id = 0; id < kRows[t]; ++id) {
        ChainRow& r = rows[static_cast<size_t>(id)];
        r.fk = t + 1 < kTables ? static_cast<int>(rng.Range(0, kRows[t + 1] - 1)) : 0;
        r.v = static_cast<int>(rng.Range(0, 999));
        r.tag = static_cast<int>(rng.Range(0, kTags - 1));
        table_rows.push_back({Value::Int(id), Value::Int(r.fk), Value::Int(r.v),
                              Value::String("tag" + std::to_string(r.tag))});
      }
      auto table = std::make_shared<MemTable>(
          tf.CreateStructType({"id", "fk", "v", "tag"}, {i64, i64, i64, str}),
          std::move(table_rows));
      double t0 = NowSeconds();
      auto stats = calcite::AnalyzeTable(*table);
      analyze_seconds_ += NowSeconds() - t0;
      if (!stats.ok()) return stats.status();
      stats.value().unique_keys = {{0}};
      table->set_statistic(std::move(stats).value());
      schema->AddTable("t" + std::to_string(t + 1), table);
    }
    config_.schema = schema;
    conn_ = std::make_unique<calcite::Connection>(config_);
    return Status::OK();
  }

  calcite::Connection& conn() override { return *conn_; }
  const calcite::Connection::Config& config() const override { return config_; }
  double analyze_seconds() const override { return analyze_seconds_; }


  std::map<std::string, double> Scale() const override {
    std::map<std::string, double> scale;
    for (int t = 0; t < kTables; ++t) {
      scale["rows.t" + std::to_string(t + 1)] = kRows[t];
    }
    return scale;
  }

  // Template weights per cycle: join5 1, join4 3, join3 8, point 18, agg 6.
  // The one 5-way join is most of the cycle's time; the short templates
  // keep parse, convert and Hep visible beside Volcano.
  std::vector<Op> NextCycle() override {
    std::vector<Op> ops;
    ops.push_back(Join(5));
    for (int i = 0; i < 3; ++i) {
      ops.push_back(Join(4));
      for (int j = 0; j < 6; ++j) ops.push_back(Point());
      for (int j = 0; j < 2; ++j) ops.push_back(Agg());
    }
    for (int i = 0; i < 8; ++i) ops.push_back(Join(3));
    return ops;
  }

 private:
  // A chain join t1 .. t<n> with a filter on the far end, counting and
  // summing over the near end.
  Op Join(int n) {
    int cutoff = static_cast<int>(query_rng_.Range(300, 700));
    Op op;
    op.tmpl = "join" + std::to_string(n);
    std::string sql = "SELECT COUNT(*) AS n, SUM(a1.v) AS s FROM t1 a1";
    for (int t = 2; t <= n; ++t) {
      sql += Fmt(" JOIN t%d a%d ON a%d.fk = a%d.id", t, t, t - 1, t);
    }
    sql += Fmt(" WHERE a%d.v < %d", n, cutoff);
    op.sql = sql;
    int64_t count = 0, sum = 0;
    for (const ChainRow& r : data_[0]) {
      const ChainRow* cur = &r;
      for (int t = 1; t < n; ++t) cur = &data_[t][static_cast<size_t>(cur->fk)];
      if (cur->v < cutoff) {
        ++count;
        sum += r.v;
      }
    }
    op.expected.push_back(
        {Value::Int(count), count == 0 ? Value::Null() : Value::Int(sum)});
    return op;
  }

  Op Point() {
    int id = static_cast<int>(query_rng_.Range(0, kRows[0] - 1));
    const ChainRow& r = data_[0][static_cast<size_t>(id)];
    Op op;
    op.tmpl = "point";
    op.sql = Fmt("SELECT id, v, tag FROM t1 WHERE id = %d", id);
    op.expected.push_back({Value::Int(id), Value::Int(r.v),
                           Value::String("tag" + std::to_string(r.tag))});
    return op;
  }

  Op Agg() {
    int cutoff = static_cast<int>(query_rng_.Range(100, 900));
    Op op;
    op.tmpl = "agg";
    op.sql = Fmt(
        "SELECT tag, COUNT(*) AS n, SUM(v) AS s FROM t2 WHERE v < %d "
        "GROUP BY tag",
        cutoff);
    std::map<int, std::pair<int64_t, int64_t>> groups;
    for (const ChainRow& r : data_[1]) {
      if (r.v >= cutoff) continue;
      auto& g = groups[r.tag];
      ++g.first;
      g.second += r.v;
    }
    for (const auto& [tag, g] : groups) {
      op.expected.push_back({Value::String("tag" + std::to_string(tag)),
                             Value::Int(g.first), Value::Int(g.second)});
    }
    return op;
  }

  uint64_t seed_;
  Rng query_rng_;
  calcite::Connection::Config config_;
  std::unique_ptr<calcite::Connection> conn_;
  double analyze_seconds_ = 0;
  std::vector<ChainRow> data_[kTables];
};

}  // namespace

std::vector<std::string> PlanTemplates() { return {"join3", "join4", "join5", "point", "agg"}; }

std::unique_ptr<Workload> MakePlanWorkload(uint64_t seed) {
  return std::make_unique<PlanWorkload>(seed);
}

}  // namespace perfbench
