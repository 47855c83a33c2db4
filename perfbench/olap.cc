// `olap`: a star schema shaped like TPC-H, held in ANALYZEd MemTables and
// queried through the default serial Connection. Execution dominates every
// template, so executor, aggregate and expression changes move this
// workload and planner changes do not.

#include <algorithm>
#include <map>
#include <tuple>
#include <unordered_map>

#include "bench.h"
#include "schema/analyze.h"
#include "schema/schema.h"
#include "schema/table.h"

namespace perfbench {
namespace {

using calcite::MemTable;
using calcite::SqlTypeName;
using calcite::Status;

constexpr int kOrders = 50000;
constexpr int kCustomers = 5000;
constexpr int kParts = 6000;
constexpr int kSuppliers = 400;
constexpr int kLastOrderDay = 2405;  // order dates are days since 1992-01-01
constexpr int kStatusCutoffDay = 1263;

const std::vector<std::string> kSegments = {"AUTOMOBILE", "BUILDING",
                                            "FURNITURE", "HOUSEHOLD",
                                            "MACHINERY"};
const std::vector<std::string> kShipModes = {"AIR",  "FOB",   "MAIL", "RAIL",
                                             "REG AIR", "SHIP", "TRUCK"};
const std::vector<std::string> kPriorities = {
    "1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"};
const std::vector<std::string> kRegions = {"AFRICA", "AMERICA", "ASIA",
                                           "EUROPE", "MIDDLE EAST"};
const std::vector<std::pair<std::string, int>> kNations = {
    {"ALGERIA", 0},   {"ARGENTINA", 1},      {"BRAZIL", 1},  {"CANADA", 1},
    {"EGYPT", 4},     {"ETHIOPIA", 0},       {"FRANCE", 3},  {"GERMANY", 3},
    {"INDIA", 2},     {"INDONESIA", 2},      {"IRAN", 4},    {"IRAQ", 4},
    {"JAPAN", 2},     {"JORDAN", 4},         {"KENYA", 0},   {"MOROCCO", 0},
    {"MOZAMBIQUE", 0}, {"PERU", 1},          {"CHINA", 2},   {"ROMANIA", 3},
    {"SAUDI ARABIA", 4}, {"VIETNAM", 2},     {"RUSSIA", 3},
    {"UNITED KINGDOM", 3}, {"UNITED STATES", 1}};
// Part-name words (the TPC-H colour list); a part's name is five of them.
const std::vector<std::string> kWords = {
    "almond",    "antique",   "aquamarine", "azure",     "beige",
    "bisque",    "black",     "blanched",   "blue",      "blush",
    "brown",     "burlywood", "burnished",  "chartreuse", "chiffon",
    "chocolate", "coral",     "cornflower", "cornsilk",  "cream",
    "cyan",      "dark",      "deep",       "dim",       "dodger",
    "drab",      "firebrick", "floral",     "forest",    "frosted",
    "gainsboro", "ghost",     "goldenrod",  "green",     "grey",
    "honeydew",  "hot",       "indian",     "ivory",     "khaki",
    "lace",      "lavender",  "lawn",       "lemon",     "light",
    "lime",      "linen",     "magenta",    "maroon",    "medium",
    "metallic",  "midnight",  "mint",       "misty",     "moccasin",
    "navajo",    "navy",      "olive",      "orange",    "orchid",
    "pale",      "papaya",    "peach",      "peru",      "pink",
    "plum",      "powder",    "puff",       "purple",    "red",
    "rose",      "rosy",      "royal",      "saddle",    "salmon",
    "sandy",     "seashell",  "sienna",     "sky",       "slate",
    "smoke",     "snow",      "spring",     "steel",     "tan",
    "thistle",   "tomato",    "turquoise",  "violet",    "wheat",
    "white",     "yellow"};

// The oracle's own copy of the data, as plain structs.
struct LineItem {
  int orderkey, partkey, suppkey, linenumber, quantity;
  double extendedprice, discount, tax;
  int discount_cents;
  char returnflag, linestatus;
  int shipdate;
  int shipmode;
};
struct Order {
  int custkey;
  double totalprice;
  int orderdate;
  int shippriority;
};
struct Customer {
  int nationkey;
  int segment;
};

class OlapWorkload final : public Workload {
 public:
  explicit OlapWorkload(uint64_t seed) : seed_(seed), query_rng_(seed ^ 0x51) {}

  Status Setup() override {
    conn_.reset();
    config_ = calcite::Connection::Config{};
    Generate();
    calcite::TypeFactory tf;
    auto i64 = tf.CreateSqlType(SqlTypeName::kInteger);
    auto f64 = tf.CreateSqlType(SqlTypeName::kDouble);
    auto str = tf.CreateSqlType(SqlTypeName::kVarchar, 64);
    auto schema = std::make_shared<calcite::Schema>();
    analyze_seconds_ = 0;
    auto add = [&](const std::string& name,
                   const std::vector<std::string>& cols,
                   const std::vector<calcite::RelDataTypePtr>& types,
                   std::vector<Row> rows, bool keyed) -> Status {
      auto table = std::make_shared<MemTable>(tf.CreateStructType(cols, types),
                                              std::move(rows));
      double t0 = NowSeconds();
      auto stats = calcite::AnalyzeTable(*table);
      analyze_seconds_ += NowSeconds() - t0;
      if (!stats.ok()) return stats.status();
      if (keyed) stats.value().unique_keys = {{0}};
      table->set_statistic(std::move(stats).value());
      schema->AddTable(name, table);
      return Status::OK();
    };
    Status st = add("lineitem",
                    {"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
                     "l_quantity", "l_extendedprice", "l_discount", "l_tax",
                     "l_returnflag", "l_linestatus", "l_shipdate",
                     "l_shipmode"},
                    {i64, i64, i64, i64, i64, f64, f64, f64, str, str, i64, str},
                    LineItemRows(), false);
    if (st.ok()) {
      st = add("orders",
               {"o_orderkey", "o_custkey", "o_totalprice", "o_orderdate",
                "o_orderpriority", "o_shippriority"},
               {i64, i64, f64, i64, str, i64}, OrderRows(), true);
    }
    if (st.ok()) {
      st = add("customer",
               {"c_custkey", "c_name", "c_nationkey", "c_mktsegment",
                "c_acctbal"},
               {i64, str, i64, str, f64}, CustomerRows(), true);
    }
    if (st.ok()) {
      st = add("part", {"p_partkey", "p_name", "p_brand", "p_size",
                        "p_retailprice"},
               {i64, str, str, i64, f64}, PartRows(), true);
    }
    if (st.ok()) {
      st = add("supplier", {"s_suppkey", "s_name", "s_nationkey", "s_acctbal"},
               {i64, str, i64, f64}, SupplierRows(), true);
    }
    if (st.ok()) {
      std::vector<Row> rows;
      for (size_t n = 0; n < kNations.size(); ++n) {
        rows.push_back({Value::Int(static_cast<int64_t>(n)),
                        Value::String(kNations[n].first),
                        Value::Int(kNations[n].second)});
      }
      st = add("nation", {"n_nationkey", "n_name", "n_regionkey"},
               {i64, str, i64}, std::move(rows), true);
    }
    if (st.ok()) {
      std::vector<Row> rows;
      for (size_t r = 0; r < kRegions.size(); ++r) {
        rows.push_back({Value::Int(static_cast<int64_t>(r)),
                        Value::String(kRegions[r])});
      }
      st = add("region", {"r_regionkey", "r_name"}, {i64, str},
               std::move(rows), true);
    }
    if (!st.ok()) return st;
    config_.schema = schema;
    conn_ = std::make_unique<calcite::Connection>(config_);
    return Status::OK();
  }

  calcite::Connection& conn() override { return *conn_; }
  const calcite::Connection::Config& config() const override { return config_; }
  double analyze_seconds() const override { return analyze_seconds_; }


  std::map<std::string, double> Scale() const override {
    return {{"rows.lineitem", static_cast<double>(lines_.size())},
            {"rows.orders", kOrders},
            {"rows.customer", kCustomers},
            {"rows.part", kParts},
            {"rows.supplier", kSuppliers},
            {"rows.nation", static_cast<double>(kNations.size())},
            {"rows.region", static_cast<double>(kRegions.size())}};
  }

  // One cycle: q1 three times, q3 twice, q5, topn, q6 and like once. The
  // pooled median then falls in the middle of the q1 samples (three faster
  // queries below them, three slower above) instead of on the edge between
  // two templates, and the millisecond scans, the templates most sensitive
  // to memory contention from other tenants of the host, do not set it.
  std::vector<Op> NextCycle() override {
    std::vector<Op> ops;
    ops.push_back(Q1());
    ops.push_back(Q6());
    ops.push_back(Q3());
    ops.push_back(Like());
    ops.push_back(Q1());
    ops.push_back(TopN());
    ops.push_back(Q3());
    ops.push_back(Q5());
    ops.push_back(Q1());
    return ops;
  }

 private:
  void Generate() {
    Rng rng(seed_);
    parts_price_.assign(kParts, 0);
    part_names_.assign(kParts, "");
    for (int p = 0; p < kParts; ++p) {
      parts_price_[p] = 90000 + (p / 10) % 20001 + 100 * (p % 1000);  // cents
      std::string name;
      std::vector<int> used;
      while (used.size() < 5) {
        int w = static_cast<int>(rng.Range(0, static_cast<int64_t>(kWords.size()) - 1));
        if (std::find(used.begin(), used.end(), w) != used.end()) continue;
        used.push_back(w);
        if (!name.empty()) name += ' ';
        name += kWords[static_cast<size_t>(w)];
      }
      part_names_[p] = name;
    }
    supp_nation_.assign(kSuppliers, 0);
    for (int s = 0; s < kSuppliers; ++s) {
      supp_nation_[s] = static_cast<int>(rng.Range(0, 24));
    }
    customers_.assign(kCustomers, Customer{});
    for (Customer& c : customers_) {
      c.nationkey = static_cast<int>(rng.Range(0, 24));
      c.segment = static_cast<int>(rng.Range(0, 4));
    }
    orders_.assign(kOrders, Order{});
    lines_.clear();
    lines_.reserve(kOrders * 4 + 1000);
    for (int o = 0; o < kOrders; ++o) {
      Order& order = orders_[o];
      order.custkey = static_cast<int>(rng.Range(0, kCustomers - 1));
      order.orderdate = static_cast<int>(rng.Range(0, kLastOrderDay - 151));
      order.shippriority = 0;
      order.totalprice = 0;
      int lines = static_cast<int>(rng.Range(1, 7));
      for (int l = 1; l <= lines; ++l) {
        LineItem li{};
        li.orderkey = o;
        li.partkey = static_cast<int>(rng.Range(0, kParts - 1));
        li.suppkey = static_cast<int>(rng.Range(0, kSuppliers - 1));
        li.linenumber = l;
        li.quantity = static_cast<int>(rng.Range(1, 50));
        li.extendedprice =
            static_cast<double>(static_cast<int64_t>(li.quantity) *
                                parts_price_[li.partkey]) / 100.0;
        li.discount_cents = static_cast<int>(rng.Range(0, 10));
        li.discount = li.discount_cents / 100.0;
        li.tax = static_cast<double>(rng.Range(0, 8)) / 100.0;
        li.shipdate = order.orderdate + static_cast<int>(rng.Range(1, 121));
        if (li.shipdate <= kStatusCutoffDay) {
          li.returnflag = rng.Range(0, 1) ? 'R' : 'A';
          li.linestatus = 'F';
        } else {
          li.returnflag = 'N';
          li.linestatus = 'O';
        }
        li.shipmode = static_cast<int>(rng.Range(0, 6));
        order.totalprice += li.extendedprice * (1 + li.tax) * (1 - li.discount);
        lines_.push_back(li);
      }
    }
  }

  std::vector<Row> LineItemRows() const {
    std::vector<Row> rows;
    rows.reserve(lines_.size());
    for (const LineItem& li : lines_) {
      rows.push_back({Value::Int(li.orderkey), Value::Int(li.partkey),
                      Value::Int(li.suppkey), Value::Int(li.linenumber),
                      Value::Int(li.quantity), Value::Double(li.extendedprice),
                      Value::Double(li.discount), Value::Double(li.tax),
                      Value::String(std::string(1, li.returnflag)),
                      Value::String(std::string(1, li.linestatus)),
                      Value::Int(li.shipdate),
                      Value::String(kShipModes[static_cast<size_t>(li.shipmode)])});
    }
    return rows;
  }
  std::vector<Row> OrderRows() const {
    std::vector<Row> rows;
    for (int o = 0; o < kOrders; ++o) {
      const Order& order = orders_[o];
      rows.push_back({Value::Int(o), Value::Int(order.custkey),
                      Value::Double(order.totalprice),
                      Value::Int(order.orderdate),
                      Value::String(kPriorities[static_cast<size_t>(o % 5)]),
                      Value::Int(order.shippriority)});
    }
    return rows;
  }
  std::vector<Row> CustomerRows() const {
    std::vector<Row> rows;
    for (int c = 0; c < kCustomers; ++c) {
      rows.push_back({Value::Int(c), Value::String(Fmt("Customer#%09d", c)),
                      Value::Int(customers_[c].nationkey),
                      Value::String(kSegments[static_cast<size_t>(customers_[c].segment)]),
                      Value::Double((c * 7919 % 1100000) / 100.0 - 999.99)});
    }
    return rows;
  }
  std::vector<Row> PartRows() const {
    std::vector<Row> rows;
    for (int p = 0; p < kParts; ++p) {
      rows.push_back({Value::Int(p), Value::String(part_names_[p]),
                      Value::String(Fmt("Brand#%d%d", p % 5 + 1, p / 5 % 5 + 1)),
                      Value::Int(p % 50 + 1),
                      Value::Double(parts_price_[p] / 100.0)});
    }
    return rows;
  }
  std::vector<Row> SupplierRows() const {
    std::vector<Row> rows;
    for (int s = 0; s < kSuppliers; ++s) {
      rows.push_back({Value::Int(s), Value::String(Fmt("Supplier#%09d", s)),
                      Value::Int(supp_nation_[s]),
                      Value::Double((s * 3571 % 1100000) / 100.0 - 999.99)});
    }
    return rows;
  }

  // ------------------------------ templates ------------------------------

  Op Q1() {
    int day = kLastOrderDay - 30 - static_cast<int>(query_rng_.Range(60, 120));
    Op op;
    op.tmpl = "q1";
    op.ordered = true;
    op.sql = Fmt(
        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
        "SUM(l_extendedprice) AS sum_base_price, "
        "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
        "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
        "COUNT(*) AS count_order FROM lineitem WHERE l_shipdate <= %d "
        "GROUP BY l_returnflag, l_linestatus "
        "ORDER BY l_returnflag, l_linestatus",
        day);
    struct Acc { int64_t qty = 0, count = 0; double base = 0, disc = 0, charge = 0; };
    std::map<std::pair<char, char>, Acc> groups;
    for (const LineItem& li : lines_) {
      if (li.shipdate > day) continue;
      Acc& a = groups[{li.returnflag, li.linestatus}];
      a.qty += li.quantity;
      a.base += li.extendedprice;
      a.disc += li.extendedprice * (1 - li.discount);
      a.charge += li.extendedprice * (1 - li.discount) * (1 + li.tax);
      ++a.count;
    }
    for (const auto& [key, a] : groups) {
      op.expected.push_back({Value::String(std::string(1, key.first)),
                             Value::String(std::string(1, key.second)),
                             Value::Int(a.qty), Value::Double(a.base),
                             Value::Double(a.disc), Value::Double(a.charge),
                             Value::Int(a.count)});
    }
    return op;
  }

  Op Q3() {
    int segment = static_cast<int>(query_rng_.Range(0, 4));
    int day = static_cast<int>(query_rng_.Range(1100, 1300));
    Op op;
    op.tmpl = "q3";
    op.ordered = true;
    op.sql = Fmt(
        "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, "
        "o_orderdate, o_shippriority "
        "FROM customer JOIN orders ON c_custkey = o_custkey "
        "JOIN lineitem ON l_orderkey = o_orderkey "
        "WHERE c_mktsegment = '%s' AND o_orderdate < %d AND l_shipdate > %d "
        "GROUP BY l_orderkey, o_orderdate, o_shippriority "
        "ORDER BY revenue DESC, l_orderkey LIMIT 10",
        kSegments[static_cast<size_t>(segment)].c_str(), day, day);
    std::unordered_map<int, double> revenue;
    for (const LineItem& li : lines_) {
      const Order& o = orders_[li.orderkey];
      if (li.shipdate <= day || o.orderdate >= day) continue;
      if (customers_[o.custkey].segment != segment) continue;
      revenue[li.orderkey] += li.extendedprice * (1 - li.discount);
    }
    std::vector<std::pair<double, int>> ranked;
    for (const auto& [key, r] : revenue) ranked.push_back({-r, key});
    std::sort(ranked.begin(), ranked.end());
    for (size_t i = 0; i < ranked.size() && i < 10; ++i) {
      const Order& o = orders_[ranked[i].second];
      op.expected.push_back({Value::Int(ranked[i].second),
                             Value::Double(-ranked[i].first),
                             Value::Int(o.orderdate), Value::Int(o.shippriority)});
    }
    return op;
  }

  Op Q5() {
    int region = static_cast<int>(query_rng_.Range(0, 4));
    int day = 365 * static_cast<int>(query_rng_.Range(0, 4));
    Op op;
    op.tmpl = "q5";
    op.ordered = true;
    op.sql = Fmt(
        "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue "
        "FROM customer JOIN orders ON c_custkey = o_custkey "
        "JOIN lineitem ON l_orderkey = o_orderkey "
        "JOIN supplier ON l_suppkey = s_suppkey "
        "JOIN nation ON s_nationkey = n_nationkey "
        "JOIN region ON n_regionkey = r_regionkey "
        "WHERE c_nationkey = s_nationkey AND r_name = '%s' "
        "AND o_orderdate >= %d AND o_orderdate < %d "
        "GROUP BY n_name ORDER BY revenue DESC",
        kRegions[static_cast<size_t>(region)].c_str(), day, day + 365);
    std::map<int, double> revenue;
    for (const LineItem& li : lines_) {
      const Order& o = orders_[li.orderkey];
      if (o.orderdate < day || o.orderdate >= day + 365) continue;
      int nation = supp_nation_[li.suppkey];
      if (customers_[o.custkey].nationkey != nation) continue;
      if (kNations[static_cast<size_t>(nation)].second != region) continue;
      revenue[nation] += li.extendedprice * (1 - li.discount);
    }
    std::vector<std::pair<double, int>> ranked;
    for (const auto& [nation, r] : revenue) ranked.push_back({-r, nation});
    std::sort(ranked.begin(), ranked.end());
    for (const auto& [neg, nation] : ranked) {
      op.expected.push_back({Value::String(kNations[static_cast<size_t>(nation)].first),
                             Value::Double(-neg)});
    }
    return op;
  }

  Op Q6() {
    int day = 365 * static_cast<int>(query_rng_.Range(0, 4));
    int disc = static_cast<int>(query_rng_.Range(2, 9));
    int qty = static_cast<int>(query_rng_.Range(24, 25));
    Op op;
    op.tmpl = "q6";
    op.sql = Fmt(
        "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
        "WHERE l_shipdate >= %d AND l_shipdate < %d "
        "AND l_discount BETWEEN 0.%02d AND 0.%02d AND l_quantity < %d",
        day, day + 365, disc - 1, disc + 1, qty);
    double sum = 0;
    int64_t n = 0;
    for (const LineItem& li : lines_) {
      if (li.shipdate < day || li.shipdate >= day + 365) continue;
      if (li.discount_cents < disc - 1 || li.discount_cents > disc + 1) continue;
      if (li.quantity >= qty) continue;
      sum += li.extendedprice * li.discount;
      ++n;
    }
    op.expected.push_back({n == 0 ? Value::Null() : Value::Double(sum)});
    return op;
  }

  Op TopN() {
    int mode = static_cast<int>(query_rng_.Range(0, 6));
    Op op;
    op.tmpl = "topn";
    op.ordered = true;
    op.sql = Fmt(
        "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem "
        "WHERE l_shipmode = '%s' "
        "ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber LIMIT 20",
        kShipModes[static_cast<size_t>(mode)].c_str());
    std::vector<const LineItem*> hits;
    for (const LineItem& li : lines_) {
      if (li.shipmode == mode) hits.push_back(&li);
    }
    auto better = [](const LineItem* a, const LineItem* b) {
      return std::make_tuple(-a->extendedprice, a->orderkey, a->linenumber) <
             std::make_tuple(-b->extendedprice, b->orderkey, b->linenumber);
    };
    size_t k = std::min<size_t>(20, hits.size());
    std::partial_sort(hits.begin(), hits.begin() + static_cast<long>(k),
                      hits.end(), better);
    for (size_t i = 0; i < k; ++i) {
      op.expected.push_back({Value::Int(hits[i]->orderkey),
                             Value::Int(hits[i]->linenumber),
                             Value::Double(hits[i]->extendedprice)});
    }
    return op;
  }

  Op Like() {
    const std::string& word = query_rng_.Pick(kWords);
    Op op;
    op.tmpl = "like";
    op.sql = Fmt("SELECT COUNT(*) AS n FROM part WHERE p_name LIKE '%%%s%%'",
                 word.c_str());
    int64_t n = 0;
    for (const std::string& name : part_names_) {
      if (name.find(word) != std::string::npos) ++n;
    }
    op.expected.push_back({Value::Int(n)});
    return op;
  }

  uint64_t seed_;
  Rng query_rng_;
  calcite::Connection::Config config_;
  std::unique_ptr<calcite::Connection> conn_;
  double analyze_seconds_ = 0;
  std::vector<int64_t> parts_price_;
  std::vector<std::string> part_names_;
  std::vector<int> supp_nation_;
  std::vector<Customer> customers_;
  std::vector<Order> orders_;
  std::vector<LineItem> lines_;
};

}  // namespace

std::vector<std::string> OlapTemplates() { return {"q1", "q3", "q5", "q6", "topn", "like"}; }

std::unique_ptr<Workload> MakeOlapWorkload(uint64_t seed) {
  return std::make_unique<OlapWorkload>(seed);
}

}  // namespace perfbench
