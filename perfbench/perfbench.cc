// The standing SQL benchmark's driver program. It runs one workload in a
// closed loop with one client, checks every answer against the workload's
// oracle, and prints its measurements as plain lines that run.py turns into
// the result JSON:
//
//   env <key> <value>              build and host facts
//   scale <key> <number>           rows per table, pages
//   metric <name> <unit> <value>   one measurement
//   info <key> <value>             context for a measurement
//   error <text>                   a failed, wrong or pin-leaking operation
//   result <correct> <attempted> <failed>
//
// With --trace 0 the loop calls Connection::Query and times only that call.
// With --trace 1 untraced and traced cycles alternate; a traced cycle calls
// the pipeline's stages one by one on the connection's own context and
// records a span around each call (parse, convert, Hep, Volcano, open,
// drain, insert, analyze).
//
// Usage: perfbench --workload olap|plan|disk_mixed --seed N --seconds S
//                  --trace 0|1 --data-dir DIR --spans PATH

#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "plan/hep_planner.h"
#include "plan/volcano_planner.h"
#include "rel/core.h"
#include "rel/rel_writer.h"
#include "rex/rex_fuse.h"
#include "rules/core_rules.h"
#include "sql/parser.h"
#include "sql/sql_to_rel.h"

namespace perfbench {
namespace {

using calcite::RelNodePtr;

constexpr int kSetups = 3;
constexpr size_t kMaxErrorLines = 5;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

void Metric(const std::string& name, const char* unit, double value) {
  std::printf("metric %s %s %.17g\n", name.c_str(), unit, value);
}

/// Moves one thread round robin over every CPU it may run on, a step every
/// few milliseconds, from a helper thread. On a shared host each CPU's
/// speed drifts with the load its neighbours put on it; a client the
/// scheduler leaves on one CPU measures that CPU's luck, a rotated client
/// samples all of them evenly, within every query longer than a few steps.
/// Threads inherit the CPU mask of the thread that creates them, so only a
/// serial client may be rotated: a parallel executor's workers must stay
/// free to use every CPU.
class CpuRotator {
 public:
  explicit CpuRotator(pid_t tid) : tid_(tid) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(tid_, sizeof(set), &set) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
    if (cpus_.size() > 1) thread_ = std::thread([this] { Loop(); });
  }
  ~CpuRotator() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  CpuRotator(const CpuRotator&) = delete;
  CpuRotator& operator=(const CpuRotator&) = delete;

 private:
  static constexpr std::chrono::milliseconds kStep{250};

  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (size_t next = 0; !stop_; ++next) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpus_[next % cpus_.size()], &set);
      sched_setaffinity(tid_, sizeof(set), &set);
      cv_.wait_for(lock, kStep, [this] { return stop_; });
    }
  }

  const pid_t tid_;
  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// What one half of a run (the untraced or the traced cycles) measured.
struct Half {
  double busy_s = 0;  // time inside engine calls
  int64_t reads = 0;
  std::vector<double> latencies_ms;
  std::map<std::string, std::vector<double>> by_template_ms;
  int64_t inserted_rows = 0;
  double insert_s = 0;

  double Qps() const { return busy_s > 0 ? reads / busy_s : 0; }
};

/// Per-layer counters collected by the traced cycles.
struct LayerCounters {
  std::vector<double> hep_fires, volcano_fires, volcano_sets, volcano_exprs,
      rows_out;
  int64_t fusible_exprs = 0, fused_exprs = 0;
  // Pages read per query of each template in the first traced cycle, and
  // the heap size then. Every run of the same seed reaches that cycle with
  // the same table, so these counts repeat exactly.
  std::map<std::string, std::vector<double>> pages_read;
  double heap_pages = 0;
  bool first_traced_cycle = false;
  int64_t key_range_reads = 0, index_routed = 0;
  std::vector<double> insert_ms, analyze_ms;
  uint64_t writes_before = 0, writes_after = 0;
};

class Runner {
 public:
  Runner(Workload* wl, bool trace) : wl_(wl), trace_(trace) {}

  calcite::Status Run(double seconds) {
    std::vector<double> setup_s;
    for (int k = 0; k < kSetups; ++k) {
      double t0 = NowSeconds();
      calcite::Status st = wl_->Setup();
      if (!st.ok()) return st;
      // Up to the first timed query: lazy caches fill on this pass.
      Half warmup;
      for (const Op& op : wl_->NextCycle()) Execute(op, &warmup);
      setup_s.push_back(NowSeconds() - t0);
    }
    setup_s_ = Median(setup_s);
    if (wl_->disk() != nullptr) {
      counters_.writes_before = wl_->disk()->buffer_pool().disk_writes();
    }
    // A traced run splits its time between untraced and traced cycles, so
    // both kinds of run take about the same time.
    const double per_half = trace_ ? seconds / 2 : seconds;
    for (int64_t cycle = 0;; ++cycle) {
      bool traced = trace_ && cycle % 2 == 1;
      if (plain_.busy_s >= per_half && (!trace_ || traced_.busy_s >= per_half)) {
        break;
      }
      Half* half = traced ? &traced_ : &plain_;
      counters_.first_traced_cycle = cycle == 1;
      if (counters_.first_traced_cycle && wl_->disk() != nullptr) {
        counters_.heap_pages = static_cast<double>(wl_->disk()->heap_page_count());
      }
      for (const Op& op : wl_->NextCycle()) {
        if (traced) {
          ExecuteTraced(op, half);
        } else {
          Execute(op, half);
        }
      }
    }
    if (wl_->disk() != nullptr) {
      counters_.writes_after = wl_->disk()->buffer_pool().disk_writes();
    }
    CheckOracleCanaries();
    return calcite::Status::OK();
  }

  void Report(const std::string& spans_path) {
    std::printf("env nproc %u\n", std::thread::hardware_concurrency());
    std::printf("env num_threads %zu\n", wl_->config().exec_options.num_threads);
    for (const auto& [key, value] : wl_->Scale()) {
      std::printf("scale %s %.17g\n", key.c_str(), value);
    }
    if (!trace_) {
      ReportEndToEnd();
    } else {
      ReportLayers();
      if (!tracer_.WriteJson(spans_path)) {
        Error("cannot write spans to " + spans_path);
      }
      std::printf("info spans_file %s\n", spans_path.c_str());
    }
    std::printf("info plan_identity_checked %zu\n", identity_checked_.size());
    std::printf("info oracle_canaries_caught %d/%zu\n", canaries_caught_,
                canaries_.size());
    bool correct = failed_ == 0 && canaries_caught_ == static_cast<int>(canaries_.size()) &&
                   !canaries_.empty();
    std::printf("result %d %lld %lld\n", correct ? 1 : 0,
                static_cast<long long>(attempted_),
                static_cast<long long>(failed_));
  }

 private:
  // ------------------------------ execution ------------------------------

  void Execute(const Op& op, Half* half) {
    ++attempted_;
    auto* disk = wl_->disk();
    double t0 = NowSeconds();
    if (op.kind == Op::Kind::kRead) {
      auto result = wl_->conn().Query(op.sql);
      double dt = NowSeconds() - t0;
      RecordRead(op, half, dt);
      if (!result.ok()) {
        Fail(op, "query failed: " + result.status().message());
      } else {
        Verify(op, result.value().rows);
      }
    } else if (op.kind == Op::Kind::kInsert) {
      calcite::Status st = disk->InsertRows(op.rows);
      double dt = NowSeconds() - t0;
      half->busy_s += dt;
      half->insert_s += dt;
      half->inserted_rows += static_cast<int64_t>(op.rows.size());
      if (!st.ok()) Fail(op, "insert failed: " + st.message());
    } else {
      calcite::Status st = disk->Analyze();
      half->busy_s += NowSeconds() - t0;
      if (!st.ok()) Fail(op, "analyze failed: " + st.message());
    }
    CheckPins(op);
  }

  void ExecuteTraced(const Op& op, Half* half) {
    ++attempted_;
    auto* disk = wl_->disk();
    int64_t qid = next_query_id_++;
    if (op.kind == Op::Kind::kInsert) {
      int span = tracer_.Begin("storage.insert", -1, qid, op.tmpl);
      calcite::Status st = disk->InsertRows(op.rows);
      tracer_.End(span);
      double dt = SpanSeconds(span);
      half->busy_s += dt;
      half->insert_s += dt;
      half->inserted_rows += static_cast<int64_t>(op.rows.size());
      counters_.insert_ms.push_back(dt * 1e3);
      if (!st.ok()) Fail(op, "insert failed: " + st.message());
      CheckPins(op);
      return;
    }
    if (op.kind == Op::Kind::kAnalyze) {
      int span = tracer_.Begin("storage.analyze", -1, qid, op.tmpl);
      calcite::Status st = disk->Analyze();
      tracer_.End(span);
      half->busy_s += SpanSeconds(span);
      counters_.analyze_ms.push_back(SpanSeconds(span) * 1e3);
      if (!st.ok()) Fail(op, "analyze failed: " + st.message());
      CheckPins(op);
      return;
    }

    calcite::Connection& conn = wl_->conn();
    const calcite::Connection::Config& config = wl_->config();
    uint64_t reads_before = disk ? disk->buffer_pool().disk_reads() : 0;
    std::string error;
    RelNodePtr physical;
    std::vector<Row> rows;

    int root = tracer_.Begin("query", -1, qid, op.tmpl);
    int span = tracer_.Begin("sql.parse", root, qid);
    auto ast = calcite::SqlParser::Parse(op.sql);
    tracer_.End(span);
    if (!ast.ok()) error = "parse: " + ast.status().message();

    // Each stage's span also covers building and tearing down its objects
    // (converter, rule lists, planner memo, operator state), which the
    // untraced Connection::Query pays as well.
    calcite::Result<RelNodePtr> logical = calcite::Status::Internal("skipped");
    if (error.empty()) {
      span = tracer_.Begin("sql.convert", root, qid);
      {
        calcite::SqlToRelConverter converter(conn.schema(), conn.context());
        logical = converter.Convert(ast.value());
      }
      tracer_.End(span);
      if (!logical.ok()) error = "convert: " + logical.status().message();
    }
    calcite::Result<RelNodePtr> rewritten = calcite::Status::Internal("skipped");
    if (error.empty()) {
      span = tracer_.Begin("plan.hep", root, qid);
      {
        calcite::HepPlanner hep(calcite::StandardLogicalRules(), conn.context());
        rewritten = hep.Optimize(logical.value());
        conn.context()->metadata()->ClearCache();
        counters_.hep_fires.push_back(hep.rule_fire_count());
      }
      tracer_.End(span);
      if (!rewritten.ok()) error = "hep: " + rewritten.status().message();
    }
    if (error.empty()) {
      // The same required traits Connection::OptimizePlan asks for: an
      // ORDER BY at the root is demanded as a physical collation.
      calcite::RelTraitSet required(calcite::Convention::Enumerable());
      if (const auto* sort =
              dynamic_cast<const calcite::Sort*>(logical.value().get())) {
        required = required.WithCollation(sort->collation());
      }
      span = tracer_.Begin("plan.volcano", root, qid);
      calcite::Result<RelNodePtr> optimized = calcite::Status::Internal("skipped");
      {
        calcite::VolcanoPlanner volcano(conn.PhysicalRules(), conn.context(),
                                        config.volcano_options);
        optimized = volcano.Optimize(rewritten.value(), required);
        conn.context()->metadata()->ClearCache();
        counters_.volcano_fires.push_back(volcano.rule_fire_count());
        counters_.volcano_sets.push_back(volcano.set_count());
        counters_.volcano_exprs.push_back(volcano.expr_count());
      }
      tracer_.End(span);
      if (!optimized.ok()) {
        error = "volcano: " + optimized.status().message();
      } else {
        physical = optimized.value();
      }
    }
    if (error.empty()) {
      span = tracer_.Begin("exec.open", root, qid);
      auto puller = physical->ExecuteBatched(config.exec_options.Normalized());
      tracer_.End(span);
      if (!puller.ok()) {
        error = "open: " + puller.status().message();
      } else {
        span = tracer_.Begin("exec.drain", root, qid);
        auto drained = calcite::DrainBatches(puller.value());
        tracer_.End(span);
        if (!drained.ok()) {
          error = "drain: " + drained.status().message();
        } else {
          rows = std::move(drained).value();
        }
        span = tracer_.Begin("exec.close", root, qid);
        puller = calcite::Status::Internal("closed");
        tracer_.End(span);
      }
    }
    tracer_.End(root);
    RecordRead(op, half, SpanSeconds(root));

    if (disk != nullptr) {
      if (counters_.first_traced_cycle) {
        counters_.pages_read[op.tmpl].push_back(static_cast<double>(
            disk->buffer_pool().disk_reads() - reads_before));
      }
      if (op.tmpl == "lookup" || op.tmpl == "range") {
        ++counters_.key_range_reads;
        if (disk->last_scan_used_index()) ++counters_.index_routed;
      }
    }
    if (!error.empty()) {
      Fail(op, error);
      CheckPins(op);
      return;
    }
    counters_.rows_out.push_back(static_cast<double>(rows.size()));
    CountFusible(physical);
    Verify(op, rows);
    CheckPins(op);
    CheckPlanIdentity(op, physical);
  }

  double SpanSeconds(int id) const {
    const Span& s = tracer_.spans()[static_cast<size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e9;
  }

  void RecordRead(const Op& op, Half* half, double seconds) {
    half->busy_s += seconds;
    ++half->reads;
    half->latencies_ms.push_back(seconds * 1e3);
    half->by_template_ms[op.tmpl].push_back(seconds * 1e3);
  }

  // ------------------------------- checks --------------------------------

  void Verify(const Op& op, const std::vector<Row>& rows) {
    std::string diff = CompareRows(rows, op.expected, op.ordered);
    if (!diff.empty()) {
      Fail(op, "wrong answer: " + diff);
      return;
    }
    // Keep one verified answer per template for the canary check.
    if (canaries_.count(op.tmpl) == 0) canaries_[op.tmpl] = {op, rows};
  }

  void CheckPins(const Op& op) {
    auto* disk = wl_->disk();
    if (disk == nullptr) return;
    size_t pinned = disk->buffer_pool().pinned_frames();
    if (pinned != 0) {
      Fail(op, "buffer pool holds " + std::to_string(pinned) +
                   " pinned frames after the operation");
    }
  }

  // The stage-by-stage plan must be the plan Connection::OptimizePlan
  // picks; otherwise the trace times a different query than the untraced
  // run. Checked once per template, outside every span.
  void CheckPlanIdentity(const Op& op, const RelNodePtr& staged) {
    if (!identity_checked_.insert(op.tmpl).second) return;
    calcite::Connection& conn = wl_->conn();
    auto logical = conn.ParseQuery(op.sql);
    if (!logical.ok()) {
      Fail(op, "identity check: " + logical.status().message());
      return;
    }
    auto physical = conn.OptimizePlan(logical.value());
    if (!physical.ok()) {
      Fail(op, "identity check: " + physical.status().message());
      return;
    }
    std::string want = calcite::ExplainPlan(physical.value());
    std::string got = calcite::ExplainPlan(staged);
    if (want != got) {
      Fail(op, "traced plan differs from Connection::OptimizePlan:\n" + got +
                   "vs\n" + want);
    }
  }

  // A comparison that cannot fail proves nothing: perturb each kept answer
  // and confirm the comparison rejects it.
  void CheckOracleCanaries() {
    for (auto& [tmpl, kept] : canaries_) {
      std::vector<Row> wrong = kept.first.expected;
      if (wrong.empty()) {
        wrong.push_back({Value::Int(0)});
      } else {
        Value& cell = wrong[0].back();
        if (cell.is_int()) {
          cell = Value::Int(cell.AsInt() + 1);
        } else if (cell.is_double()) {
          cell = Value::Double(cell.AsDouble() * (1 + 1e-6) + 1e-6);
        } else if (cell.is_string()) {
          cell = Value::String(cell.AsString() + "?");
        } else {
          cell = Value::Int(1);
        }
      }
      if (!CompareRows(kept.second, wrong, kept.first.ordered).empty()) {
        ++canaries_caught_;
      } else {
        Error("oracle canary not caught for template " + tmpl);
      }
    }
  }

  void CountFusible(const RelNodePtr& node) {
    auto phys_of = [](const RelNodePtr& input) {
      std::vector<calcite::PhysType> phys;
      for (const auto& field : input->row_type()->fields()) {
        phys.push_back(calcite::PhysTypeForRel(*field.type));
      }
      return phys;
    };
    auto count = [&](const calcite::RexNodePtr& expr,
                     const std::vector<calcite::PhysType>& phys) {
      ++counters_.fusible_exprs;
      if (calcite::FuseProgram::Compile(expr, phys) != nullptr) {
        ++counters_.fused_exprs;
      }
    };
    if (const auto* filter = dynamic_cast<const calcite::Filter*>(node.get())) {
      count(filter->condition(), phys_of(node->inputs()[0]));
    } else if (const auto* project =
                   dynamic_cast<const calcite::Project*>(node.get())) {
      auto phys = phys_of(node->inputs()[0]);
      for (const auto& expr : project->exprs()) count(expr, phys);
    }
    for (const RelNodePtr& input : node->inputs()) CountFusible(input);
  }

  void Fail(const Op& op, const std::string& why) {
    ++failed_;
    if (errors_printed_ < kMaxErrorLines) {
      ++errors_printed_;
      Error(op.tmpl + ": " + why + " [" + op.sql + "]");
    }
  }

  static void Error(const std::string& text) {
    std::string line = text;
    std::replace(line.begin(), line.end(), '\n', ' ');
    std::printf("error %s\n", line.c_str());
  }

  // ------------------------------- report --------------------------------

  void ReportEndToEnd() {
    const Half& h = plain_;
    std::vector<double> sorted = h.latencies_ms;
    std::sort(sorted.begin(), sorted.end());
    size_t n = sorted.size();
    // The highest percentile with at least ten samples beyond it.
    size_t tail_index = n > 10 ? n - 11 : (n == 0 ? 0 : n - 1);
    double tail_pct = n > 10 ? 100.0 * static_cast<double>(n - 10) / n : 100.0;
    double log_sum = 0;
    for (const auto& [tmpl, ms] : h.by_template_ms) {
      log_sum += std::log(Median(ms));
      std::printf("info template.%s.samples %zu\n", tmpl.c_str(), ms.size());
      std::printf("info template.%s.ms_p50 %.17g\n", tmpl.c_str(), Median(ms));
    }
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);

    Metric("setup_s", "s", setup_s_);
    Metric("qps", "1/s", h.Qps());
    Metric("latency_p50_ms", "ms", Median(h.latencies_ms));
    Metric("latency_tail_ms", "ms", n == 0 ? 0 : sorted[tail_index]);
    std::printf("info latency_tail.percentile %.6g\n", tail_pct);
    std::printf("info latency.samples %zu\n", n);
    Metric("latency_geomean_ms", "ms",
           h.by_template_ms.empty()
               ? 0
               : std::exp(log_sum / static_cast<double>(h.by_template_ms.size())));
    Metric("peak_rss_mb", "MiB", static_cast<double>(usage.ru_maxrss) / 1024.0);
    Metric("error_rate", "ratio",
           attempted_ ? static_cast<double>(failed_) / attempted_ : 0);
    if (wl_->disk() != nullptr) {
      Metric("insert_rows_per_s", "1/s",
             h.insert_s > 0 ? h.inserted_rows / h.insert_s : 0);
      Metric("disk_bytes_per_row", "B", wl_->DiskBytesPerRow());
    }
  }

  void ReportLayers() {
    const std::vector<Span>& spans = tracer_.spans();
    std::vector<int64_t> self = SelfTimes(spans);
    std::map<std::string, std::vector<double>> durations_us;
    std::map<std::string, double> self_ns;
    double query_ns = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      durations_us[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      if (s.name == "query") {
        query_ns += static_cast<double>(s.end_ns - s.start_ns);
        self_ns["uncovered"] += static_cast<double>(self[i]);
      } else if (s.parent >= 0) {
        self_ns[s.name] += static_cast<double>(self[i]);
      }
    }
    for (const auto& [name, ns] : self_ns) {
      std::printf("info self_ms.%s %.17g\n", name.c_str(), ns / 1e6);
    }
    auto p50_us = [&](const char* name) { return Median(durations_us[name]); };
    auto share = [&](std::initializer_list<const char*> names) {
      double sum = 0;
      for (const char* name : names) sum += self_ns[name];
      return query_ns > 0 ? sum / query_ns : 0;
    };
    auto* disk = wl_->disk();

    Metric("sql.parse_us_p50", "us", p50_us("sql.parse"));
    Metric("sql.convert_us_p50", "us", p50_us("sql.convert"));
    Metric("plan.hep_us_p50", "us", p50_us("plan.hep"));
    Metric("plan.hep_fires", "count", Mean(counters_.hep_fires));
    Metric("plan.volcano_ms_p50", "ms", p50_us("plan.volcano") / 1e3);
    Metric("plan.volcano_fires", "count", Mean(counters_.volcano_fires));
    Metric("plan.volcano_sets", "count", Mean(counters_.volcano_sets));
    Metric("plan.volcano_exprs", "count", Mean(counters_.volcano_exprs));
    Metric("exec.open_ms_p50", "ms", p50_us("exec.open") / 1e3);
    Metric("exec.drain_ms_p50", "ms", p50_us("exec.drain") / 1e3);
    Metric("exec.close_ms_p50", "ms", p50_us("exec.close") / 1e3);
    Metric("exec.rows_out", "count", Mean(counters_.rows_out));
    Metric("rex.fused_share", "ratio",
           counters_.fusible_exprs
               ? static_cast<double>(counters_.fused_exprs) / counters_.fusible_exprs
               : 0);
    std::printf("info rex.expressions %lld\n",
                static_cast<long long>(counters_.fusible_exprs));
    Metric("sql.share", "ratio", share({"sql.parse", "sql.convert"}));
    Metric("plan.share", "ratio", share({"plan.hep", "plan.volcano"}));
    Metric("exec.share", "ratio", share({"exec.open", "exec.drain", "exec.close"}));
    Metric("trace.uncovered_share", "ratio", share({"uncovered"}));
    Metric("trace.overhead_ratio", "ratio",
           plain_.Qps() > 0 ? traced_.Qps() / plain_.Qps() : 0);
    std::printf("info qps.untraced %.17g\n", plain_.Qps());
    std::printf("info qps.traced %.17g\n", traced_.Qps());

    // Every workload reports every template, 0 for the ones it does not run.
    std::vector<std::string> templates = OlapTemplates();
    for (const auto& list : {PlanTemplates(), DiskTemplates()}) {
      templates.insert(templates.end(), list.begin(), list.end());
    }
    for (const std::string& tmpl : templates) {
      auto it = plain_.by_template_ms.find(tmpl);
      Metric("tmpl." + tmpl + ".ms_p50", "ms",
             it == plain_.by_template_ms.end() ? 0 : Median(it->second));
    }
    for (const std::string& tmpl : DiskTemplates()) {
      Metric("storage.pages_read_per_query." + tmpl, "count",
             Median(counters_.pages_read[tmpl]));
    }
    Metric("storage.index_route_share", "ratio",
           counters_.key_range_reads
               ? static_cast<double>(counters_.index_routed) / counters_.key_range_reads
               : 0);
    Metric("storage.insert_ms_p50", "ms", Median(counters_.insert_ms));
    // Dirty pages reach the disk when they are evicted, often during a
    // later read, so every write of the measured cycles counts against the
    // rows they appended.
    int64_t appended = plain_.inserted_rows + traced_.inserted_rows;
    Metric("storage.pages_written_per_1k_rows", "count",
           appended ? 1000.0 *
                          static_cast<double>(counters_.writes_after -
                                              counters_.writes_before) /
                          static_cast<double>(appended)
                    : 0);
    Metric("storage.analyze_ms", "ms", Median(counters_.analyze_ms));
    Metric("schema.analyze_ms", "ms", wl_->analyze_seconds() * 1e3);
    Metric("storage.heap_pages", "count",
           counters_.heap_pages);
    Metric("storage.insert_rows_per_s", "1/s",
           traced_.insert_s > 0 ? traced_.inserted_rows / traced_.insert_s : 0);
    Metric("storage.disk_bytes_per_row", "B", disk ? wl_->DiskBytesPerRow() : 0);
  }

  Workload* wl_;
  bool trace_;
  Tracer tracer_;
  Half plain_, traced_;
  LayerCounters counters_;
  double setup_s_ = 0;
  int64_t attempted_ = 0, failed_ = 0;
  size_t errors_printed_ = 0;
  int64_t next_query_id_ = 0;
  std::set<std::string> identity_checked_;
  std::map<std::string, std::pair<Op, std::vector<Row>>> canaries_;
  int canaries_caught_ = 0;
};

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
      return 2;
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "data-dir", "spans"}) {
    if (args.count(required) == 0) {
      std::fprintf(stderr, "missing --%s\n", required);
      return 2;
    }
  }
  const std::string workload = args["workload"];
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const bool trace = args["trace"] == "1";
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());

  std::unique_ptr<Workload> wl;
  size_t num_threads = 1;
  if (workload == "olap") {
    wl = MakeOlapWorkload(seed);
  } else if (workload == "plan") {
    wl = MakePlanWorkload(seed);
  } else if (workload == "disk_mixed") {
    std::filesystem::create_directories(args["data-dir"]);
    num_threads = std::min<size_t>(4, hw);
    wl = MakeDiskWorkload(seed, args["data-dir"], num_threads);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
    return 2;
  }

  std::printf("env build_type %s\n", PERFBENCH_BUILD_TYPE);
#ifdef CALCITE_SIMD_ENABLED
  std::printf("env simd 1\n");
#else
  std::printf("env simd 0\n");
#endif
  std::printf("env compiler %s\n", __VERSION__);

  std::unique_ptr<CpuRotator> rotator;
  if (num_threads == 1) {
    rotator = std::make_unique<CpuRotator>(static_cast<pid_t>(syscall(SYS_gettid)));
  }
  Runner runner(wl.get(), trace);
  calcite::Status st = runner.Run(seconds);
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.message().c_str());
    return 1;
  }
  runner.Report(args["spans"]);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
