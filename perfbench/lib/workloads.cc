#include "lib/workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>

#include "lib/spans.h"
#include "lib/timed_provider.h"
#include "src/common/date.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/connectors/engine_provider.h"
#include "src/connectors/linked_provider.h"
#include "src/txn/dtc.h"
#include "src/workloads/tpch.h"

namespace perfbench {

using dhqp::Engine;
using dhqp::EngineOptions;
using dhqp::QueryResult;
using dhqp::Result;
using dhqp::Row;
using dhqp::Status;
using dhqp::Value;

bool NearlyEqual(double a, double b, double rel) {
  const double diff = std::fabs(a - b);
  return diff <= 1e-9 || diff <= rel * std::max(std::fabs(a), std::fabs(b));
}

namespace {

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() == dhqp::DataType::kDouble ||
      b.type() == dhqp::DataType::kDouble) {
    return NearlyEqual(a.AsDouble(), b.AsDouble());
  }
  return a == b;
}

// Shapes in a seeded order that repeats every shape exactly once per round,
// so every run's mix has the same proportions.
class ShapeCycle {
 public:
  ShapeCycle() = default;
  explicit ShapeCycle(int shapes) {
    for (int i = 0; i < shapes; ++i) order_.push_back(i);
    pos_ = order_.size();
  }
  int Next(dhqp::Rng* rng) {
    if (pos_ == order_.size()) {
      for (size_t i = order_.size(); i > 1; --i) {
        const int64_t j = rng->Uniform(0, static_cast<int64_t>(i) - 1);
        std::swap(order_[i - 1], order_[static_cast<size_t>(j)]);
      }
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  std::vector<int> order_;
  size_t pos_ = 0;
};

// Registers `source` as linked server `name` behind `link`, wrapped in the
// timing decorator when asked.
Status AddLinked(Engine* host, const std::string& name,
            std::shared_ptr<dhqp::DataSource> source, dhqp::net::Link* link,
            bool timed) {
  std::shared_ptr<dhqp::DataSource> linked =
      std::make_shared<dhqp::LinkedDataSource>(std::move(source), link);
  return host->AddLinkedServer(name, timed ? WrapTimed(linked) : linked);
}

Result<std::vector<Row>> ScanTable(Engine* engine, const std::string& table) {
  DHQP_ASSIGN_OR_RETURN(dhqp::Table * t, engine->storage()->GetTable(table));
  std::vector<std::pair<int64_t, Row>> live;
  t->ScanLive(&live);
  std::vector<Row> rows;
  rows.reserve(live.size());
  for (auto& entry : live) rows.push_back(std::move(entry.second));
  return rows;
}

const dhqp::VectorRowset* Answer(const OpRecord& rec, size_t i) {
  if (i >= rec.results.size()) return nullptr;
  return rec.results[i].rowset.get();
}

// ---------------------------------------------------------------------------
// tpch_local / tpch_governed: Q1, Q6 and Q3 shapes over PopulateTpch data.
// The reference answers are computed here from the generated rows.

constexpr double kTpchScale = 0.05;
constexpr int64_t kGovernedBudget = 4 << 20;  // Makes Q3's join/agg/sort spill.
constexpr int kGovernedDop = 2;
const char* const kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                 "MACHINERY", "HOUSEHOLD"};

constexpr const char* kQ1 =
    "SELECT l_linenumber, COUNT(*), SUM(l_quantity), SUM(l_extendedprice), "
    "AVG(l_extendedprice) FROM lineitem WHERE l_shipdate <= @d "
    "GROUP BY l_linenumber ORDER BY l_linenumber";
constexpr const char* kQ6 =
    "SELECT SUM(l_extendedprice * l_quantity), COUNT(*) FROM lineitem "
    "WHERE l_shipdate >= @d0 AND l_shipdate < @d1 AND l_quantity < @q";
constexpr const char* kQ3 =
    "SELECT TOP 10 o.o_orderkey, o.o_orderdate, "
    "SUM(l.l_extendedprice) AS revenue "
    "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
    "JOIN lineitem l ON l.l_orderkey = o.o_orderkey "
    "WHERE c.c_mktsegment = @seg AND o.o_orderdate < @d AND l.l_shipdate > @d "
    "GROUP BY o.o_orderkey, o.o_orderdate ORDER BY revenue DESC, o.o_orderkey";

class TpchWorkload : public Workload {
 public:
  TpchWorkload(bool governed, std::string scratch_dir)
      : governed_(governed), spill_dir_(std::move(scratch_dir) + "/spill") {}

  std::vector<std::string> shapes() const override {
    return {"q1", "q6", "q3"};
  }

  Status Setup(uint64_t seed, bool timed_providers) override {
    (void)timed_providers;  // No linked servers.
    EngineOptions options;
    options.name = "host";
    if (governed_) {
      options.execution.dop = kGovernedDop;
      options.max_server_memory_bytes = kGovernedBudget;
      options.spill_directory = spill_dir_;
      std::error_code ec;
      std::filesystem::create_directories(spill_dir_, ec);
    }
    engine_ = std::make_unique<Engine>(options);
    dhqp::workloads::TpchOptions tpch;
    tpch.scale_factor = kTpchScale;
    tpch.seed = seed;
    DHQP_RETURN_NOT_OK(dhqp::workloads::PopulateTpch(engine_.get(), tpch));
    DHQP_RETURN_NOT_OK(LoadReference());
    rng_ = dhqp::Rng(seed * 7919 + 17);
    cycle_ = ShapeCycle(3);
    return Status::OK();
  }

  Status Warm() override {
    for (int shape = 0; shape < 3; ++shape) {
      OpRecord rec;
      DHQP_RETURN_NOT_OK(Run(MakeOp(shape), &rec));
    }
    return Status::OK();
  }

  Engine* coordinator() override { return engine_.get(); }
  std::vector<dhqp::net::Link*> links() override { return {}; }

  Op Next() override { return MakeOp(cycle_.Next(&rng_)); }

  Status Run(const Op& op, OpRecord* rec) override {
    return RunStatement(engine_.get(), op.sql, op.params, rec);
  }

  bool Check(const Op& op, const OpRecord& rec, std::string* why) override {
    const dhqp::VectorRowset* got = Answer(rec, 0);
    if (got == nullptr) {
      *why = "no rowset";
      return false;
    }
    const std::vector<Row>& rows = got->rows();
    switch (op.shape) {
      case 0: return CheckQ1(op, rows, why);
      case 1: return CheckQ6(op, rows, why);
      default: return CheckQ3(op, rows, why);
    }
  }

  std::vector<std::pair<std::string, std::string>> Params() const override {
    return {{"sf", std::to_string(kTpchScale)},
            {"lineitem_rows", std::to_string(lines_.size())},
            {"dop", std::to_string(engine_->options()->execution.dop)},
            {"max_server_memory_bytes",
             std::to_string(engine_->options()->max_server_memory_bytes)},
            {"link_latency_us", "none"},
            {"members", "0"},
            {"mix", "q1:q6:q3 = 1:1:1"}};
  }

 private:
  struct Line {
    int64_t orderkey, linenumber, quantity, shipdate;
    double price;
  };
  struct Order {
    int64_t custkey = 0, date = 0;
  };

  Status LoadReference() {
    DHQP_ASSIGN_OR_RETURN(std::vector<Row> lineitem,
                          ScanTable(engine_.get(), "lineitem"));
    for (const Row& r : lineitem) {
      lines_.push_back(Line{r[0].int64_value(), r[1].int64_value(),
                            r[3].int64_value(), r[6].date_value(),
                            r[4].double_value()});
    }
    DHQP_ASSIGN_OR_RETURN(std::vector<Row> orders,
                          ScanTable(engine_.get(), "orders"));
    for (const Row& r : orders) {
      const size_t key = static_cast<size_t>(r[0].int64_value());
      if (orders_.size() <= key) orders_.resize(key + 1);
      orders_[key] = Order{r[1].int64_value(), r[2].date_value()};
    }
    DHQP_ASSIGN_OR_RETURN(std::vector<Row> customers,
                          ScanTable(engine_.get(), "customer"));
    for (const Row& r : customers) {
      const size_t key = static_cast<size_t>(r[0].int64_value());
      if (segment_of_.size() <= key) segment_of_.resize(key + 1);
      segment_of_[key] = r[6].string_value();
    }
    return Status::OK();
  }

  Op MakeOp(int shape) {
    Op op;
    op.shape = shape;
    switch (shape) {
      case 0:
        op.sql = kQ1;
        op.params["@d"] =
            Value::Date(dhqp::CivilToDays(1998, 6, 1) + rng_.Uniform(0, 120));
        break;
      case 1: {
        const int year = static_cast<int>(rng_.Uniform(1993, 1997));
        op.sql = kQ6;
        op.params["@d0"] = Value::Date(dhqp::CivilToDays(year, 1, 1));
        op.params["@d1"] = Value::Date(dhqp::CivilToDays(year + 1, 1, 1));
        op.params["@q"] = Value::Int64(rng_.Uniform(24, 25));
        break;
      }
      default:
        op.sql = kQ3;
        op.params["@seg"] = Value::String(kSegments[rng_.Uniform(0, 4)]);
        op.params["@d"] =
            Value::Date(dhqp::CivilToDays(1995, 3, 1) + rng_.Uniform(0, 30));
        break;
    }
    return op;
  }

  static std::string Key(const Op& op) {
    std::string key = std::to_string(op.shape);
    for (const auto& [name, value] : op.params) key += "|" + value.ToString();
    return key;
  }

  // Reference rows of one op, computed once per distinct parameter set.
  const std::vector<std::vector<double>>& Reference(const Op& op) {
    auto [it, fresh] = cache_.try_emplace(Key(op));
    if (!fresh) return it->second;
    std::vector<std::vector<double>>& ref = it->second;
    if (op.shape == 0) {
      const int64_t cut = op.params.at("@d").date_value();
      std::map<int64_t, std::vector<double>> groups;  // count, qty, price
      for (const Line& l : lines_) {
        if (l.shipdate > cut) continue;
        std::vector<double>& g = groups[l.linenumber];
        if (g.empty()) g.assign(3, 0.0);
        g[0] += 1;
        g[1] += static_cast<double>(l.quantity);
        g[2] += l.price;
      }
      for (const auto& [ln, g] : groups) {
        ref.push_back({static_cast<double>(ln), g[0], g[1], g[2], g[2] / g[0]});
      }
    } else if (op.shape == 1) {
      const int64_t lo = op.params.at("@d0").date_value();
      const int64_t hi = op.params.at("@d1").date_value();
      const int64_t q = op.params.at("@q").int64_value();
      double sum = 0, count = 0;
      for (const Line& l : lines_) {
        if (l.shipdate < lo || l.shipdate >= hi || l.quantity >= q) continue;
        sum += l.price * static_cast<double>(l.quantity);
        count += 1;
      }
      ref.push_back({sum, count});
    } else {
      const std::string& seg = op.params.at("@seg").string_value();
      const int64_t d = op.params.at("@d").date_value();
      std::map<int64_t, double> revenue;
      for (const Line& l : lines_) {
        if (l.shipdate <= d) continue;
        const size_t ok = static_cast<size_t>(l.orderkey);
        if (ok >= orders_.size()) continue;
        const Order& o = orders_[ok];
        if (o.date >= d) continue;
        const size_t ck = static_cast<size_t>(o.custkey);
        if (ck >= segment_of_.size() || segment_of_[ck] != seg) continue;
        revenue[l.orderkey] += l.price;
      }
      // Every qualifying group: orderkey, date, revenue; sorted like the
      // statement's ORDER BY.
      for (const auto& [key, rev] : revenue) {
        const Order& o = orders_[static_cast<size_t>(key)];
        ref.push_back(
            {static_cast<double>(key), static_cast<double>(o.date), rev});
      }
      std::sort(ref.begin(), ref.end(),
                [](const std::vector<double>& a, const std::vector<double>& b) {
                  if (a[2] != b[2]) return a[2] > b[2];
                  return a[0] < b[0];
                });
    }
    return ref;
  }

  bool CheckQ1(const Op& op, const std::vector<Row>& rows, std::string* why) {
    const auto& ref = Reference(op);
    if (rows.size() != ref.size()) {
      *why = "q1: " + std::to_string(rows.size()) + " groups, want " +
             std::to_string(ref.size());
      return false;
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      for (size_t c = 0; c < 5; ++c) {
        if (rows[i][c].is_null() ||
            !NearlyEqual(rows[i][c].AsDouble(), ref[i][c])) {
          *why = "q1: group " + std::to_string(i) + " column " +
                 std::to_string(c) + " = " + rows[i][c].ToString();
          return false;
        }
      }
    }
    return true;
  }

  bool CheckQ6(const Op& op, const std::vector<Row>& rows, std::string* why) {
    const auto& ref = Reference(op);
    if (rows.size() != 1 || rows[0].size() != 2 || rows[0][0].is_null() ||
        !NearlyEqual(rows[0][0].AsDouble(), ref[0][0]) ||
        !NearlyEqual(rows[0][1].AsDouble(), ref[0][1])) {
      *why = "q6: answer differs from the reference sum " +
             std::to_string(ref[0][0]);
      return false;
    }
    return true;
  }

  // Revenue ties make the order of equal-revenue rows depend on float
  // summation order, so rows are checked against the reference by value:
  // the i-th revenue must match the i-th reference revenue, and each row
  // must be a qualifying group with that revenue and date.
  bool CheckQ3(const Op& op, const std::vector<Row>& rows, std::string* why) {
    const auto& ref = Reference(op);
    const size_t want = std::min<size_t>(10, ref.size());
    if (rows.size() != want) {
      *why = "q3: " + std::to_string(rows.size()) + " rows, want " +
             std::to_string(want);
      return false;
    }
    std::map<int64_t, const std::vector<double>*> by_key;
    for (const auto& r : ref) by_key[static_cast<int64_t>(r[0])] = &r;
    for (size_t i = 0; i < rows.size(); ++i) {
      const int64_t key = rows[i][0].int64_value();
      auto it = by_key.find(key);
      if (it == by_key.end() ||
          static_cast<double>(rows[i][1].date_value()) != (*it->second)[1] ||
          !NearlyEqual(rows[i][2].AsDouble(), (*it->second)[2]) ||
          !NearlyEqual(rows[i][2].AsDouble(), ref[i][2])) {
        *why = "q3: row " + std::to_string(i) + " (order " +
               std::to_string(key) + ") is not the reference's";
        return false;
      }
    }
    return true;
  }

  bool governed_;
  std::string spill_dir_;
  std::unique_ptr<Engine> engine_;
  dhqp::Rng rng_{1};
  ShapeCycle cycle_;
  std::vector<Line> lines_;
  std::vector<Order> orders_;         // By orderkey.
  std::vector<std::string> segment_of_;  // By custkey.
  std::map<std::string, std::vector<std::vector<double>>> cache_;
};

// ---------------------------------------------------------------------------
// federated_adhoc: the Fig 4 join over a linked SQL engine, a 7-member
// lineitem-by-year partitioned view, and an aggregate over a 200k-row table
// behind a scan-only provider. Every statement carries seeded literals, so
// nearly every one compiles.

constexpr double kLinkLatencyUs = 30;
constexpr double kLinkUsPerKb = 1.0;
constexpr double kFig4Scale = 0.01;
constexpr double kMemberScale = 0.002;
constexpr int kSimpleRows = 200000;
constexpr int kSimpleGroups = 16;

class FederatedWorkload : public Workload {
 public:
  std::vector<std::string> shapes() const override {
    return {"fig4_join", "pv_range", "simple_scan_agg"};
  }

  Status Setup(uint64_t seed, bool timed) override {
    EngineOptions host_options;
    host_options.name = "host";
    host_ = std::make_unique<Engine>(host_options);

    // Fig 4: customer and supplier on remote0, nation local.
    Engine* remote0 = AddRemote("remote0");
    dhqp::workloads::TpchOptions tpch;
    tpch.scale_factor = kFig4Scale;
    tpch.seed = seed;
    tpch.include_orders = false;
    DHQP_RETURN_NOT_OK(dhqp::workloads::PopulateTpch(remote0, tpch));
    DHQP_RETURN_NOT_OK(host_->Execute("CREATE TABLE nation (n_nationkey INT "
                                      "PRIMARY KEY, n_name VARCHAR(25), "
                                      "n_regionkey INT)")
                           .status());
    DHQP_ASSIGN_OR_RETURN(std::vector<Row> nations,
                          ScanTable(remote0, "nation"));
    for (Row& row : nations) {
      DHQP_RETURN_NOT_OK(
          host_->storage()->InsertRow(-1, "nation", std::move(row)).status());
    }
    DHQP_RETURN_NOT_OK(
        AddLinked(host_.get(), "remote0",
                  std::make_shared<dhqp::EngineDataSource>(remote0),
                  links_.back().get(), timed));

    // The partitioned view: lineitem by commit year over 7 members.
    std::string view = "CREATE VIEW lineitem AS ";
    for (int year = 1992; year <= 1998; ++year) {
      const std::string server = "srv" + std::to_string(year);
      const std::string table = "lineitem_" + std::to_string(year);
      Engine* member = AddRemote(server);
      dhqp::workloads::TpchOptions part;
      part.scale_factor = kMemberScale;
      part.seed = seed;
      DHQP_RETURN_NOT_OK(dhqp::workloads::PopulateLineitemPartition(
          member, part, table, year, year));
      DHQP_RETURN_NOT_OK(
          AddLinked(host_.get(), server,
                    std::make_shared<dhqp::EngineDataSource>(member),
                    links_.back().get(), timed));
      if (year > 1992) view += " UNION ALL ";
      view += "SELECT * FROM " + server + ".tpch.dbo." + table;
    }
    DHQP_RETURN_NOT_OK(host_->Execute(view).status());

    // The scan-only provider: no command, no indexes, no bookmarks.
    Engine* simple = AddRemote("simple0");
    DHQP_RETURN_NOT_OK(
        simple->Execute("CREATE TABLE big (k INT PRIMARY KEY, g INT, v FLOAT)")
            .status());
    dhqp::Rng data(seed + 101);
    simple_g_.assign(kSimpleRows, 0);
    simple_v_.assign(kSimpleRows, 0);
    for (size_t k = 0; k < simple_g_.size(); ++k) {
      simple_g_[k] = data.Uniform(0, kSimpleGroups - 1);
      simple_v_[k] = static_cast<double>(data.Uniform(0, 1000000)) / 100.0;
      DHQP_RETURN_NOT_OK(simple->storage()
                             ->InsertRow(-1, "big",
                                         {Value::Int64(static_cast<int64_t>(k)),
                                          Value::Int64(simple_g_[k]),
                                          Value::Double(simple_v_[k])})
                             .status());
    }
    dhqp::ProviderCapabilities caps = dhqp::SqlServerCapabilities();
    caps.supports_command = false;
    caps.sql_support = dhqp::SqlSupportLevel::kNone;
    caps.supports_indexes = false;
    caps.supports_bookmarks = false;
    caps.provider_name = "DHQP.SimpleProvider";
    DHQP_RETURN_NOT_OK(
        AddLinked(host_.get(), "simple0",
                  std::make_shared<dhqp::EngineDataSource>(simple, caps),
                  links_.back().get(), timed));

    rng_ = dhqp::Rng(seed * 104729 + 3);
    cycle_ = ShapeCycle(3);
    return Status::OK();
  }

  Status Warm() override {
    for (int shape = 0; shape < 3; ++shape) {
      OpRecord rec;
      DHQP_RETURN_NOT_OK(Run(MakeOp(shape), &rec));
    }
    return Status::OK();
  }

  Engine* coordinator() override { return host_.get(); }
  std::vector<dhqp::net::Link*> links() override {
    std::vector<dhqp::net::Link*> out;
    for (auto& link : links_) out.push_back(link.get());
    return out;
  }

  Op Next() override { return MakeOp(cycle_.Next(&rng_)); }

  Status Run(const Op& op, OpRecord* rec) override {
    return RunStatement(host_.get(), op.sql, op.params, rec);
  }

  bool Check(const Op& op, const OpRecord& rec, std::string* why) override {
    const dhqp::VectorRowset* got = Answer(rec, 0);
    if (got == nullptr) {
      *why = "no rowset";
      return false;
    }
    if (op.shape == 2) return CheckSimple(op, got->rows(), why);
    // The same statement with pushdown, static pruning and startup filters
    // off: a plan built without the distributed rewrites under test.
    dhqp::OptimizerOptions& opt = host_->options()->optimizer;
    const dhqp::OptimizerOptions saved = opt;
    opt.enable_remote_pushdown = false;
    opt.enable_static_pruning = false;
    opt.enable_startup_filters = false;
    Result<QueryResult> reference = host_->Execute(op.sql, op.params);
    opt = saved;
    if (!reference.ok() || reference->rowset == nullptr) {
      *why = "reference run failed: " + reference.status().ToString();
      return false;
    }
    return SameRows(*got, *reference->rowset, why);
  }

  std::vector<std::pair<std::string, std::string>> Params() const override {
    return {{"sf_fig4", std::to_string(kFig4Scale)},
            {"sf_member", std::to_string(kMemberScale)},
            {"simple_rows", std::to_string(kSimpleRows)},
            {"dop", "1"},
            {"max_server_memory_bytes", "0"},
            {"link_latency_us", std::to_string(kLinkLatencyUs)},
            {"link_us_per_kb", std::to_string(kLinkUsPerKb)},
            {"members", "9 (remote0, srv1992..srv1998, simple0)"},
            {"mix", "fig4_join:pv_range:simple_scan_agg = 1:1:1"}};
  }

 private:
  Engine* AddRemote(const std::string& name) {
    EngineOptions options;
    options.name = name;
    remotes_.push_back(std::make_unique<Engine>(options));
    links_.push_back(std::make_unique<dhqp::net::Link>(
        name, kLinkLatencyUs, kLinkUsPerKb, /*enforce_delays=*/true));
    return remotes_.back().get();
  }

  Op MakeOp(int shape) {
    Op op;
    op.shape = shape;
    char lit[32];
    switch (shape) {
      case 0:
        // Account balances run from -999.99 to 9999.99; a threshold in the
        // lowest 5% of that range varies the text while keeping the join's
        // work (and answer size) nearly constant from op to op.
        std::snprintf(
            lit, sizeof(lit), "%.2f",
            static_cast<double>(rng_.Uniform(-99999, -45000)) / 100.0);
        op.sql =
            "SELECT c.c_name, c.c_address, c.c_phone "
            "FROM remote0.tpch.dbo.customer c, remote0.tpch.dbo.supplier s, "
            "nation n WHERE c.c_nationkey = n.n_nationkey "
            "AND n.n_nationkey = s.s_nationkey AND c.c_acctbal > " +
            std::string(lit);
        break;
      case 1: {
        const int64_t lo =
            dhqp::CivilToDays(1992, 1, 1) + rng_.Uniform(0, 2400);
        const int64_t hi = lo + rng_.Uniform(20, 700);
        op.sql = "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem "
                 "WHERE l_commitdate BETWEEN '" + dhqp::DaysToIsoDate(lo) +
                 "' AND '" + dhqp::DaysToIsoDate(hi) + "'";
        break;
      }
      default:
        op.threshold = rng_.Uniform(0, kSimpleRows / 4);
        op.sql = "SELECT g, COUNT(*), SUM(v) FROM simple0.db.dbo.big "
                 "WHERE k >= " + std::to_string(op.threshold) + " GROUP BY g";
        break;
    }
    return op;
  }

  // Reference computed from the generated rows of `big`.
  bool CheckSimple(const Op& op, const std::vector<Row>& rows,
                   std::string* why) {
    std::map<int64_t, std::pair<int64_t, double>> want;
    for (int64_t k = op.threshold; k < kSimpleRows; ++k) {
      auto& g = want[simple_g_[static_cast<size_t>(k)]];
      ++g.first;
      g.second += simple_v_[static_cast<size_t>(k)];
    }
    if (rows.size() != want.size()) {
      *why = "simple: " + std::to_string(rows.size()) + " groups, want " +
             std::to_string(want.size());
      return false;
    }
    for (const Row& row : rows) {
      auto it = want.find(row[0].int64_value());
      if (it == want.end() || row[1].int64_value() != it->second.first ||
          !NearlyEqual(row[2].AsDouble(), it->second.second)) {
        *why = "simple: group " + row[0].ToString() + " differs";
        return false;
      }
    }
    return true;
  }

  // host_, whose sessions point at the remote engines and links, is
  // declared after them so it is destroyed first.
  std::vector<std::unique_ptr<dhqp::net::Link>> links_;
  std::vector<std::unique_ptr<Engine>> remotes_;
  std::unique_ptr<Engine> host_;
  std::vector<int64_t> simple_g_;
  std::vector<double> simple_v_;
  dhqp::Rng rng_{1};
  ShapeCycle cycle_;
};

// ---------------------------------------------------------------------------
// tpcc_oltp: the TPC-C federation of workloads::BuildTpccFederation (same
// DDL, views and data generator; built here so the traced run can put the
// timing decorator between coordinator and members). Ops are parameterized
// customer lookups through customers_all and NewOrder transactions.

constexpr int kTpccMembers = 4;
constexpr int kWarehousesPerMember = 2;
constexpr int kCustomersPerWarehouse = 200;
constexpr const char* kLookup =
    "SELECT c_balance FROM customers_all WHERE w_id = @w AND c_id = @c";

class TpccWorkload : public Workload {
 public:
  std::vector<std::string> shapes() const override {
    return {"lookup", "new_order"};
  }

  Status Setup(uint64_t seed, bool timed) override {
    EngineOptions coordinator_options;
    coordinator_options.name = "coordinator";
    coordinator_ = std::make_unique<Engine>(coordinator_options);
    dtc_ = std::make_unique<dhqp::TransactionCoordinator>();
    dhqp::Rng rng(seed);
    std::string customers_view = "CREATE VIEW customers_all AS ";
    std::string orders_view = "CREATE VIEW orders_all AS ";
    for (int m = 0; m < kTpccMembers; ++m) {
      EngineOptions member_options;
      member_options.name = "member" + std::to_string(m);
      auto member = std::make_unique<Engine>(member_options);
      const int64_t w_lo = static_cast<int64_t>(m) * kWarehousesPerMember + 1;
      const int64_t w_hi = w_lo + kWarehousesPerMember - 1;
      const std::string range =
          std::to_string(w_lo) + " AND " + std::to_string(w_hi);
      DHQP_RETURN_NOT_OK(
          member
              ->Execute("CREATE TABLE customers (w_id INT NOT NULL CHECK "
                        "(w_id BETWEEN " + range + "), c_id INT NOT NULL, "
                        "c_name VARCHAR(24), c_balance FLOAT)")
              .status());
      DHQP_RETURN_NOT_OK(
          member->Execute("CREATE INDEX idx_cust ON customers (w_id, c_id)")
              .status());
      DHQP_RETURN_NOT_OK(
          member
              ->Execute("CREATE TABLE orders (o_id INT NOT NULL, w_id INT NOT "
                        "NULL CHECK (w_id BETWEEN " + range + "), c_id INT, "
                        "amount FLOAT)")
              .status());
      for (int64_t w = w_lo; w <= w_hi; ++w) {
        for (int c = 1; c <= kCustomersPerWarehouse; ++c) {
          const std::string name = "cust-" + rng.Word(8);
          const double balance =
              static_cast<double>(rng.Uniform(0, 100000)) / 100.0;
          balances_[{w, c}] = balance;
          DHQP_RETURN_NOT_OK(member->storage()
                                 ->InsertRow(-1, "customers",
                                             {Value::Int64(w), Value::Int64(c),
                                              Value::String(name),
                                              Value::Double(balance)})
                                 .status());
        }
      }
      const std::string server = "member" + std::to_string(m);
      // Counted but not delayed, as BuildTpccFederation's default.
      links_.push_back(std::make_unique<dhqp::net::Link>(
          server, /*latency_us=*/0, /*us_per_kb=*/0.5,
          /*enforce_delays=*/false));
      DHQP_RETURN_NOT_OK(
          AddLinked(coordinator_.get(), server,
                    std::make_shared<dhqp::EngineDataSource>(member.get()),
                    links_.back().get(), timed));
      if (m > 0) {
        customers_view += " UNION ALL ";
        orders_view += " UNION ALL ";
      }
      customers_view += "SELECT * FROM " + server + ".tpcc.dbo.customers";
      orders_view += "SELECT * FROM " + server + ".tpcc.dbo.orders";
      members_.push_back(std::move(member));
    }
    DHQP_RETURN_NOT_OK(coordinator_->Execute(customers_view).status());
    DHQP_RETURN_NOT_OK(coordinator_->Execute(orders_view).status());
    rng_ = dhqp::Rng(seed * 15485863 + 5);
    cycle_ = ShapeCycle(2);
    return Status::OK();
  }

  Status Warm() override {
    for (int shape = 0; shape < 2; ++shape) {
      OpRecord rec;
      DHQP_RETURN_NOT_OK(Run(MakeOp(shape), &rec));
    }
    return Status::OK();
  }

  Engine* coordinator() override { return coordinator_.get(); }
  std::vector<dhqp::net::Link*> links() override {
    std::vector<dhqp::net::Link*> out;
    for (auto& link : links_) out.push_back(link.get());
    return out;
  }

  Op Next() override { return MakeOp(cycle_.Next(&rng_)); }

  Status Run(const Op& op, OpRecord* rec) override {
    DHQP_RETURN_NOT_OK(
        RunStatement(coordinator_.get(), kLookup, op.params, rec));
    if (op.shape == 0) return Status::OK();
    // NewOrder: the lookup above, then the order row inserted on the owning
    // member under a two-phase-commit transaction.
    const dhqp::VectorRowset* found = rec->results.back().rowset.get();
    if (found == nullptr || found->rows().empty()) {
      return Status::NotFound("customer not found");
    }
    const double balance = found->rows()[0][0].AsDouble();
    const std::string server =
        "member" + std::to_string((op.warehouse - 1) / kWarehousesPerMember);
    dhqp::Catalog* catalog = coordinator_->catalog();
    DHQP_ASSIGN_OR_RETURN(int source_id, catalog->GetLinkedServerId(server));
    DHQP_ASSIGN_OR_RETURN(dhqp::Session * session,
                          catalog->GetSession(source_id));
    int64_t txn = 0;
    {
      ScopedSpan span("txn.begin");
      txn = dtc_->Begin();
      DHQP_RETURN_NOT_OK(dtc_->Enlist(txn, session, server));
    }
    Status insert;
    {
      ScopedSpan span("txn.insert");
      insert = session
                   ->InsertRows("orders", {{Value::Int64(op.order_id),
                                            Value::Int64(op.warehouse),
                                            Value::Int64(op.customer),
                                            Value::Double(balance / 10)}})
                   .status();
    }
    if (!insert.ok()) {
      (void)dtc_->Abort(txn);
      return insert;
    }
    {
      ScopedSpan span("txn.commit");
      DHQP_RETURN_NOT_OK(dtc_->Commit(txn));
    }
    acknowledged_.insert(op.order_id);
    return Status::OK();
  }

  bool Check(const Op& op, const OpRecord& rec, std::string* why) override {
    const dhqp::VectorRowset* got = Answer(rec, 0);
    if (got == nullptr || got->rows().size() != 1) {
      *why = "lookup of customer (" + std::to_string(op.warehouse) + "," +
             std::to_string(op.customer) + ") returned " +
             std::to_string(got == nullptr ? 0 : got->rows().size()) +
             " rows, want exactly 1";
      return false;
    }
    const double want = balances_.at({op.warehouse, op.customer});
    if (!NearlyEqual(got->rows()[0][0].AsDouble(), want)) {
      *why = "lookup balance " + got->rows()[0][0].ToString() + ", want " +
             std::to_string(want);
      return false;
    }
    return true;
  }

  bool FinalCheck(std::string* why) override {
    Result<QueryResult> all =
        coordinator_->Execute("SELECT o_id FROM orders_all");
    if (!all.ok() || all->rowset == nullptr) {
      *why = "orders_all scan failed: " + all.status().ToString();
      return false;
    }
    std::set<int64_t> stored;
    for (const Row& row : all->rowset->rows()) {
      stored.insert(row[0].int64_value());
    }
    if (stored != acknowledged_ ||
        all->rowset->rows().size() != acknowledged_.size()) {
      *why = "orders_all holds " + std::to_string(all->rowset->rows().size()) +
             " orders, want the " + std::to_string(acknowledged_.size()) +
             " acknowledged NewOrders";
      return false;
    }
    return true;
  }

  std::vector<std::pair<std::string, std::string>> Params() const override {
    return {{"members", std::to_string(kTpccMembers)},
            {"warehouses_per_member", std::to_string(kWarehousesPerMember)},
            {"customers_per_warehouse", std::to_string(kCustomersPerWarehouse)},
            {"dop", "1"},
            {"max_server_memory_bytes", "0"},
            {"link_latency_us", "0 (counted, not enforced)"},
            {"mix", "lookup:new_order = 1:1"}};
  }

 private:
  Op MakeOp(int shape) {
    Op op;
    op.shape = shape;
    op.warehouse = rng_.Uniform(1, kTpccMembers * kWarehousesPerMember);
    op.customer = rng_.Uniform(1, kCustomersPerWarehouse);
    op.sql = kLookup;
    op.params = {{"@w", Value::Int64(op.warehouse)},
                 {"@c", Value::Int64(op.customer)}};
    if (shape == 1) op.order_id = next_order_id_++;
    return op;
  }

  // coordinator_, whose sessions point at the members and links, is
  // declared after them so it is destroyed first.
  std::vector<std::unique_ptr<dhqp::net::Link>> links_;
  std::vector<std::unique_ptr<Engine>> members_;
  std::unique_ptr<Engine> coordinator_;
  std::unique_ptr<dhqp::TransactionCoordinator> dtc_;
  std::map<std::pair<int64_t, int64_t>, double> balances_;
  std::set<int64_t> acknowledged_;
  int64_t next_order_id_ = 1;
  dhqp::Rng rng_{1};
  ShapeCycle cycle_;
};

}  // namespace

Status RunStatement(Engine* engine, const std::string& sql,
                    const std::map<std::string, Value>& params, OpRecord* rec) {
  static dhqp::metrics::Gauge* peak =
      dhqp::metrics::Registry::Global().GetGauge("exec.memory_bytes");
  Result<QueryResult> result = [&] {
    ScopedSpan span("core.execute");
    return engine->Execute(sql, params);
  }();
  if (!result.ok()) return result.status();
  const int64_t peak_bytes = peak->Value();
  rec->peak_mem_sum += peak_bytes;
  rec->max_peak_mem = std::max(rec->max_peak_mem, peak_bytes);
  rec->results.push_back(std::move(result).value());
  return Status::OK();
}

bool SameRows(const dhqp::VectorRowset& got, const dhqp::VectorRowset& want,
              std::string* why) {
  if (got.rows().size() != want.rows().size()) {
    *why = std::to_string(got.rows().size()) + " rows, reference has " +
           std::to_string(want.rows().size());
    return false;
  }
  auto less = [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      const int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  };
  std::vector<Row> a = got.rows(), b = want.rows();
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) {
      *why = "row width differs";
      return false;
    }
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (!SameValue(a[r][c], b[r][c])) {
        *why = "row " + std::to_string(r) + " column " + std::to_string(c) +
               ": " + a[r][c].ToString() + " vs reference " +
               b[r][c].ToString();
        return false;
      }
    }
  }
  return true;
}

std::vector<std::string> WorkloadNames() {
  return {"tpch_local", "tpch_governed", "federated_adhoc", "tpcc_oltp"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& scratch_dir) {
  if (name == "tpch_local") {
    return std::make_unique<TpchWorkload>(false, scratch_dir);
  }
  if (name == "tpch_governed") {
    return std::make_unique<TpchWorkload>(true, scratch_dir);
  }
  if (name == "federated_adhoc") return std::make_unique<FederatedWorkload>();
  if (name == "tpcc_oltp") return std::make_unique<TpccWorkload>();
  return nullptr;
}

}  // namespace perfbench
