// The XPathMark phase: every (backend, query) operation through
// XPathEngine::Run, checked against the DOM oracle; on traced runs also the
// same queries split into the library's layers (xpath parse, translate,
// plan, execute, staircase), each call timed from here.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "accel/accel_translator.h"
#include "accel/staircase.h"
#include "bench.h"
#include "data/rng.h"
#include "rel/query.h"
#include "translate/edge_translator.h"
#include "translate/translator.h"
#include "xpath/parser.h"
#include "xpatheval/evaluator.h"

namespace xprel::perfbench {
namespace {

// Accelerator Q6 and Q7 take seconds each (the window translation of
// ancestor steps); they run once per round instead of once per repetition.
bool IsSlow(const NamedQuery& q, size_t b) {
  const std::string id = q.id;
  return kBackends[b].backend == engine::Backend::kAccelerator &&
         (id == "Q6" || id == "Q7");
}

// The Edge translator does not anchor the depth of a child-path predicate
// under a recursive (I-P) context, so it over-matches the two recursive
// queries. Their Edge-PPF runs count as failed without making the run
// incorrect.
bool IsKnownFault(const NamedQuery& q, size_t b) {
  const std::string id = q.id;
  return kBackends[b].backend == engine::Backend::kEdgePpf &&
         (id == "L1" || id == "L2");
}

// FROM items across every SELECT block and every EXISTS sub-select: the
// number of relations the translation joins.
size_t CountFromItems(const rel::SelectStmt& s);
size_t CountFromItems(const rel::SqlExpr& e) {
  size_t n = e.subquery != nullptr ? CountFromItems(*e.subquery) : 0;
  for (const auto& a : e.args) n += CountFromItems(*a);
  return n;
}
size_t CountFromItems(const rel::SelectStmt& s) {
  size_t n = s.from.size();
  if (s.where != nullptr) n += CountFromItems(*s.where);
  for (const auto& item : s.select) n += CountFromItems(*item.expr);
  return n;
}

Result<translate::TranslatedQuery> Translate(const engine::XPathEngine& eng,
                                             engine::Backend backend,
                                             const xpath::XPathExpr& expr) {
  switch (backend) {
    case engine::Backend::kPpf:
      return translate::PpfTranslator(eng.ppf_store()->mapping())
          .Translate(expr);
    case engine::Backend::kNaive:
      return translate::PpfTranslator(eng.ppf_store()->mapping(),
                                      translate::NaiveTranslateOptions())
          .Translate(expr);
    case engine::Backend::kEdgePpf:
      return translate::EdgePpfTranslator().Translate(expr);
    case engine::Backend::kAccelerator:
      return accel::AcceleratorTranslator().Translate(expr);
    case engine::Backend::kStaircase:
      break;
  }
  return Status::InvalidArgument("no SQL translation for the staircase");
}

const rel::Database& BackendDb(const engine::XPathEngine& eng,
                               engine::Backend backend) {
  switch (backend) {
    case engine::Backend::kEdgePpf:
      return eng.edge_store()->db();
    case engine::Backend::kAccelerator:
      return eng.accel_store()->db();
    default:
      return eng.ppf_store()->db();
  }
}

}  // namespace

struct XPathMarkResult {
  Shared* shared = nullptr;
  std::vector<NamedQuery> queries;
  int reps = 1;
  std::vector<std::vector<xml::NodeId>> oracle;  // per query
  uint64_t next_request = 1;
  std::vector<bool> reported;  // per (query, backend): failure printed

  // Samples per (query, backend), in ms.
  using Grid = std::vector<std::vector<std::vector<double>>>;
  Grid run_ms, parse_ms, translate_ms, plan_ms, exec_ms;
  // Exact work counts per (query, backend), from the traced layer pass.
  std::vector<std::vector<size_t>> joins;
  std::vector<std::vector<rel::QueryStats>> stats;

  size_t Cell(size_t q, size_t b) const { return q * kNumBackends + b; }

  void RunOp(const engine::XPathEngine& eng, size_t q, size_t b);
  void LayerOp(const engine::XPathEngine& eng, size_t q, size_t b);
};

XPathMarkPhase::XPathMarkPhase(Shared& shared, bool with_recursive, int reps)
    : r_(std::make_unique<XPathMarkResult>()) {
  r_->shared = &shared;
  r_->reps = reps;
  r_->queries.assign(std::begin(kXPathMark), std::end(kXPathMark));
  if (with_recursive) {
    r_->queries.insert(r_->queries.end(), std::begin(kRecursiveQueries),
                       std::end(kRecursiveQueries));
  }
  const size_t nq = r_->queries.size();
  auto grid = [&] {
    return XPathMarkResult::Grid(nq, std::vector<std::vector<double>>(kNumBackends));
  };
  r_->run_ms = grid();
  r_->parse_ms = grid();
  r_->translate_ms = grid();
  r_->plan_ms = grid();
  r_->exec_ms = grid();
  r_->joins.assign(nq, std::vector<size_t>(kNumBackends, 0));
  r_->stats.assign(nq, std::vector<rel::QueryStats>(kNumBackends));
  r_->reported.assign(nq * kNumBackends, false);
}

XPathMarkPhase::~XPathMarkPhase() = default;

bool XPathMarkPhase::PrepareOracle(const xml::Document& doc) {
  // The DOM evaluator needs preorder ids; a mutated document has grafted
  // nodes at the end of its array, so it runs on a document-ordered copy.
  PreorderCopy copy = CopyInDocumentOrder(doc);
  xpatheval::XPathEvaluator eval(copy.doc);
  r_->oracle.clear();
  for (const NamedQuery& q : r_->queries) {
    auto want = eval.EvaluateString(q.xpath);
    if (!want.ok()) {
      std::fprintf(stderr, "oracle %s: %s\n", q.id,
                   want.status().ToString().c_str());
      return false;
    }
    std::vector<xml::NodeId> live;
    live.reserve(want.value().size());
    for (xml::NodeId id : want.value()) live.push_back(copy.live_of[static_cast<size_t>(id)]);
    r_->oracle.push_back(std::move(live));
  }
  return true;
}

void XPathMarkPhase::FillPlanCache(const engine::XPathEngine& eng) {
  for (const NamedQuery& q : r_->queries) {
    for (size_t b = 0; b < kNumSqlBackends; ++b) {
      (void)eng.ExplainPlan(kBackends[b].backend, q.xpath);
    }
  }
}

void XPathMarkResult::RunOp(const engine::XPathEngine& eng, size_t q, size_t b) {
  const NamedQuery& query = queries[q];
  Stopwatch sw(shared->spans, "run", next_request++);
  auto out = eng.Run(kBackends[b].backend, query.xpath);
  double ms = sw.Stop();
  std::string verdict = out.ok() ? CheckAnswer(out.value().nodes, oracle[q])
                                 : out.status().ToString();
  const bool known = IsKnownFault(query, b);
  shared->tally.Count(verdict.empty(), known);
  if (!verdict.empty()) {
    if (!reported[Cell(q, b)]) {
      reported[Cell(q, b)] = true;
      std::fprintf(stderr, "%s %s %s: %s\n", known ? "known fault" : "WRONG",
                   kBackends[b].key, query.id, verdict.c_str());
    }
    return;
  }
  run_ms[q][b].push_back(ms);
}

void XPathMarkResult::LayerOp(const engine::XPathEngine& eng, size_t q,
                              size_t b) {
  const NamedQuery& query = queries[q];
  const engine::Backend backend = kBackends[b].backend;
  SpanLog* log = shared->spans;
  const uint64_t request = next_request++;
  const int top = log->Begin("layers", request);
  if (backend == engine::Backend::kStaircase) {
    Stopwatch sw(log, "staircase", request);
    (void)accel::StaircaseEvaluator(*eng.accel_store()).EvaluateString(query.xpath);
    exec_ms[q][b].push_back(sw.Stop());
    log->End(top);
    return;
  }
  Stopwatch parse_sw(log, "xpath.parse", request);
  auto expr = xpath::ParseXPath(query.xpath);
  parse_ms[q][b].push_back(parse_sw.Stop());
  if (!expr.ok()) {
    log->End(top);
    return;
  }
  Stopwatch translate_sw(log, "translate", request);
  auto translated = Translate(eng, backend, expr.value());
  translate_ms[q][b].push_back(translate_sw.Stop());
  if (!translated.ok()) {
    log->End(top);
    return;
  }
  const translate::TranslatedQuery& tq = translated.value();
  size_t from_items = 0;
  for (const auto& s : tq.sql.selects) from_items += CountFromItems(*s);
  joins[q][b] = from_items;
  if (tq.statically_empty) {
    log->End(top);
    return;
  }
  std::vector<std::unique_ptr<rel::Plan>> plans;
  Stopwatch plan_sw(log, "plan", request);
  for (const auto& s : tq.sql.selects) {
    auto plan = rel::PlanSelect(BackendDb(eng, backend), *s, nullptr);
    if (!plan.ok()) break;
    plans.push_back(std::move(plan).value());
  }
  plan_ms[q][b].push_back(plan_sw.Stop());
  if (plans.size() != tq.sql.selects.size()) {
    log->End(top);
    return;
  }
  std::vector<const rel::Plan*> ptrs;
  for (const auto& p : plans) ptrs.push_back(p.get());
  size_t rows = 0;
  rel::QueryStats st;
  Stopwatch exec_sw(log, "exec", request);
  (void)rel::ExecutePlannedQueryChunks(
      ptrs,
      [&rows](const rel::RowChunk& chunk) {
        rows += chunk.rows;
        return true;
      },
      &st);
  exec_ms[q][b].push_back(exec_sw.Stop());
  stats[q][b] = st;
  log->End(top);
}

void XPathMarkPhase::RunRound(const engine::XPathEngine& eng, int round) {
  XPathMarkResult& r = *r_;
  const size_t nq = r.queries.size();
  data::Rng rng(r.shared->config.seed * 1000003u + static_cast<uint64_t>(round));
  std::vector<std::pair<size_t, size_t>> order;
  for (int rep = 0; rep < r.reps; ++rep) {
    order.clear();
    for (size_t q = 0; q < nq; ++q) {
      for (size_t b = 0; b < kNumBackends; ++b) {
        if (!IsSlow(r.queries[q], b)) order.emplace_back(q, b);
      }
    }
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Below(i)]);
    }
    for (auto [q, b] : order) r.RunOp(eng, q, b);
  }
  // The slow operations end the round, so what they leave in caches and
  // the allocator does not fall on a seed-dependent choice of queries.
  for (size_t q = 0; q < nq; ++q) {
    for (size_t b = 0; b < kNumBackends; ++b) {
      if (IsSlow(r.queries[q], b)) r.RunOp(eng, q, b);
    }
  }
  if (r.shared->spans == nullptr) return;
  // Traced runs: the same queries again, one layer at a time.
  constexpr int kLayerReps = 3;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    for (size_t q = 0; q < nq; ++q) {
      for (size_t b = 0; b < kNumBackends; ++b) {
        if (rep > 0 && IsSlow(r.queries[q], b)) continue;
        r.LayerOp(eng, q, b);
      }
    }
  }
}

void XPathMarkPhase::Report(const engine::XPathEngine& eng, bool cold,
                            bool paper_shape) {
  XPathMarkResult& r = *r_;
  Shared& sh = *r.shared;
  const size_t nq = r.queries.size();
  // End to end: geomean over the 17 XPathMark queries of each query's
  // median latency. The recursive queries stay out of it.
  std::vector<std::vector<double>> med(nq, std::vector<double>(kNumBackends, 0));
  for (size_t q = 0; q < nq; ++q) {
    for (size_t b = 0; b < kNumBackends; ++b) med[q][b] = Median(r.run_ms[q][b]);
  }
  for (size_t b = 0; b < kNumBackends; ++b) {
    std::vector<double> per_query;
    for (size_t q = 0; q < kNumXPathMark; ++q) per_query.push_back(med[q][b]);
    sh.e2e.Add(std::string(kBackends[b].key) + "_ms", Geomean(per_query), "ms");
  }

  if (paper_shape) {
    std::printf("\npaper shape (median ms per query; winner = fastest backend)\n");
    std::printf("%-4s %-10s %9s %9s %9s %9s %9s\n", "q", "winner", "ppf",
                "edge", "naive", "accel", "staircase");
    int ppf_beats_accel = 0;
    std::string edge_wins, stair_losses;
    for (size_t q = 0; q < kNumXPathMark; ++q) {
      size_t win = 0;
      for (size_t b = 1; b < kNumBackends; ++b) {
        if (med[q][b] < med[q][win]) win = b;
      }
      std::printf("%-4s %-10s %9.3f %9.3f %9.3f %9.3f %9.3f\n", r.queries[q].id,
                  kBackends[win].key, med[q][0], med[q][1], med[q][2], med[q][3],
                  med[q][4]);
      const std::string id = r.queries[q].id;
      if (med[q][0] < med[q][3]) ++ppf_beats_accel;
      if ((id == "Q6" || id == "Q7" || id == "QA" || id == "Q12" || id == "Q13") &&
          med[q][1] <= med[q][0]) {
        edge_wins += " " + id;
      }
      if ((id == "Q3" || id == "Q4" || id == "Q6" || id == "Q7") &&
          kBackends[win].backend != engine::Backend::kStaircase) {
        stair_losses += " " + id + "(" + kBackends[win].key + ")";
      }
    }
    std::printf("claim: PPF beats the accelerator on 17 of 17 queries: %s (%d of 17)\n",
                ppf_beats_accel == 17 ? "holds" : "NO LONGER HOLDS", ppf_beats_accel);
    std::printf("claim: Edge-PPF loses to PPF on Q6/Q7/QA/Q12/Q13: %s%s\n",
                edge_wins.empty() ? "holds" : "NO LONGER HOLDS; Edge-PPF is not slower on",
                edge_wins.c_str());
    std::printf("claim: staircase wins the structural // queries Q3/Q4/Q6/Q7: %s%s\n",
                stair_losses.empty() ? "holds" : "NO LONGER HOLDS; winner elsewhere on",
                stair_losses.c_str());
  }

  if (sh.spans == nullptr) return;
  // Per layer: sums over the query set of per-query medians; counts are
  // exact and come from one execution each.
  std::vector<double> parse_per_query(nq, 0);
  for (size_t q = 0; q < nq; ++q) {
    std::vector<double> pooled;
    for (size_t b = 0; b < kNumSqlBackends; ++b) {
      pooled.insert(pooled.end(), r.parse_ms[q][b].begin(), r.parse_ms[q][b].end());
    }
    parse_per_query[q] = Median(pooled);
  }
  double parse_sum = 0;
  for (double v : parse_per_query) parse_sum += v;
  sh.layers.Add("xpath.parse_ms", parse_sum, "ms");
  size_t result_nodes = 0;
  for (const auto& o : r.oracle) result_nodes += o.size();
  for (size_t b = 0; b < kNumSqlBackends; ++b) {
    const std::string key = kBackends[b].key;
    double translate = 0, plan = 0, exec = 0, deliver = 0;
    size_t joins = 0;
    rel::QueryStats total;
    for (size_t q = 0; q < nq; ++q) {
      const double t = Median(r.translate_ms[q][b]);
      const double p = Median(r.plan_ms[q][b]);
      const double e = Median(r.exec_ms[q][b]);
      translate += t;
      plan += p;
      exec += e;
      joins += r.joins[q][b];
      total.MergeFrom(r.stats[q][b]);
      if (!r.run_ms[q][b].empty()) {
        // A warm Run executes and delivers; a cold one also parses,
        // translates and plans.
        double rest = Median(r.run_ms[q][b]) - e -
                      (cold ? parse_per_query[q] + t + p : 0);
        deliver += std::max(0.0, rest);
      }
    }
    sh.layers.Add("translate." + key + "_ms", translate, "ms");
    sh.layers.Add("translate." + key + "_joins", static_cast<double>(joins), "count");
    sh.layers.Add("plan." + key + "_ms", plan, "ms");
    sh.layers.Add("exec." + key + "_ms", exec, "ms");
    sh.layers.Add("exec." + key + "_rows_scanned",
                  static_cast<double>(total.rows_scanned), "count");
    sh.layers.Add("exec." + key + "_index_probes",
                  static_cast<double>(total.index_probes), "count");
    sh.layers.Add("exec." + key + "_hash_probes",
                  static_cast<double>(total.hash_join_probes), "count");
    sh.layers.Add("exec." + key + "_merge_rounds",
                  static_cast<double>(total.merge_join_rounds), "count");
    sh.layers.Add("exec." + key + "_exists_evals",
                  static_cast<double>(total.subquery_evals), "count");
    sh.layers.Add("exec." + key + "_rows_per_node",
                  result_nodes == 0 ? 0
                                    : static_cast<double>(total.rows_scanned) /
                                          static_cast<double>(result_nodes),
                  "ratio");
    sh.layers.Add("engine." + key + "_deliver_ms", deliver, "ms");
  }
  double stair = 0;
  for (size_t q = 0; q < nq; ++q) stair += Median(r.exec_ms[q][kNumBackends - 1]);
  sh.layers.Add("staircase.ms", stair, "ms");
  const size_t entries = eng.plan_cache_size();
  sh.layers.Add("plan.cache_bytes_per_entry",
                entries == 0 ? 0
                             : static_cast<double>(eng.plan_cache_budget().used()) /
                                   static_cast<double>(entries),
                "bytes");
}

}  // namespace xprel::perfbench
