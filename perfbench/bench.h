#ifndef XPREL_PERFBENCH_BENCH_H_
#define XPREL_PERFBENCH_BENCH_H_

// Shared pieces of the end-to-end benchmark: the fixed inputs (corpus and
// query lists), statistics helpers, the metric sink, the in-memory span log
// of traced runs, the answer/ledger checks, and the two phases.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "durability/manager.h"
#include "engine/engine.h"
#include "service/query_service.h"
#include "xml/document.h"
#include "xsd/schema_graph.h"

namespace xprel::perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> v);
// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q);
double Geomean(const std::vector<double>& v);

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

// The corpus is the XMark generator's own seeded document at scale 0.1 (the
// paper's 12 MB analogue, 3.36 MB of XML text here). It is the same in every
// run, so the two queries with a known Edge-PPF fault fail on the same
// input whatever --seed is; --seed drives the operation order, the write
// mix and the read choices.
inline constexpr double kXMarkScale = 0.1;
inline constexpr uint64_t kXMarkSeed = 42;

struct NamedQuery {
  const char* id;
  const char* xpath;
};

// The paper's XPathMark subset (Appendix B) plus Q-A. Kept here rather than
// shared with the tests so the benchmark's inputs cannot drift.
inline constexpr NamedQuery kXPathMark[] = {
    {"Q1", "/site/regions/*/item"},
    {"Q2",
     "/site/closed_auctions/closed_auction/annotation/description/parlist/"
     "listitem/text/keyword"},
    {"Q3", "//keyword"},
    {"Q4", "/descendant-or-self::listitem/descendant-or-self::keyword"},
    {"Q5", "/site/regions/*/item[parent::namerica or parent::samerica]"},
    {"Q6", "//keyword/ancestor::listitem"},
    {"Q7", "//keyword/ancestor-or-self::mail"},
    {"Q9",
     "/site/open_auctions/open_auction[@id='open_auction0']/bidder/"
     "preceding-sibling::bidder"},
    {"Q10", "/site/regions/*/item[@id='item0']/following::item"},
    {"Q11",
     "/site/open_auctions/open_auction/bidder[personref/@person='person1']"
     "/preceding::bidder[personref/@person='person0']"},
    {"Q12", "//item[@featured='yes']"},
    {"Q13", "//*[@id]"},
    {"Q21", "/site/regions/*/item[@id='item0']/description//keyword/text()"},
    {"Q22", "/site/regions/namerica/item | /site/regions/samerica/item"},
    {"Q23", "/site/people/person[address and (phone or homepage)]"},
    {"Q24", "/site/people/person[not(homepage)]"},
    {"QA", "/site/open_auctions/open_auction[bidder/date = interval/start]"},
};
inline constexpr size_t kNumXPathMark = sizeof(kXPathMark) / sizeof(kXPathMark[0]);

// Child-path predicates under the recursive parlist/listitem context of the
// XMark schema. They run on every backend of both xpathmark workloads and
// stay out of the latency geomeans.
inline constexpr NamedQuery kRecursiveQueries[] = {
    {"L1", "//listitem[text/keyword]"},
    {"L2", "//parlist[listitem/text]"},
};

// Backends in report order; `key` names them in metric names.
struct BackendInfo {
  engine::Backend backend;
  const char* key;
};
inline constexpr BackendInfo kBackends[] = {
    {engine::Backend::kPpf, "ppf"},
    {engine::Backend::kEdgePpf, "edge"},
    {engine::Backend::kNaive, "naive"},
    {engine::Backend::kAccelerator, "accel"},
    {engine::Backend::kStaircase, "staircase"},
};
inline constexpr size_t kNumBackends = 5;
inline constexpr size_t kNumSqlBackends = 4;  // the first four

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class MetricSink {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Operations attempted and failed, and whether every answer that was
// expected to be right was right.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  // One operation. `ok` false counts it failed; an unexpected failure (not a
  // known program fault the benchmark tracks) also clears `correct`.
  void Count(bool ok, bool known_fault = false) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (!known_fault) correct = false;
    }
  }
};

// ---------------------------------------------------------------------------
// Spans of traced runs
// ---------------------------------------------------------------------------

// Spans kept in memory during a traced run and written out when it ends:
// name, start, end, parent and request id. Single-threaded: the benchmark
// is one closed-loop client, and spans wrap its calls into the library.
class SpanLog {
 public:
  struct Span {
    const char* name;
    uint64_t request;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };

  int Begin(const char* name, uint64_t request);
  // Closes span `id` and returns its duration in ms.
  double End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  // Per span name: count, total ms and self ms (total minus the time its
  // child spans cover).
  std::string SelfTimeTable() const;
  bool WriteJson(const std::string& path) const;

 private:
  int64_t NowNs() const;

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Times one call into the library and, when `log` is set, records it as a
// span (a child of whichever span is open).
class Stopwatch {
 public:
  Stopwatch(SpanLog* log, const char* name, uint64_t request)
      : log_(log), id_(log != nullptr ? log->Begin(name, request) : -1) {}
  // Elapsed ms; closes the span. Call once.
  double Stop() { return log_ != nullptr ? log_->End(id_) : MsSince(start_); }

 private:
  SpanLog* log_;
  int id_;
  Clock::time_point start_ = Clock::now();
};

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

// Empty when `got` equals `want` (both document-ordered, duplicate-free
// node lists); otherwise a one-line description of the first difference.
std::string CheckAnswer(const std::vector<xml::NodeId>& got,
                        const std::vector<xml::NodeId>& want);

// The client's ledger of acknowledged writes: benchmark-inserted item id ->
// its current name text. Empty when `observed` holds exactly the ledger.
using Ledger = std::map<std::string, std::string>;
std::string CheckLedger(const Ledger& ledger, const Ledger& observed);

// A document-ordered copy of a (possibly mutated) document, for the
// preorder-id DOM oracle, plus the map from copy ids back to live ids.
struct PreorderCopy {
  xml::Document doc;
  std::vector<xml::NodeId> live_of;  // indexed by copy id
};
PreorderCopy CopyInDocumentOrder(const xml::Document& live);

// Absolute child-step paths with an optional attribute test on the last
// step — the shape of the service read set. Matched by walking the live
// document's child lists, apart from every store and translator.
struct ChildPath {
  std::vector<std::string> steps;  // "*" matches any element
  std::string attr;                // empty: no test
  std::string value;               // required attr value
};
std::vector<xml::NodeId> EvalChildPath(const xml::Document& doc,
                                       const ChildPath& path);

// Runs the checks above on perturbed inputs; false (with a message on
// stderr) if a perturbation slips through.
bool SelfTest();

// ---------------------------------------------------------------------------
// Workload plumbing
// ---------------------------------------------------------------------------

enum class Workload { kWarm, kCold, kUpdate };

struct RunConfig {
  Workload workload = Workload::kWarm;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space for durability directories
};

// The live serving stack; members are declared so that destruction runs
// service, manager, engine, document.
struct Stack {
  std::unique_ptr<xml::Document> doc;
  std::unique_ptr<engine::XPathEngine> engine;
  std::unique_ptr<durability::DurabilityManager> manager;
  std::unique_ptr<service::QueryService> service;

  void Reset() {
    service.reset();
    manager.reset();
    engine.reset();
    doc.reset();
  }
};

struct Shared {
  RunConfig config;
  std::string xml_text;
  xsd::SchemaGraph* graph = nullptr;
  engine::EngineOptions engine_options;
  durability::DurabilityOptions durability_options;
  SpanLog* spans = nullptr;  // null on untraced runs
  Tally tally;
  MetricSink e2e;
  MetricSink layers;
};

// The XPathMark phase: rounds of every (backend, query) operation on the
// stack's engine. See xpathmark.cc.
struct XPathMarkResult;
class XPathMarkPhase {
 public:
  // `reps`: repetitions of each operation per round (the slow accelerator
  // queries run once, at the end of the round).
  XPathMarkPhase(Shared& shared, bool with_recursive, int reps);
  ~XPathMarkPhase();
  // Computes the DOM oracle's answers on the document as it stands.
  bool PrepareOracle(const xml::Document& doc);
  // Fills the plan cache without executing anything.
  void FillPlanCache(const engine::XPathEngine& engine);
  void RunRound(const engine::XPathEngine& engine, int round);
  // Adds the per-backend metrics (and, traced, the layer metrics). `cold`:
  // Run also parsed, translated and planned.
  void Report(const engine::XPathEngine& engine, bool cold, bool paper_shape);

 private:
  std::unique_ptr<XPathMarkResult> r_;
};

// The durable read/write mix through the query service. See mix.cc.
struct MixState;
class MixPhase {
 public:
  MixPhase(Shared& shared, Stack& stack);
  ~MixPhase();
  static constexpr int kBlockOps = 2000;
  // Runs one block of kBlockOps operations.
  void RunBlock();
  // Tears the live stack down, recovers, checks the recovered engine and
  // reports the mix and recovery metrics.
  void FinishAndRecover();

 private:
  std::unique_ptr<MixState> s_;
};

}  // namespace xprel::perfbench

#endif  // XPREL_PERFBENCH_BENCH_H_
