// The xprel end-to-end benchmark binary.
//
//   perfbench --workload <xpathmark-warm|xpathmark-cold|xmark-update>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//   perfbench --self-test
//
// Every workload sets up the same durable serving stack over the XMark
// corpus (ParseXml, XPathEngine::Build, DurabilityManager::Create,
// QueryService), runs an XPathMark phase and a durable read/write mix, and
// ends with OpenOrRecover; the workloads differ in which phase is timed for
// --seconds and in the plan cache. The last stdout line is one JSON object:
// correct, attempted, failed and the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1).

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "accel/accel_store.h"
#include "bench.h"
#include "data/xmark.h"
#include "shred/edge_loader.h"
#include "shred/schema_loader.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xsd/xsd_parser.h"

namespace xprel::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kSetups = 3;
// Mix blocks per XPathMark round on the xpathmark workloads. A single block
// (200 writes, about 3 s) let the write median swing by a quarter between
// runs on the reference host; three keep it and ops_per_s steadier.
constexpr int kMixBlocksPerRound = 3;

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

bool ParseArgs(int argc, char** argv, RunConfig* cfg, bool* self_test) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      *self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (a == "--workload") {
      have_workload = true;
      if (v == "xpathmark-warm") {
        cfg->workload = Workload::kWarm;
      } else if (v == "xpathmark-cold") {
        cfg->workload = Workload::kCold;
      } else if (v == "xmark-update") {
        cfg->workload = Workload::kUpdate;
      } else {
        return false;
      }
    } else if (a == "--seed") {
      cfg->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg->seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      cfg->trace = v == "1";
    } else if (a == "--work-dir") {
      cfg->work_dir = v;
    } else {
      return false;
    }
  }
  return *self_test || (have_workload && !cfg->work_dir.empty() && cfg->seconds > 0);
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kWarm:
      return "xpathmark-warm";
    case Workload::kCold:
      return "xpathmark-cold";
    case Workload::kUpdate:
      return "xmark-update";
  }
  return "?";
}

// The timed phase runs whole rounds while one more round of the average
// length still fits in --seconds, and at least one. A round that takes
// about as long as --seconds then runs once on every run, instead of once
// or twice depending on how busy the host is.
bool AnotherFits(double elapsed_ms, int done, double seconds) {
  return elapsed_ms + elapsed_ms / done <= seconds * 1e3;
}

// One set-up of the serving stack, timed as a whole and by layer.
void SetUp(Shared& sh, const std::string& dir, Stack* stack, double* total_ms,
           double* parse_ms, double* build_ms) {
  fs::remove_all(dir);
  const auto start = Clock::now();
  Stopwatch parse_sw(sh.spans, "xml.parse", 0);
  auto doc = xml::ParseXml(sh.xml_text);
  *parse_ms = parse_sw.Stop();
  if (!doc.ok()) Die("parse: " + doc.status().ToString());
  stack->doc = std::make_unique<xml::Document>(std::move(doc).value());
  Stopwatch build_sw(sh.spans, "engine.build", 0);
  auto eng = engine::XPathEngine::Build(*stack->doc, *sh.graph, sh.engine_options);
  *build_ms = build_sw.Stop();
  if (!eng.ok()) Die("build: " + eng.status().ToString());
  stack->engine = std::move(eng).value();
  auto mgr = durability::DurabilityManager::Create(dir, *stack->doc, *stack->engine,
                                                   sh.durability_options);
  if (!mgr.ok()) Die("durability: " + mgr.status().ToString());
  stack->manager = std::move(mgr).value();
  service::ServiceOptions so;
  so.workers = 4;
  so.parallelism = 1;
  so.trace_level = 0;
  stack->service = std::make_unique<service::QueryService>(*stack->engine, so);
  *total_ms = MsSince(start);
}

// Traced runs: the three stores XPathEngine::Build loads, each built alone.
void TimeStoreLoads(Shared& sh, const xml::Document& doc) {
  double ppf = 0, edge = 0, accel = 0;
  {
    Stopwatch sw(sh.spans, "shred.ppf_load", 0);
    auto store = shred::SchemaAwareStore::Create(*sh.graph);
    if (store.ok()) (void)store.value()->LoadDocument(doc);
    ppf = sw.Stop();
  }
  {
    Stopwatch sw(sh.spans, "shred.edge_load", 0);
    auto store = shred::EdgeStore::Create();
    if (store.ok()) (void)store.value()->LoadDocument(doc);
    edge = sw.Stop();
  }
  {
    Stopwatch sw(sh.spans, "accel.build", 0);
    auto store = accel::AccelStore::Create(doc);
    accel = sw.Stop();
  }
  sh.layers.Add("shred.ppf_load_ms", ppf, "ms");
  sh.layers.Add("shred.edge_load_ms", edge, "ms");
  sh.layers.Add("accel.build_ms", accel, "ms");
}

std::string MetricsJson(const MetricSink& sink) {
  std::string out = "{";
  char buf[128];
  for (const Metric& m : sink.metrics()) {
    if (out.size() > 1) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

void PrintTable(const char* title, const MetricSink& sink) {
  std::printf("\n%s\n", title);
  for (const Metric& m : sink.metrics()) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int Run(const RunConfig& cfg) {
  Shared sh;
  sh.config = cfg;
  SpanLog spans;
  if (cfg.trace) sh.spans = &spans;
  fs::create_directories(cfg.work_dir);

  auto schema = xsd::ParseXsd(data::XMarkXsd());
  if (!schema.ok()) Die("schema: " + schema.status().ToString());
  auto graph = xsd::SchemaGraph::Build(schema.value());
  if (!graph.ok()) Die("schema graph: " + graph.status().ToString());
  sh.graph = &graph.value();
  data::XMarkOptions xo;
  xo.scale = kXMarkScale;
  xo.seed = kXMarkSeed;
  sh.xml_text = xml::SerializeXml(data::GenerateXMark(xo));
  sh.engine_options.enable_plan_cache = cfg.workload != Workload::kCold;
  sh.durability_options.fsync_wal = true;
  sh.durability_options.checkpoint_wal_bytes = 0;  // checkpoints at fixed points
  sh.durability_options.retain_history = false;

  // Set up several times; the last stack serves the run.
  Stack stack;
  std::vector<double> setup_ms, parse_ms, build_ms;
  std::string dir;
  for (int i = 0; i < kSetups; ++i) {
    if (!dir.empty()) {
      stack.Reset();
      fs::remove_all(dir);
    }
    dir = (fs::path(cfg.work_dir) / ("durable-" + std::to_string(i))).string();
    double total = 0, parse = 0, build = 0;
    SetUp(sh, dir, &stack, &total, &parse, &build);
    setup_ms.push_back(total);
    parse_ms.push_back(parse);
    build_ms.push_back(build);
  }
  sh.e2e.Add("setup_s", Median(setup_ms) / 1e3, "s");
  sh.layers.Add("xml.parse_ms", Median(parse_ms), "ms");
  sh.layers.Add("engine.build_ms", Median(build_ms), "ms");
  std::printf("corpus: %zu bytes of XML, %d nodes, %d elements; %d set-ups\n",
              sh.xml_text.size(), stack.doc->size(), stack.doc->CountElements(),
              kSetups);

  const bool cold = cfg.workload == Workload::kCold;
  if (cfg.workload == Workload::kUpdate) {
    MixPhase mix(sh, stack);
    const auto start = Clock::now();
    int blocks = 0;
    do {
      mix.RunBlock();
      ++blocks;
    } while (AnotherFits(MsSince(start), blocks, cfg.seconds));
    // Then XPathMark on the updated document, once the accelerator image
    // the writes marked stale has been rebuilt off the clock.
    XPathMarkPhase xm(sh, /*with_recursive=*/false, /*reps=*/5);
    if (!xm.PrepareOracle(*stack.doc)) sh.tally.correct = false;
    (void)stack.engine->Run(engine::Backend::kAccelerator, "/site");
    xm.RunRound(*stack.engine, 0);
    xm.Report(*stack.engine, /*cold=*/false, /*paper_shape=*/false);
    std::printf("mix blocks: %d\n", blocks);
    mix.FinishAndRecover();
  } else {
    XPathMarkPhase xm(sh, /*with_recursive=*/true, /*reps=*/7);
    if (!xm.PrepareOracle(*stack.doc)) sh.tally.correct = false;
    if (!cold) xm.FillPlanCache(*stack.engine);
    const auto start = Clock::now();
    int rounds = 0;
    do {
      xm.RunRound(*stack.engine, rounds);
      ++rounds;
    } while (AnotherFits(MsSince(start), rounds, cfg.seconds));
    xm.Report(*stack.engine, cold, /*paper_shape=*/!cold);
    std::printf("xpathmark rounds: %d\n", rounds);
    // The mix repeats per round, so every run is made of whole rounds of
    // the same operations.
    MixPhase mix(sh, stack);
    for (int i = 0; i < rounds * kMixBlocksPerRound; ++i) mix.RunBlock();
    mix.FinishAndRecover();
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  sh.e2e.Add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  if (cfg.trace) {
    // Last, so that the extra loads leave the allocator state the measured
    // phases ran in exactly as in an untraced run.
    auto doc = xml::ParseXml(sh.xml_text);
    if (!doc.ok()) Die("parse: " + doc.status().ToString());
    TimeStoreLoads(sh, doc.value());
  }
  fs::remove_all(cfg.work_dir + "/durable-" + std::to_string(kSetups - 1));

  std::printf("\nworkload %s seed %llu: attempted %llu, failed %llu, correct %s\n",
              WorkloadName(cfg.workload), static_cast<unsigned long long>(cfg.seed),
              static_cast<unsigned long long>(sh.tally.attempted),
              static_cast<unsigned long long>(sh.tally.failed),
              sh.tally.correct ? "true" : "false");
  PrintTable(cfg.trace ? "end-to-end (traced)" : "end-to-end", sh.e2e);
  if (cfg.trace) {
    PrintTable("per layer", sh.layers);
    const std::string path =
        (fs::path(cfg.work_dir) / (std::string("spans-") + WorkloadName(cfg.workload) +
                                   "-" + std::to_string(cfg.seed) + ".json"))
            .string();
    std::printf("\nspan self time (%zu spans, written to %s)\n%s",
                spans.spans().size(), path.c_str(), spans.SelfTimeTable().c_str());
    if (!spans.WriteJson(path)) std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::printf("e2e-under-trace %s\n", MetricsJson(sh.e2e).c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              sh.tally.correct ? "true" : "false",
              static_cast<unsigned long long>(sh.tally.attempted),
              static_cast<unsigned long long>(sh.tally.failed),
              MetricsJson(cfg.trace ? sh.layers : sh.e2e).c_str());
  return 0;
}

}  // namespace
}  // namespace xprel::perfbench

int main(int argc, char** argv) {
  using namespace xprel::perfbench;
  RunConfig cfg;
  bool self_test = false;
  if (!ParseArgs(argc, argv, &cfg, &self_test)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <xpathmark-warm|xpathmark-cold|"
                 "xmark-update> --seed N --seconds S --trace 0|1 --work-dir DIR\n"
                 "       perfbench --self-test\n");
    return 2;
  }
  // The checks are proven on perturbed answers before every run.
  if (!SelfTest()) return 1;
  if (self_test) {
    std::printf("self-test passed\n");
    return 0;
  }
  return Run(cfg);
}
