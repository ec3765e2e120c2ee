// The durable read/write mix: one closed-loop client sends reads through
// service::QueryService (result cache on) and writes through
// durability::DurabilityManager (WAL fsync on), each write followed by
// QueryService::InvalidateMutation; checkpoints run at fixed points of the
// operation sequence. The mix ends with durability::OpenOrRecover, checked
// against the live document and the client's ledger of acknowledged writes.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "data/rng.h"

namespace xprel::perfbench {
namespace {

struct ReadPath {
  const char* xpath;
  ChildPath oracle;
};

// Half the read set covers the item paths the writes touch; the other half
// (people, auctions) is never written, so path-scoped invalidation can keep
// it cached.
const ReadPath kReadSet[] = {
    {"/site/regions/*/item", {{"site", "regions", "*", "item"}, "", ""}},
    {"/site/regions/*/item/name", {{"site", "regions", "*", "item", "name"}, "", ""}},
    {"/site/regions/*/item[@featured='yes']",
     {{"site", "regions", "*", "item"}, "featured", "yes"}},
    {"/site/regions/africa/item/location",
     {{"site", "regions", "africa", "item", "location"}, "", ""}},
    {"/site/people/person/name", {{"site", "people", "person", "name"}, "", ""}},
    {"/site/people/person[@id='person0']",
     {{"site", "people", "person"}, "id", "person0"}},
    {"/site/open_auctions/open_auction/bidder",
     {{"site", "open_auctions", "open_auction", "bidder"}, "", ""}},
    {"/site/open_auctions/open_auction/initial",
     {{"site", "open_auctions", "open_auction", "initial"}, "", ""}},
};
constexpr size_t kNumReads = sizeof(kReadSet) / sizeof(kReadSet[0]);

const char* const kRegions[] = {"africa", "asia",     "australia",
                                "europe", "namerica", "samerica"};

// One write per ten operations, and one checkpoint in the middle of every
// block, so recovery always replays the writes of the last 1000 operations.
constexpr int kWriteEvery = 10;
constexpr int kCheckpointAt = MixPhase::kBlockOps / 2;

std::string ItemFragment(const std::string& id, const std::string& name) {
  return "<item id=\"" + id + "\"><location>Honduras</location>"
         "<quantity>1</quantity><name>" + name + "</name>"
         "<payment>Cash</payment>"
         "<description><text>benchmark payload</text></description>"
         "<shipping>Will ship only within country</shipping></item>";
}

xml::NodeId ChildNamed(const xml::Document& doc, xml::NodeId parent,
                       const char* name) {
  for (xml::NodeId c : doc.node(parent).children) {
    if (doc.IsElement(c) && doc.node(c).name == name) return c;
  }
  return xml::kNoNode;
}

std::string DirectText(const xml::Document& doc, xml::NodeId id) {
  std::string out;
  for (xml::NodeId c : doc.node(id).children) {
    if (!doc.IsElement(c)) out += doc.node(c).text;
  }
  return out;
}

}  // namespace

struct MixState {
  Shared* shared = nullptr;
  Stack* stack = nullptr;
  data::Rng rng{1};
  std::vector<xml::NodeId> regions;
  Ledger ledger;                          // id -> acknowledged name
  std::map<std::string, xml::NodeId> item_node;  // id -> live item node
  uint64_t next_item = 0;
  uint64_t writes = 0;
  uint64_t epoch = 0;  // bumped by every write
  uint64_t next_request = 1;
  struct Cached {
    uint64_t epoch = ~uint64_t{0};
    std::vector<xml::NodeId> nodes;
  };
  std::vector<Cached> oracle = std::vector<Cached>(kNumReads);

  std::vector<double> read_ms, hit_ms, miss_ms, queue_ms;
  std::vector<double> write_ms, insert_ms, update_ms, delete_ms, checkpoint_ms;
  uint64_t ops = 0;
  double mix_ms = 0;

  const std::vector<xml::NodeId>& Expected(size_t k) {
    if (oracle[k].epoch != epoch) {
      oracle[k].nodes = EvalChildPath(*stack->doc, kReadSet[k].oracle);
      oracle[k].epoch = epoch;
    }
    return oracle[k].nodes;
  }

  void Read();
  void Write();
  void Checkpoint();
};

MixPhase::MixPhase(Shared& shared, Stack& stack)
    : s_(std::make_unique<MixState>()) {
  s_->shared = &shared;
  s_->stack = &stack;
  s_->rng = data::Rng(shared.config.seed * 7919u + 17u);
  for (const char* r : kRegions) {
    auto found = EvalChildPath(*stack.doc, ChildPath{{"site", "regions", r}, "", ""});
    s_->regions.push_back(found.empty() ? xml::kNoNode : found[0]);
  }
}

MixPhase::~MixPhase() = default;

void MixState::Read() {
  const size_t k = rng.Below(kNumReads);
  service::QueryRequest req;
  req.xpath = kReadSet[k].xpath;
  Stopwatch sw(shared->spans, "read", next_request++);
  auto resp = stack->service->Run(std::move(req));
  const double ms = sw.Stop();
  std::string verdict = resp.ok() ? CheckAnswer(resp.value().nodes, Expected(k))
                                  : resp.status().ToString();
  shared->tally.Count(verdict.empty());
  if (!verdict.empty()) {
    std::fprintf(stderr, "WRONG read %s: %s\n", kReadSet[k].xpath, verdict.c_str());
    return;
  }
  read_ms.push_back(ms);
  if (resp.value().cache_hit) {
    hit_ms.push_back(ms);
  } else {
    miss_ms.push_back(ms);
    queue_ms.push_back(resp.value().queue_wait_ms);
  }
}

void MixState::Write() {
  durability::DurabilityManager& mgr = *stack->manager;
  const xml::Document& doc = *stack->doc;
  // Insert, update, insert, delete: the ledger grows by one item per four
  // writes, and deletes and updates always find an earlier insert.
  const int kind = ledger.empty() ? 0 : static_cast<int>(writes % 4);
  ++writes;
  ++epoch;
  const uint64_t request = next_request++;
  Stopwatch op(shared->spans, "write", request);
  Result<dml::MutationResult> res = Status::Internal("no write");
  std::string id;
  std::string name;
  double dml_ms = 0;
  if (kind == 0 || kind == 2) {
    const xml::NodeId parent = regions[rng.Below(regions.size())];
    const size_t at = rng.Below(doc.node(parent).children.size() + 1);
    id = "pb" + std::to_string(next_item);
    name = "benchmark item " + std::to_string(next_item);
    ++next_item;
    const std::string fragment = ItemFragment(id, name);
    Stopwatch sw(shared->spans, "dml.insert", request);
    res = mgr.InsertFragment(parent, at, fragment);
    dml_ms = sw.Stop();
    insert_ms.push_back(dml_ms);
  } else {
    auto it = ledger.begin();
    std::advance(it, static_cast<long>(rng.Below(ledger.size())));
    id = it->first;
    const xml::NodeId item = item_node[id];
    if (kind == 1) {
      name = "renamed in write " + std::to_string(writes);
      const xml::NodeId name_node = ChildNamed(doc, item, "name");
      Stopwatch sw(shared->spans, "dml.update", request);
      res = mgr.UpdateText(name_node, name);
      dml_ms = sw.Stop();
      update_ms.push_back(dml_ms);
    } else {
      Stopwatch sw(shared->spans, "dml.delete", request);
      res = mgr.DeleteSubtree(item);
      dml_ms = sw.Stop();
      delete_ms.push_back(dml_ms);
    }
  }
  if (res.ok()) {
    Stopwatch sw(shared->spans, "service.invalidate", request);
    stack->service->InvalidateMutation(res.value().affected);
    sw.Stop();
  }
  const double ms = op.Stop();
  shared->tally.Count(res.ok());
  if (!res.ok()) {
    std::fprintf(stderr, "WRONG write %s: %s\n", id.c_str(),
                 res.status().ToString().c_str());
    return;
  }
  write_ms.push_back(ms);
  // Acknowledged: record it in the client's ledger.
  if (kind == 0 || kind == 2) {
    ledger[id] = name;
    item_node[id] = res.value().node;
  } else if (kind == 1) {
    ledger[id] = name;
  } else {
    ledger.erase(id);
    item_node.erase(id);
  }
}

void MixState::Checkpoint() {
  Stopwatch sw(shared->spans, "checkpoint", next_request++);
  Status st = stack->manager->Checkpoint();
  const double ms = sw.Stop();
  shared->tally.Count(st.ok() && stack->manager->stats().checkpoint_failures.load() == 0);
  if (!st.ok()) std::fprintf(stderr, "WRONG checkpoint: %s\n", st.ToString().c_str());
  checkpoint_ms.push_back(ms);
}

void MixPhase::RunBlock() {
  MixState& s = *s_;
  const auto start = Clock::now();
  for (int j = 0; j < kBlockOps; ++j) {
    if (j == kCheckpointAt) {
      s.Checkpoint();
      ++s.ops;
    }
    if (j % kWriteEvery == kWriteEvery - 1) {
      s.Write();
    } else {
      s.Read();
    }
    ++s.ops;
  }
  s.mix_ms += MsSince(start);
}

void MixPhase::FinishAndRecover() {
  MixState& s = *s_;
  Shared& sh = *s.shared;
  Stack& stack = *s.stack;

  sh.e2e.Add("read_p50_ms", Median(s.read_ms), "ms");
  sh.e2e.Add("read_p99_ms", Percentile(s.read_ms, 0.99), "ms");
  sh.e2e.Add("write_p50_ms", Median(s.write_ms), "ms");
  sh.layers.Add("dml.write_p95_ms", Percentile(s.write_ms, 0.95), "ms");
  sh.e2e.Add("ops_per_s", static_cast<double>(s.ops) / (s.mix_ms / 1e3), "ops/s");

  const service::MetricsRegistry& m = stack.service->metrics();
  const durability::DurabilityStats& ds = stack.manager->stats();
  sh.layers.Add("service.hit_rate", m.CacheHitRate(), "ratio");
  sh.layers.Add("service.hit_ms", Median(s.hit_ms), "ms");
  sh.layers.Add("service.miss_ms", Median(s.miss_ms), "ms");
  sh.layers.Add("service.entries_invalidated",
                static_cast<double>(m.cache_entries_invalidated.load()), "count");
  sh.layers.Add("service.queue_wait_ms", Median(s.queue_ms), "ms");
  sh.layers.Add("engine.plan_entries_invalidated",
                static_cast<double>(
                    stack.engine->mutation_counters().plan_entries_invalidated.load()),
                "count");
  sh.layers.Add("dml.insert_ms", Median(s.insert_ms), "ms");
  sh.layers.Add("dml.delete_ms", Median(s.delete_ms), "ms");
  sh.layers.Add("dml.update_ms", Median(s.update_ms), "ms");
  sh.layers.Add("dml.renumbers",
                static_cast<double>(stack.manager->mutation_stats().dewey_renumbers),
                "count");
  const uint64_t records = ds.wal_records.load();
  sh.layers.Add("wal.bytes_per_write",
                records == 0 ? 0
                             : static_cast<double>(ds.wal_bytes.load()) /
                                   static_cast<double>(records),
                "bytes");
  sh.layers.Add("checkpoint.ms", Median(s.checkpoint_ms), "ms");
  sh.layers.Add("checkpoint.count", static_cast<double>(ds.checkpoints.load()), "count");
  sh.e2e.Add("snapshot_bytes_per_xml_byte",
             static_cast<double>(ds.snapshot_bytes.load()) /
                 static_cast<double>(sh.xml_text.size()),
             "ratio");

  // What the recovered engine must answer: the read set on the live
  // document, and the ledger.
  std::vector<std::vector<xml::NodeId>> expected;
  for (size_t k = 0; k < kNumReads; ++k) expected.push_back(s.Expected(k));
  const std::string dir = stack.manager->dir();

  // Recovery starts cold: the live stack goes first.
  stack.Reset();

  constexpr int kRecoveries = 2;
  std::vector<double> recovery_s;
  uint64_t replayed = 0;
  for (int i = 0; i < kRecoveries; ++i) {
    Stopwatch sw(sh.spans, "recover", s.next_request++);
    auto rec = durability::OpenOrRecover(dir, *sh.graph, sh.durability_options,
                                         sh.engine_options);
    recovery_s.push_back(sw.Stop() / 1e3);
    if (!rec.ok()) {
      std::fprintf(stderr, "WRONG recovery: %s\n", rec.status().ToString().c_str());
      sh.tally.correct = false;
      continue;
    }
    replayed = rec.value().report.replayed;
    const engine::XPathEngine& eng = *rec.value().engine;
    const xml::Document& doc = *rec.value().doc;
    for (size_t k = 0; k < kNumReads; ++k) {
      auto got = eng.Run(engine::Backend::kPpf, kReadSet[k].xpath);
      std::string verdict = got.ok() ? CheckAnswer(got.value().nodes, expected[k])
                                     : got.status().ToString();
      if (verdict.empty()) {
        verdict = CheckAnswer(EvalChildPath(doc, kReadSet[k].oracle), expected[k]);
      }
      if (!verdict.empty()) {
        std::fprintf(stderr, "WRONG after recovery %s: %s\n", kReadSet[k].xpath,
                     verdict.c_str());
        sh.tally.correct = false;
      }
    }
    Ledger observed;
    auto items = eng.Run(engine::Backend::kPpf, kReadSet[0].xpath);
    if (items.ok()) {
      for (xml::NodeId item : items.value().nodes) {
        const std::string* id = doc.FindAttribute(item, "id");
        if (id == nullptr || id->rfind("pb", 0) != 0) continue;
        const xml::NodeId name = ChildNamed(doc, item, "name");
        observed[*id] = name == xml::kNoNode ? "" : DirectText(doc, name);
      }
    }
    std::string verdict = items.ok() ? CheckLedger(s.ledger, observed)
                                     : items.status().ToString();
    if (!verdict.empty()) {
      std::fprintf(stderr, "WRONG ledger after recovery: %s\n", verdict.c_str());
      sh.tally.correct = false;
    }
  }
  sh.e2e.Add("recovery_s", Median(recovery_s), "s");
  sh.layers.Add("recovery.replayed", static_cast<double>(replayed), "count");
  std::printf("mix: %llu ops (%zu reads, %zu writes, %zu checkpoints), ledger %zu items\n",
              static_cast<unsigned long long>(s.ops), s.read_ms.size(),
              s.write_ms.size(), s.checkpoint_ms.size(), s.ledger.size());
}

}  // namespace xprel::perfbench
