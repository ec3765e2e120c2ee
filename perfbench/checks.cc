// Answer and ledger checks, the document-order copy the DOM oracle runs
// on, the child-path oracle of the service read set, and the self-test that
// proves the checks reject wrong answers.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace xprel::perfbench {

std::string CheckAnswer(const std::vector<xml::NodeId>& got,
                        const std::vector<xml::NodeId>& want) {
  if (got == want) return "";
  size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  std::string msg = "got " + std::to_string(got.size()) + " nodes, want " +
                    std::to_string(want.size()) + "; first difference at " +
                    std::to_string(i);
  if (i < got.size()) msg += " (got id " + std::to_string(got[i]) + ")";
  if (i < want.size()) msg += " (want id " + std::to_string(want[i]) + ")";
  return msg;
}

std::string CheckLedger(const Ledger& ledger, const Ledger& observed) {
  for (const auto& [id, name] : ledger) {
    auto it = observed.find(id);
    if (it == observed.end()) return "acknowledged insert " + id + " is missing";
    if (it->second != name) {
      return "item " + id + " has name '" + it->second + "', want '" + name +
             "'";
    }
  }
  for (const auto& entry : observed) {
    if (ledger.count(entry.first) == 0) {
      return "item " + entry.first + " was never acknowledged (or was deleted)";
    }
  }
  return "";
}

PreorderCopy CopyInDocumentOrder(const xml::Document& live) {
  PreorderCopy out;
  out.live_of.push_back(xml::kNoNode);  // copy ids start at 1
  xml::Builder b;
  // Iterative preorder walk: the XMark tree is shallow, but the walk must not
  // depend on that.
  struct Frame {
    xml::NodeId id;
    size_t next_child;
  };
  std::vector<Frame> stack;
  auto open = [&](xml::NodeId id) {
    const xml::Node& n = live.node(id);
    if (n.kind == xml::NodeKind::kText) {
      b.AddText(n.text);
      out.live_of.push_back(id);
      return;
    }
    b.StartElement(n.name);
    out.live_of.push_back(id);
    for (const xml::Attribute& a : n.attributes) b.AddAttribute(a.name, a.value);
    stack.push_back({id, 0});
  };
  open(live.root());
  while (!stack.empty()) {
    Frame& f = stack.back();
    const std::vector<xml::NodeId>& children = live.node(f.id).children;
    if (f.next_child == children.size()) {
      b.EndElement();
      stack.pop_back();
      continue;
    }
    open(children[f.next_child++]);
  }
  auto doc = std::move(b).Finish();
  if (doc.ok()) out.doc = std::move(doc).value();
  return out;
}

std::vector<xml::NodeId> EvalChildPath(const xml::Document& doc,
                                       const ChildPath& path) {
  std::vector<xml::NodeId> ctx;
  auto matches = [&](xml::NodeId id, const std::string& step) {
    const xml::Node& n = doc.node(id);
    return n.kind == xml::NodeKind::kElement && (step == "*" || n.name == step);
  };
  if (path.steps.empty() || !matches(doc.root(), path.steps[0])) return ctx;
  ctx.push_back(doc.root());
  // Child steps from a document-ordered context list at one depth yield a
  // document-ordered list at the next depth.
  for (size_t s = 1; s < path.steps.size(); ++s) {
    std::vector<xml::NodeId> next;
    for (xml::NodeId c : ctx) {
      for (xml::NodeId child : doc.node(c).children) {
        if (matches(child, path.steps[s])) next.push_back(child);
      }
    }
    ctx = std::move(next);
  }
  if (path.attr.empty()) return ctx;
  std::vector<xml::NodeId> out;
  for (xml::NodeId id : ctx) {
    const std::string* v = doc.FindAttribute(id, path.attr);
    if (v != nullptr && *v == path.value) out.push_back(id);
  }
  return out;
}

bool SelfTest() {
  bool ok = true;
  auto expect_reject = [&](const char* what, const std::string& verdict) {
    if (verdict.empty()) {
      std::fprintf(stderr, "self-test: %s was accepted\n", what);
      ok = false;
    }
  };
  const std::vector<xml::NodeId> want = {3, 7, 8, 15, 42};
  if (!CheckAnswer(want, want).empty()) {
    std::fprintf(stderr, "self-test: an exact answer was rejected\n");
    ok = false;
  }
  std::vector<xml::NodeId> dropped = {3, 7, 15, 42};
  expect_reject("an answer with one id dropped", CheckAnswer(dropped, want));
  std::vector<xml::NodeId> swapped = {3, 8, 7, 15, 42};
  expect_reject("an answer with two ids swapped", CheckAnswer(swapped, want));
  std::vector<xml::NodeId> duplicated = {3, 7, 8, 8, 15, 42};
  expect_reject("an answer with one id duplicated",
                CheckAnswer(duplicated, want));

  const Ledger ledger = {{"pb1", "n1"}, {"pb2", "renamed"}, {"pb5", "n5"}};
  if (!CheckLedger(ledger, ledger).empty()) {
    std::fprintf(stderr, "self-test: an exact ledger was rejected\n");
    ok = false;
  }
  Ledger missing = ledger;
  missing.erase("pb2");
  expect_reject("a recovery missing an acknowledged insert",
                CheckLedger(ledger, missing));
  Ledger stale = ledger;
  stale["pb2"] = "n2";
  expect_reject("a recovery with a lost text update", CheckLedger(ledger, stale));
  Ledger extra = ledger;
  extra["pb9"] = "n9";
  expect_reject("a recovery holding a deleted item", CheckLedger(ledger, extra));

  // The oracle plumbing: a mutated-order document must map back exactly.
  xml::Builder b;
  b.StartElement("site");
  b.StartElement("regions");
  b.StartElement("africa");
  b.StartElement("item");
  b.AddAttribute("id", "a");
  b.EndElement();
  b.StartElement("item");
  b.AddAttribute("id", "b");
  b.EndElement();
  b.EndElement();
  b.EndElement();
  b.EndElement();
  auto doc = std::move(b).Finish();
  if (!doc.ok()) return false;
  ChildPath items{{"site", "regions", "*", "item"}, "", ""};
  ChildPath item_b{{"site", "regions", "*", "item"}, "id", "b"};
  if (EvalChildPath(doc.value(), items) != std::vector<xml::NodeId>{4, 5} ||
      EvalChildPath(doc.value(), item_b) != std::vector<xml::NodeId>{5}) {
    std::fprintf(stderr, "self-test: the child-path oracle is wrong\n");
    ok = false;
  }
  PreorderCopy copy = CopyInDocumentOrder(doc.value());
  if (copy.doc.size() != doc.value().size() ||
      copy.live_of != std::vector<xml::NodeId>{0, 1, 2, 3, 4, 5}) {
    std::fprintf(stderr, "self-test: the document-order copy is wrong\n");
    ok = false;
  }
  return ok;
}

}  // namespace xprel::perfbench
