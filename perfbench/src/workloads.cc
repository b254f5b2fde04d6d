#include "workloads.h"

#include <algorithm>

namespace perfbench {
namespace {

/// The paper's travel-booking workflow (Example 4): buy an air ticket and
/// book a car, cancelling the car when the ticket purchase aborts.
constexpr char kTravelSpec[] = R"(
workflow travel {
  agent air @ site(0);
  agent car @ site(1);
  event s_buy    agent(air);
  event c_buy    agent(air);
  event s_book   agent(car) attrs(triggerable);
  event c_book   agent(car);
  event s_cancel agent(car) attrs(triggerable);
  dep d1: ~s_buy + s_book;
  dep d2: ~c_buy + c_book . c_buy;
  dep d3: ~c_book + c_buy + s_cancel;
}
)";

constexpr size_t kPipelineStages = 10;
constexpr size_t kPipelineAgents = 3;

/// Chained pipeline e0 . e1 ... e9 whose stages the seed spreads over three
/// agents at three sites (every agent owns at least one stage).
std::string PipelineSpec(uint64_t seed) {
  InputRng rng(seed ^ 0x5049504531ULL);
  std::vector<size_t> owner(kPipelineStages);
  for (size_t i = 0; i < kPipelineStages; ++i) {
    owner[i] = i < kPipelineAgents ? i : rng.Below(kPipelineAgents);
  }
  for (size_t i = kPipelineStages; i > 1; --i) {
    std::swap(owner[i - 1], owner[rng.Below(i)]);
  }
  std::string text = "workflow pipeline {\n";
  for (size_t a = 0; a < kPipelineAgents; ++a) {
    text += "  agent a" + std::to_string(a) + " @ site(" + std::to_string(a) +
            ");\n";
  }
  std::string chain;
  for (size_t i = 0; i < kPipelineStages; ++i) {
    text += "  event e" + std::to_string(i) + " agent(a" +
            std::to_string(owner[i]) + ");\n";
    chain += (i == 0 ? "e" : " . e") + std::to_string(i);
  }
  return text + "  dep d: " + chain + ";\n}\n";
}

}  // namespace

ScriptSource::ScriptSource(const EngineWorkload& workload, uint64_t stream)
    : workload_(workload), rng_(workload.seed * 0x100000001B3ULL + stream) {}

cdes::engine::InstanceScript ScriptSource::Next() {
  cdes::engine::InstanceScript script;
  if (workload_.name == "pipeline") {
    for (size_t i = 0; i < kPipelineStages; ++i) {
      script.attempts.push_back(std::string("e").append(std::to_string(i)));
    }
    return script;
  }
  // Travel journey mix: commit, compensate, or abort before buying.
  double draw = rng_.Unit();
  if (draw < 0.40) {
    script.attempts = {"s_buy", "c_book", "c_buy"};
  } else if (draw < 0.75) {
    script.attempts = {"s_buy", "c_book", "~c_buy"};
  } else {
    script.attempts = {"~s_buy"};
  }
  // Durable: a share of multi-step journeys stops before its last attempt
  // and stays open; its log becomes part of the crash image.
  if (workload_.durable && script.attempts.size() > 1 && rng_.Unit() < 0.10) {
    script.attempts.pop_back();
    script.close = false;
  }
  return script;
}

EngineWorkload TravelWorkload(uint64_t seed) {
  EngineWorkload w;
  w.name = "travel";
  w.spec_text = kTravelSpec;
  w.shards = 2;
  w.window = 128;
  w.seed = seed;
  return w;
}

EngineWorkload PipelineWorkload(uint64_t seed) {
  EngineWorkload w;
  w.name = "pipeline";
  w.spec_text = PipelineSpec(seed);
  w.shards = 1;
  w.window = 64;
  // Identical instances finish in waves of `window`; a slice spans dozens.
  w.slice_seconds = 2.5;
  w.seed = seed;
  return w;
}

EngineWorkload DurableWorkload(uint64_t seed) {
  EngineWorkload w = TravelWorkload(seed);
  w.name = "durable";
  w.durable = true;
  return w;
}

std::vector<std::string> VerifyCorpus(uint64_t seed, size_t count) {
  InputRng rng(seed ^ 0x564552494659ULL);
  std::vector<std::string> corpus;
  corpus.reserve(count);
  auto name = [](size_t i) {
    return std::string("x").append(std::to_string(i));
  };
  // Dependencies mentioning an event, per event of the current spec.
  std::vector<size_t> uses(kVerifyEvents);
  // `k` distinct events, in random order, among those still in fewer than
  // two dependencies. The cap keeps every guard (the conjunction over the
  // dependencies that mention its event) under 6 symbols: at 6 the
  // analyzer's exact state-space passes cost about 30 MB and 30× the time,
  // and whether a seed drew such a spec decided the run's tail and peak
  // memory.
  auto pick = [&](size_t k) {
    std::vector<size_t> free;
    for (size_t i = 0; i < kVerifyEvents; ++i) {
      if (uses[i] < 2) free.push_back(i);
    }
    for (size_t i = 0; i < k; ++i) {
      std::swap(free[i], free[i + rng.Below(free.size() - i)]);
      ++uses[free[i]];
    }
    free.resize(k);
    return free;
  };
  for (size_t n = 0; n < count; ++n) {
    std::fill(uses.begin(), uses.end(), 0);
    std::string text = "workflow v" + std::to_string(n) +
                        " {\n  agent p @ site(0);\n  agent q @ site(1);\n";
    for (size_t i = 0; i < kVerifyEvents; ++i) {
      text += "  event " + name(i) + " agent(" + (rng.Below(2) ? "p" : "q") +
              ");\n";
    }
    // One dependency of each primitive, in seeded order over seeded
    // events: specs of even size, so the corpus cost does not hinge on a
    // few heavy draws.
    size_t kinds[] = {0, 1, 2, 3};
    for (size_t i = 4; i > 1; --i) std::swap(kinds[i - 1], kinds[rng.Below(i)]);
    for (size_t d = 0; d < 4; ++d) {
      text += "  dep d" + std::to_string(d) + ": ";
      switch (kinds[d]) {
        case 0: {  // KleinPrecedes
          std::vector<size_t> s = pick(2);
          text += name(s[0]) + " < " + name(s[1]);
          break;
        }
        case 1: {  // KleinImplies
          std::vector<size_t> s = pick(2);
          text += name(s[0]) + " -> " + name(s[1]);
          break;
        }
        case 2: {  // Chain
          std::vector<size_t> s = pick(2 + rng.Below(2));
          for (size_t i = 0; i < s.size(); ++i) {
            text += (i == 0 ? "" : " . ") + name(s[i]);
          }
          break;
        }
        default: {  // OrderedIfAll
          std::vector<size_t> s = pick(3);
          for (size_t i : s) text += "~" + name(i) + " + ";
          text += name(s[0]) + " . " + name(s[1]) + " . " + name(s[2]);
          break;
        }
      }
      text += ";\n";
    }
    corpus.push_back(text + "}\n");
  }
  return corpus;
}

}  // namespace perfbench
