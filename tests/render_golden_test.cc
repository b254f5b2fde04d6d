// Byte-exact goldens for the text the runtime renders: EventLog images
// (header, record lines with their checksums, checkpoint sections and the
// sealed trailer), TraceToString, and the history and durable log of every
// instance in a seeded engine batch. The expected strings were captured
// from an earlier, stream-formatting implementation of these renderers;
// any byte that moves here changes what recovery reads back or what
// callers compare.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/trace.h"
#include "engine/engine.h"
#include "runtime/event_log.h"

namespace cdes {
namespace {

TEST(RenderGoldenTest, EventLogImages) {
  Alphabet alphabet;
  alphabet.Intern("s_buy");
  alphabet.Intern("c_book");
  alphabet.Intern("x");
  EventLog log;
  log.set_instance(UINT64_MAX);
  log.Append({OccurrenceStamp{0, 0}, EventLiteral::Positive(0)});
  log.Append({OccurrenceStamp{1000, 1}, EventLiteral::Complement(1)});
  log.Append({OccurrenceStamp{1000, 7}, EventLiteral::Complement(2)});
  EXPECT_EQ(log.SerializeOpen(alphabet),
            R"golden(cdeslog v3 18446744073709551615
0 0 s_buy 14706808319388882581
1 1000 ~c_book 17868973222171231168
7 1000 ~x 6531523669443499543
)golden");
  EXPECT_EQ(log.Serialize(alphabet),
            R"golden(cdeslog v3 18446744073709551615
0 0 s_buy 14706808319388882581
1 1000 ~c_book 17868973222171231168
7 1000 ~x 6531523669443499543
checksum 3240598174949094179
)golden");

  EventLog::CheckpointSection section;
  section.covered = log.total_records();
  section.last_stamp = log.last_stamp();
  section.payload = "meta 8 1000 3 123\nhist s_buy ~c_book ~x";
  log.InstallCheckpoint(section);
  log.Append({OccurrenceStamp{UINT64_MAX, UINT64_MAX}, EventLiteral::Positive(2)});
  EXPECT_EQ(log.SerializeOpen(alphabet),
            R"golden(cdeslog v3 18446744073709551615
ckpt 3 1000 7 2 11210755579772336732
meta 8 1000 3 123
hist s_buy ~c_book ~x
18446744073709551615 18446744073709551615 x 11582262077922499389
)golden");
  EXPECT_EQ(log.Serialize(alphabet),
            R"golden(cdeslog v3 18446744073709551615
ckpt 3 1000 7 2 11210755579772336732
meta 8 1000 3 123
hist s_buy ~c_book ~x
18446744073709551615 18446744073709551615 x 11582262077922499389
checksum 12293771148601657026
)golden");
}

TEST(RenderGoldenTest, EventLogLineBuilders) {
  Alphabet alphabet;
  alphabet.Intern("s_buy");
  EXPECT_EQ(EventLog::HeaderLine(0), R"golden(cdeslog v3 0
)golden");
  EXPECT_EQ(EventLog::RecordLine(
                {OccurrenceStamp{UINT64_MAX, 0}, EventLiteral::Complement(0)},
                alphabet),
            R"golden(0 18446744073709551615 ~s_buy 5163776604254501656
)golden");
  EXPECT_EQ(EventLog::SectionText(EventLog::CheckpointSection{}),
            R"golden(ckpt 0 0 0 0 3751417716364412183
)golden");
}

TEST(RenderGoldenTest, TraceToString) {
  Alphabet alphabet;
  alphabet.Intern("a");
  alphabet.Intern("long_event_name[42]");
  alphabet.Intern("c");
  EXPECT_EQ(TraceToString({}, alphabet), R"golden(<>)golden");
  EXPECT_EQ(TraceToString({EventLiteral::Complement(1)}, alphabet),
            R"golden(<~long_event_name[42]>)golden");
  EXPECT_EQ(TraceToString({EventLiteral::Positive(2), EventLiteral::Complement(0),
                           EventLiteral::Positive(1)},
                          alphabet),
            R"golden(<c ~a long_event_name[42]>)golden");
  EXPECT_EQ(alphabet.LiteralName(EventLiteral::Complement(2)), R"golden(~c)golden");
}

struct InstanceGolden {
  uint64_t id;
  const char* history;
  const char* log_text;
};

// Seeded travel batch: 2 shards, jittered links, durable logs, four
// journey shapes (happy path, compensation, never buys, left open).
const InstanceGolden kTravelBatch[] = {
{0, "<s_book s_buy c_book c_buy ~s_cancel>",
R"golden(cdeslog v3 0
0 1573 s_book 7262102774401940924
1 3205 s_buy 15736844721347241996
2 4349 c_book 4896094731260861308
3 5995 c_buy 7578383353957631656
4 7528 ~s_cancel 14200202855892070453
checksum 3105698403969261899
)golden"},
{1, "<s_book s_buy c_book s_cancel ~c_buy>",
R"golden(cdeslog v3 1
0 1022 s_book 988768837173623135
1 2081 s_buy 17603459095300598659
2 3138 c_book 13011193206683011003
3 6152 s_cancel 7802319566817626544
4 7451 ~c_buy 8452877517000288032
checksum 14210719158845720145
)golden"},
{2, "<~s_buy ~s_book ~c_buy ~c_book ~s_cancel>",
R"golden(cdeslog v3 2
0 0 ~s_buy 8965875166047814921
1 1131 ~s_book 9464986037209914875
2 3808 ~c_buy 9571422317106160840
3 4356 ~c_book 17731883994078505097
4 4357 ~s_cancel 6231302023036878810
checksum 10558047053332437120
)golden"},
{3, "<c_book s_book s_buy>",
R"golden(cdeslog v3 3
0 2 c_book 6549130761544304972
1 2755 s_book 14193761377754201376
2 4271 s_buy 8784240411914001955
checksum 17334844703144871683
)golden"},
{4, "<s_book s_buy c_book c_buy ~s_cancel>",
R"golden(cdeslog v3 4
0 1425 s_book 5930686611295119048
1 2489 s_buy 17479706486205715367
2 4129 c_book 15361659163582700252
3 5496 c_buy 16814959183704975878
4 6961 ~s_cancel 9110550420438432939
checksum 13500844750729589634
)golden"},
{5, "<s_book s_buy c_book s_cancel ~c_buy>",
R"golden(cdeslog v3 5
0 1111 s_book 11221643451439316864
1 2319 s_buy 5859094786728835375
2 4002 c_book 2777928217538540992
3 6953 s_cancel 9784999505136839165
4 8638 ~c_buy 17607213062838154256
checksum 13554185486602025563
)golden"},
{6, "<~s_buy ~s_book ~c_buy ~c_book ~s_cancel>",
R"golden(cdeslog v3 6
0 0 ~s_buy 8965875166047814921
1 1133 ~s_book 17157584527928255257
2 3540 ~c_buy 4358949846605788337
3 4025 ~c_book 10030244854487604510
4 4026 ~s_cancel 13613014553494302367
checksum 12714881538574438953
)golden"},
{7, "<c_book s_book s_buy>",
R"golden(cdeslog v3 7
0 2 c_book 6549130761544304972
1 2830 s_book 17432381993943813044
2 4488 s_buy 2784049619276061781
checksum 16010252730719817566
)golden"},
{8, "<s_book s_buy c_book c_buy ~s_cancel>",
R"golden(cdeslog v3 8
0 1580 s_book 9216720645596219566
1 2782 s_buy 6030971258099252055
2 3853 c_book 17292119414959781127
3 5362 c_buy 5391249238612889644
4 6769 ~s_cancel 14551062051589172529
checksum 13272775876334051394
)golden"},
{9, "<s_book s_buy c_book s_cancel ~c_buy>",
R"golden(cdeslog v3 9
0 1616 s_book 11642060389261101672
1 2659 s_buy 10663446712346290292
2 3791 c_book 1615344853099867038
3 6618 s_cancel 1724718255264542021
4 8281 ~c_buy 11703499909466792764
checksum 14179604224296400720
)golden"},
{10, "<~s_buy ~s_book ~c_book ~s_cancel ~c_buy>",
R"golden(cdeslog v3 10
0 0 ~s_buy 8965875166047814921
1 1154 ~s_book 9832502476594368634
2 3956 ~c_book 4861830485835325713
3 3957 ~s_cancel 8061431810202687956
4 4031 ~c_buy 18433016200108494087
checksum 415023144210024627
)golden"},
{11, "<c_book s_book s_buy>",
R"golden(cdeslog v3 11
0 2 c_book 6549130761544304972
1 2724 s_book 5538961407533336120
2 3928 s_buy 11926088450801758119
checksum 11354813658354607999
)golden"},
};

TEST(RenderGoldenTest, EngineTravelBatch) {
  auto spec = engine::EngineSpec::FromText(R"(
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
)");
  ASSERT_TRUE(spec.ok()) << spec.status();
  engine::EngineOptions opts;
  opts.shards = 2;
  opts.seed = 20261019;
  opts.jitter = 700;
  opts.durable_logs = true;
  engine::Engine eng(spec.value(), opts);
  for (size_t i = 0; i < std::size(kTravelBatch); ++i) {
    engine::InstanceScript script;
    switch (i % 4) {
      case 0:
        script.attempts = {"s_buy", "c_book", "c_buy"};
        break;
      case 1:
        script.attempts = {"s_buy", "c_book", "~c_buy"};
        break;
      case 2:
        script.attempts = {"~s_buy"};
        break;
      default:
        script.attempts = {"c_book", "s_buy"};
        script.close = false;
        break;
    }
    ASSERT_TRUE(eng.Submit(script).ok());
  }
  eng.Drain();
  std::vector<engine::InstanceResult> results = eng.TakeResults();
  std::sort(results.begin(), results.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  ASSERT_EQ(results.size(), std::size(kTravelBatch));
  for (size_t i = 0; i < results.size(); ++i) {
    const InstanceGolden& golden = kTravelBatch[i];
    ASSERT_EQ(results[i].id, golden.id);
    EXPECT_EQ(results[i].history, golden.history) << "instance " << golden.id;
    EXPECT_EQ(results[i].log_text, golden.log_text) << "instance " << golden.id;
  }
  eng.Stop();
}

}  // namespace
}  // namespace cdes
