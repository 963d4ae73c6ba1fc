#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <vector>

#include "common/varint.hpp"
#include "apps/access_log.hpp"
#include "apps/app_suite.hpp"
#include "apps/inverted_index.hpp"
#include "apps/pagerank.hpp"
#include "apps/syntext.hpp"
#include "apps/tokenizer.hpp"
#include "apps/wordcount.hpp"

namespace textmr::apps {
namespace {

class RecordingSink final : public mr::EmitSink {
 public:
  void emit(std::string_view key, std::string_view value) override {
    records.emplace_back(std::string(key), std::string(value));
  }
  std::vector<std::pair<std::string, std::string>> records;
};

std::vector<std::string> tokens_of(std::string_view line) {
  std::vector<std::string> out;
  std::string scratch;
  for_each_token(line, scratch, [&](std::string_view t) {
    out.emplace_back(t);
  });
  return out;
}

TEST(Tokenizer, SplitsAndLowercases) {
  EXPECT_EQ(tokens_of("Hello, World!"),
            (std::vector<std::string>{"hello", "world"}));
  EXPECT_EQ(tokens_of("  a  b  "), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(tokens_of(""), (std::vector<std::string>{}));
  EXPECT_EQ(tokens_of("...!!!"), (std::vector<std::string>{}));
  EXPECT_EQ(tokens_of("don't stop"),
            (std::vector<std::string>{"don", "t", "stop"}));
  EXPECT_EQ(tokens_of("abc123 42"),
            (std::vector<std::string>{"abc123", "42"}));
}

TEST(Tokenizer, FieldsSplitOnSeparator) {
  std::vector<std::string> fields;
  const std::size_t n =
      for_each_field("a|b||c", '|', [&](std::size_t, std::string_view f) {
        fields.emplace_back(f);
      });
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(fields, (std::vector<std::string>{"a", "b", "", "c"}));
}

TEST(WordCount, MapperEmitsOnePerToken) {
  WordCountMapper mapper;
  RecordingSink sink;
  mapper.map(0, "the cat and the hat", sink);
  ASSERT_EQ(sink.records.size(), 5u);
  EXPECT_EQ(sink.records[0].first, "the");
  std::size_t pos = 0;
  EXPECT_EQ(get_varint(sink.records[0].second, pos), 1u);
}

TEST(WordCount, CombinerAndReducerSum) {
  WordCountCombiner combiner;
  std::vector<std::string> values;
  for (const std::uint64_t v : {3ull, 4ull, 5ull}) {
    std::string s;
    put_varint(s, v);
    values.push_back(s);
  }
  mr::VectorValueStream<std::vector<std::string>> stream(values);
  RecordingSink sink;
  combiner.reduce("word", stream, sink);
  ASSERT_EQ(sink.records.size(), 1u);
  std::size_t pos = 0;
  EXPECT_EQ(get_varint(sink.records[0].second, pos), 12u);

  mr::VectorValueStream<std::vector<std::string>> stream2(values);
  RecordingSink sink2;
  WordCountReducer reducer;
  reducer.reduce("word", stream2, sink2);
  EXPECT_EQ(sink2.records[0].second, "12");
}

TEST(Postings, EncodeDecodeRoundTrip) {
  const std::vector<std::uint64_t> locations = {3, 17, 17, 400, 1ull << 45};
  std::string encoded;
  postings::encode(encoded, locations);
  std::vector<std::uint64_t> decoded;
  postings::decode_into(encoded, decoded);
  EXPECT_EQ(decoded, locations);
}

TEST(Postings, LocationPacksTaskAndOrdinal) {
  const std::uint64_t loc = postings::make_location(7, 123456);
  EXPECT_EQ(loc >> 40, 7u);
  EXPECT_EQ(loc & ((1ull << 40) - 1), 123456u);
}

TEST(InvertedIndex, MapperUsesTaskAndOffset) {
  InvertedIndexMapper mapper;
  mapper.begin_task(mr::TaskInfo{3});
  RecordingSink sink;
  mapper.map(9, "hello hello", sink);
  ASSERT_EQ(sink.records.size(), 2u);
  std::vector<std::uint64_t> locations;
  postings::decode_into(sink.records[0].second, locations);
  ASSERT_EQ(locations.size(), 1u);
  EXPECT_EQ(locations[0], postings::make_location(3, 9));
}

TEST(InvertedIndex, CombinerMergesAndSorts) {
  InvertedIndexCombiner combiner;
  std::vector<std::string> values(2);
  postings::encode(values[0], {50, 100});
  postings::encode(values[1], {10, 75});
  mr::VectorValueStream<std::vector<std::string>> stream(values);
  RecordingSink sink;
  combiner.reduce("w", stream, sink);
  ASSERT_EQ(sink.records.size(), 1u);
  std::vector<std::uint64_t> merged;
  postings::decode_into(sink.records[0].second, merged);
  EXPECT_EQ(merged, (std::vector<std::uint64_t>{10, 50, 75, 100}));
}

TEST(AccessLog, ParsesValidVisit) {
  const auto visit = parse_user_visit(
      "1.2.3.4|http://u.example.com/p.html|2008-3-4|123.45|Mozilla/5.0|USA|"
      "en|map|37");
  ASSERT_TRUE(visit.has_value());
  EXPECT_EQ(visit->source_ip, "1.2.3.4");
  EXPECT_EQ(visit->dest_url, "http://u.example.com/p.html");
  EXPECT_EQ(visit->ad_revenue_cents, 12345u);
}

TEST(AccessLog, RejectsMalformedVisits) {
  EXPECT_FALSE(parse_user_visit("").has_value());
  EXPECT_FALSE(parse_user_visit("a|b|c").has_value());
  EXPECT_FALSE(
      parse_user_visit("ip|url|d|notanumber|ua|c|l|s|1").has_value());
  EXPECT_FALSE(parse_user_visit("too|few|fields|here").has_value());
}

TEST(AccessLog, ParsesRanking) {
  const auto ranking = parse_ranking("http://u.example.com|42|300");
  ASSERT_TRUE(ranking.has_value());
  EXPECT_EQ(ranking->page_url, "http://u.example.com");
  EXPECT_EQ(ranking->page_rank, 42u);
  EXPECT_FALSE(parse_ranking("only|two").has_value());
}

TEST(AccessLog, RevenueParsingHandlesCents) {
  EXPECT_EQ(parse_user_visit("i|u|d|0.01|a|c|l|s|1")->ad_revenue_cents, 1u);
  EXPECT_EQ(parse_user_visit("i|u|d|10|a|c|l|s|1")->ad_revenue_cents, 1000u);
  EXPECT_EQ(parse_user_visit("i|u|d|1.5|a|c|l|s|1")->ad_revenue_cents, 150u);
}

TEST(AccessLogJoin, MapperTagsBothInputs) {
  AccessLogJoinMapper mapper;
  RecordingSink sink;
  mapper.map(0, "1.1.1.1|http://x.com|2008-1-1|5.00|ua|US|en|q|10", sink);
  mapper.map(1, "http://x.com|77|60", sink);
  ASSERT_EQ(sink.records.size(), 2u);
  EXPECT_EQ(sink.records[0].first, "http://x.com");
  EXPECT_EQ(sink.records[0].second[0], 'V');
  EXPECT_EQ(sink.records[1].first, "http://x.com");
  EXPECT_EQ(sink.records[1].second[0], 'R');
}

TEST(AccessLogJoin, ReducerJoinsRegardlessOfValueOrder) {
  AccessLogJoinMapper mapper;
  for (const bool rank_first : {true, false}) {
    RecordingSink mapped;
    mapper.map(0, "9.9.9.9|http://x.com|2008-1-1|2.50|ua|US|en|q|10", mapped);
    mapper.map(1, "http://x.com|77|60", mapped);
    std::vector<std::string> values;
    if (rank_first) {
      values = {mapped.records[1].second, mapped.records[0].second};
    } else {
      values = {mapped.records[0].second, mapped.records[1].second};
    }
    mr::VectorValueStream<std::vector<std::string>> stream(values);
    RecordingSink joined;
    AccessLogJoinReducer reducer;
    reducer.reduce("http://x.com", stream, joined);
    ASSERT_EQ(joined.records.size(), 1u) << rank_first;
    EXPECT_EQ(joined.records[0].first, "9.9.9.9");
    EXPECT_EQ(joined.records[0].second, "2.50|77");
  }
}

TEST(AccessLogJoin, VisitsWithoutRankingAreDropped) {
  std::vector<std::string> values = {"V1.1.1.1|\x05"};  // visit only
  mr::VectorValueStream<std::vector<std::string>> stream(values);
  RecordingSink sink;
  AccessLogJoinReducer reducer;
  reducer.reduce("http://orphan.com", stream, sink);
  EXPECT_TRUE(sink.records.empty());
}

TEST(PageRank, MapperSplitsRankAcrossLinks) {
  PageRankMapper mapper;
  RecordingSink sink;
  mapper.map(0, "www.a.org\t1.000000\twww.b.org,www.c.org", sink);
  ASSERT_EQ(sink.records.size(), 3u);
  EXPECT_EQ(sink.records[0].first, "www.a.org");
  EXPECT_EQ(sink.records[0].second, "Gwww.b.org,www.c.org");
  EXPECT_EQ(sink.records[1].first, "www.b.org");
  EXPECT_EQ(sink.records[1].second.substr(0, 1), "R");
  EXPECT_NEAR(std::stod(sink.records[1].second.substr(1)), 0.5, 1e-6);
}

TEST(PageRank, CombinerSumsSharesAndForwardsGraph) {
  PageRankCombiner combiner;
  std::vector<std::string> values = {"R0.250000", "Glinks,here", "R0.125000"};
  mr::VectorValueStream<std::vector<std::string>> stream(values);
  RecordingSink sink;
  combiner.reduce("www.x.org", stream, sink);
  ASSERT_EQ(sink.records.size(), 2u);
  EXPECT_EQ(sink.records[0].second, "Glinks,here");
  EXPECT_NEAR(std::stod(sink.records[1].second.substr(1)), 0.375, 1e-6);
}

TEST(PageRank, ReducerAppliesDamping) {
  PageRankReducer reducer;
  std::vector<std::string> values = {"R1.000000", "Gwww.y.org"};
  mr::VectorValueStream<std::vector<std::string>> stream(values);
  RecordingSink sink;
  reducer.reduce("www.x.org", stream, sink);
  ASSERT_EQ(sink.records.size(), 1u);
  const auto& out = sink.records[0].second;
  const auto tab = out.find('\t');
  EXPECT_NEAR(std::stod(out.substr(0, tab)), 0.15 + 0.85 * 1.0, 1e-6);
  EXPECT_EQ(out.substr(tab + 1), "www.y.org");
}

TEST(PageRank, DanglingTargetGetsEmptyAdjacency) {
  PageRankReducer reducer;
  std::vector<std::string> values = {"R0.500000"};
  mr::VectorValueStream<std::vector<std::string>> stream(values);
  RecordingSink sink;
  reducer.reduce("www.only-linked.org", stream, sink);
  ASSERT_EQ(sink.records.size(), 1u);
  const auto& out = sink.records[0].second;
  EXPECT_EQ(out.back(), '\t');  // rank followed by empty link list
}

TEST(SynText, CombineOutputSizeTracksStorageIntensity) {
  for (const double sigma : {0.0, 0.5, 1.0}) {
    SynTextParams params;
    params.storage_intensity = sigma;
    params.base_value_bytes = 10;
    SynTextCombiner combiner(params);
    std::vector<std::string> values = {std::string(10, 'a'),
                                       std::string(10, 'b'),
                                       std::string(10, 'c')};
    mr::VectorValueStream<std::vector<std::string>> stream(values);
    RecordingSink sink;
    combiner.reduce("k", stream, sink);
    ASSERT_EQ(sink.records.size(), 1u);
    const std::size_t expected =
        10 + static_cast<std::size_t>(sigma * (30 - 10));
    EXPECT_EQ(sink.records[0].second.size(), expected) << sigma;
  }
}

TEST(SynText, MapperRespectsValueSize) {
  SynTextParams params;
  params.base_value_bytes = 24;
  SynTextMapper mapper(params);
  RecordingSink sink;
  mapper.map(0, "one two", sink);
  ASSERT_EQ(sink.records.size(), 2u);
  EXPECT_EQ(sink.records[0].second.size(), 24u);
  EXPECT_EQ(sink.records[1].second.size(), 24u);
}

TEST(SynText, MapperIsDeterministic) {
  SynTextParams params;
  params.cpu_intensity = 2.0;
  SynTextMapper a(params);
  SynTextMapper b(params);
  RecordingSink sa;
  RecordingSink sb;
  a.map(0, "same input line", sa);
  b.map(0, "same input line", sb);
  EXPECT_EQ(sa.records, sb.records);
}

TEST(AppRegistry, EveryEntryResolvesByNameAndLowerCaseName) {
  const std::vector<AppBundle> registry = single_job_apps();
  ASSERT_EQ(registry.size(), 8u);
  for (const AppBundle& app : registry) {
    std::string lower = app.name;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    for (const std::string& name : {app.name, lower}) {
      const auto found = find_app(name);
      ASSERT_TRUE(found.has_value()) << name;
      EXPECT_EQ(found->name, app.name);
      EXPECT_TRUE(static_cast<bool>(found->mapper)) << name;
      EXPECT_TRUE(static_cast<bool>(found->reducer)) << name;
    }
  }
  // The CLI's spellings, including the two apps it used to miss.
  for (const char* name :
       {"wordcount", "invertedindex", "wordpostag", "accesslogsum",
        "accesslogjoin", "pagerank", "accesslogjoinsorted", "sessionize"}) {
    EXPECT_TRUE(find_app(name).has_value()) << name;
  }
  EXPECT_FALSE(find_app("nosuchapp").has_value());
  EXPECT_FALSE(find_app("wordcoun").has_value());
}

}  // namespace
}  // namespace textmr::apps
