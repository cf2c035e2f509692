#include "workload/trace_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "workload/stream_gen.h"
#include "workload/synthetic_corpus.h"

namespace ps2 {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // One file per case and process: ctest runs the cases as parallel
  // processes, which would otherwise race on a shared path.
  std::string path_ =
      ::testing::TempDir() + "/ps2_trace_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(getpid()) + ".bin";
};

TEST_F(TraceIoTest, RoundTripStream) {
  Vocabulary vocab;
  SyntheticCorpus corpus(CorpusConfig::UkPreset(), &vocab);
  QueryGenConfig qcfg;
  QueryGenerator qgen(qcfg, &corpus);
  StreamConfig scfg;
  scfg.num_objects = 500;
  scfg.mu = 100;
  const GeneratedStream g = GenerateStream(corpus, qgen, scfg);

  ASSERT_TRUE(WriteTrace(path_, vocab, g.stream));

  Vocabulary vocab2;
  std::vector<StreamTuple> loaded;
  ASSERT_TRUE(ReadTrace(path_, vocab2, &loaded));
  ASSERT_EQ(loaded.size(), g.stream.size());
  for (size_t i = 0; i < loaded.size(); ++i) {
    const StreamTuple& a = g.stream[i];
    const StreamTuple& b = loaded[i];
    ASSERT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.event_time_us, b.event_time_us);
    if (a.kind == TupleKind::kObject) {
      EXPECT_EQ(a.object.id, b.object.id);
      EXPECT_EQ(a.object.loc, b.object.loc);
      // Term ids match because vocab2 interned in file order and the file
      // was written from a densely-built vocabulary.
      ASSERT_EQ(a.object.terms.size(), b.object.terms.size());
      for (size_t t = 0; t < a.object.terms.size(); ++t) {
        EXPECT_EQ(vocab.TermString(a.object.terms[t]),
                  vocab2.TermString(b.object.terms[t]));
      }
    } else {
      EXPECT_EQ(a.query.id, b.query.id);
      EXPECT_EQ(a.query.region, b.query.region);
      EXPECT_EQ(a.query.expr.clauses().size(), b.query.expr.clauses().size());
    }
  }
}

TEST_F(TraceIoTest, RoundTripIntoPrepopulatedVocabularyRemaps) {
  Vocabulary vocab;
  const TermId a = vocab.Intern("alpha");
  const TermId b = vocab.Intern("beta");
  std::vector<StreamTuple> tuples;
  tuples.push_back(StreamTuple::OfObject(
      SpatioTextualObject::FromTerms(1, Point{1, 2}, {a, b})));
  ASSERT_TRUE(WriteTrace(path_, vocab, tuples));

  // Target vocabulary already has other terms: ids must remap.
  Vocabulary vocab2;
  vocab2.Intern("zzz");
  vocab2.Intern("beta");  // pre-existing shared term
  std::vector<StreamTuple> loaded;
  ASSERT_TRUE(ReadTrace(path_, vocab2, &loaded));
  ASSERT_EQ(loaded.size(), 1u);
  const auto& terms = loaded[0].object.terms;
  ASSERT_EQ(terms.size(), 2u);
  std::vector<std::string> names;
  for (const TermId t : terms) names.push_back(vocab2.TermString(t));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "beta"}));
}

TEST_F(TraceIoTest, SampleRoundTrip) {
  Vocabulary vocab;
  WorkloadSample s;
  const TermId t = vocab.Intern("x");
  s.objects.push_back(SpatioTextualObject::FromTerms(1, Point{3, 4}, {t}));
  STSQuery q;
  q.id = 9;
  q.expr = BoolExpr::Or({t});
  q.region = Rect(0, 0, 5, 5);
  s.inserts.push_back(q);
  s.deletes.push_back(q);
  ASSERT_TRUE(WriteSample(path_, vocab, s));

  Vocabulary vocab2;
  WorkloadSample loaded;
  ASSERT_TRUE(ReadSample(path_, vocab2, &loaded));
  EXPECT_EQ(loaded.objects.size(), 1u);
  EXPECT_EQ(loaded.inserts.size(), 1u);
  EXPECT_EQ(loaded.deletes.size(), 1u);
  EXPECT_EQ(loaded.inserts[0].region, q.region);
}

TEST_F(TraceIoTest, MissingFileFails) {
  Vocabulary vocab;
  std::vector<StreamTuple> out;
  EXPECT_FALSE(ReadTrace("/nonexistent/path/trace.bin", vocab, &out));
}

TEST_F(TraceIoTest, CorruptMagicFails) {
  FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("JUNKJUNKJUNK", 1, 12, f);
  std::fclose(f);
  Vocabulary vocab;
  std::vector<StreamTuple> out;
  EXPECT_FALSE(ReadTrace(path_, vocab, &out));
}

// Bit-flipped length/count fields must fail cleanly — the declared counts
// are sanity-capped against the file size before any resize/reserve, so a
// corrupt header cannot drive a multi-GB allocation attempt.
class TraceIoCorruptionTest : public TraceIoTest {
 protected:
  // Writes one object tuple (1 term) and one insert-query tuple.
  void WriteSmallTrace() {
    Vocabulary vocab;
    const TermId t = vocab.Intern("t");
    std::vector<StreamTuple> tuples;
    tuples.push_back(StreamTuple::OfObject(
        SpatioTextualObject::FromTerms(1, Point{0, 0}, {t})));
    STSQuery q;
    q.id = 2;
    q.expr = BoolExpr::And({t});
    q.region = Rect(0, 0, 1, 1);
    tuples.push_back(StreamTuple::OfInsert(q));
    ASSERT_TRUE(WriteTrace(path_, vocab, tuples));
  }

  void CorruptU32At(long offset, uint32_t value) {
    FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, offset, SEEK_SET);
    std::fwrite(&value, sizeof(value), 1, f);
    std::fclose(f);
  }

  bool Read() {
    Vocabulary vocab;
    std::vector<StreamTuple> out;
    return ReadTrace(path_, vocab, &out);
  }

  // File layout offsets of the small trace (see trace_io.h):
  //   0 magic, 4 version, 8 #terms (u64), 16 #tuples (u64)
  //   24 term "t": u32 len + 1 byte                       -> tuple 0 at 29
  //   29 object: u8 kind, i64 time, u64 id, f64 x, f64 y  -> #terms at 62
  //   66 term[0]                                          -> tuple 1 at 70
  //   70 query: u8 kind, i64 time, u64 id, 4x f64 region  -> #clauses at 119
  //   123 clause 0: u32 #terms (at 123), u32 term
  static constexpr long kNumTermsOffset = 8;
  static constexpr long kNumTuplesOffset = 16;
  static constexpr long kTermLenOffset = 24;
  static constexpr long kObjectTermCountOffset = 62;
  static constexpr long kClauseCountOffset = 119;
  static constexpr long kClauseTermCountOffset = 123;
};

TEST_F(TraceIoCorruptionTest, FlippedVocabularyCountFails) {
  WriteSmallTrace();
  CorruptU32At(kNumTermsOffset, 0xFFFFFFFFu);  // ~4G declared terms
  EXPECT_FALSE(Read());
}

TEST_F(TraceIoCorruptionTest, FlippedTupleCountFails) {
  WriteSmallTrace();
  CorruptU32At(kNumTuplesOffset, 0x7FFFFFFFu);
  EXPECT_FALSE(Read());
}

TEST_F(TraceIoCorruptionTest, FlippedTermLengthFails) {
  WriteSmallTrace();
  CorruptU32At(kTermLenOffset, 0x40000000u);
  EXPECT_FALSE(Read());
}

TEST_F(TraceIoCorruptionTest, FlippedObjectTermCountFails) {
  WriteSmallTrace();
  CorruptU32At(kObjectTermCountOffset, 0x00FFFFFFu);
  EXPECT_FALSE(Read());
}

TEST_F(TraceIoCorruptionTest, FlippedClauseCountFails) {
  WriteSmallTrace();
  CorruptU32At(kClauseCountOffset, 0xEFFFFFFFu);
  EXPECT_FALSE(Read());
}

TEST_F(TraceIoCorruptionTest, FlippedClauseTermCountFails) {
  WriteSmallTrace();
  CorruptU32At(kClauseTermCountOffset, 0xEFFFFFFFu);
  EXPECT_FALSE(Read());
}

TEST_F(TraceIoCorruptionTest, EveryFlippedBytePositionFailsOrRoundTrips) {
  // Sweep: flipping any single byte must either still parse (payload-only
  // damage) or fail cleanly — never crash or over-allocate.
  WriteSmallTrace();
  std::string original;
  {
    FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      original.append(buf, n);
    }
    std::fclose(f);
  }
  for (size_t i = 0; i < original.size(); ++i) {
    std::string corrupted = original;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0xFF);
    FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(corrupted.data(), 1, corrupted.size(), f);
    std::fclose(f);
    Read();  // must terminate without crashing; result may be either way
  }
}

TEST_F(TraceIoTest, TruncatedFileFails) {
  Vocabulary vocab;
  std::vector<StreamTuple> tuples;
  tuples.push_back(StreamTuple::OfObject(SpatioTextualObject::FromTerms(
      1, Point{0, 0}, {vocab.Intern("t")})));
  ASSERT_TRUE(WriteTrace(path_, vocab, tuples));
  // Truncate: keep only the first 16 bytes.
  {
    FILE* f = std::fopen(path_.c_str(), "rb");
    char buf[16];
    ASSERT_EQ(std::fread(buf, 1, 16, f), 16u);
    std::fclose(f);
    f = std::fopen(path_.c_str(), "wb");
    std::fwrite(buf, 1, 16, f);
    std::fclose(f);
  }
  Vocabulary vocab2;
  std::vector<StreamTuple> out;
  EXPECT_FALSE(ReadTrace(path_, vocab2, &out));
}

}  // namespace
}  // namespace ps2
