// `score`: translation scoring on the GPU backend (the paper's EN2DE,
// Fig. 14(c)).
//
// One long-lived session with the scaled 8 MB device scores sentences of
// about 20 words through EN2DE's function-level reuse: each word's 4-layer
// scorer runs on the GPU unless the per-word prediction is cached. Words
// follow the Zipf stream, plus about one word in ten that never repeats
// (names, numbers) and is embedded through a hashed out-of-vocabulary
// bucket, so the device keeps recycling pointers instead of idling once
// the vocabulary is cached. One op is one sentence. Single-threaded.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/system.h"
#include "matrix/kernels.h"
#include "workload.h"
#include "workloads/datasets.h"
#include "workloads/dnn.h"
#include "workloads/pipelines.h"

namespace perfbench {
namespace {

using memphis::ExecutionContext;
using memphis::MatrixPtr;
using memphis::MemphisSystem;
using memphis::SystemConfig;
namespace wl = memphis::workloads;

constexpr size_t kVocab = 4000;
constexpr size_t kVocabOut = 2000;
constexpr size_t kDims = 300;
constexpr size_t kOovBuckets = 1000;
constexpr double kOovRate = 0.1;
constexpr int kMinWords = 16;
constexpr int kMaxWords = 24;
constexpr size_t kSentences = 4096;  // Pre-generated cycle of sentences.
constexpr int kReferenceChunk = 500;
/// Warm-up length: over seeds 1-5 the cost-model seconds per sentence stop
/// falling (under 2% per 256-sentence window) after 1280-2304 sentences.
/// A fixed count keeps set-up work equal across seeds; the run record
/// carries the last window's change.
constexpr int kWarmWindow = 256;
constexpr int kWarmWindows = 8;
constexpr int64_t kSimWindow = 2048;

struct Word {
  int vocab = -1;   // Vocabulary row, or -1 for a word that never repeats.
  int bucket = 0;   // Out-of-vocabulary embedding row of a one-off word.
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

memphis::compiler::HopPtr OnGpu(memphis::compiler::HopPtr hop) {
  hop->ForceBackend(memphis::Backend::kGpu);
  return hop;
}

/// EN2DE's scorer (workloads::BuildTranslationScorer) with the final
/// per-word argmax kept on the host. Caching the device-resident argmax
/// under the function key returns wrong indices once its 8-byte device
/// buffer is recycled for a later word, so the function cache here holds
/// the host value; the four layers and the softmax stay on the GPU.
wl::BasicBlockPtr BuildScorer() {
  auto block = memphis::compiler::MakeBasicBlock();
  memphis::compiler::HopDag& dag = block->dag();
  memphis::compiler::HopPtr current = dag.Read("emb");
  for (int i = 1; i <= 4; ++i) {
    current = OnGpu(
        dag.Op("matmult", {current, dag.Read("tr.w" + std::to_string(i))}));
    if (i < 4) current = OnGpu(dag.Op("relu", {current}));
  }
  memphis::compiler::HopPtr probs = OnGpu(dag.Op("softmax", {current}));
  dag.Write("scores", probs);
  memphis::compiler::HopPtr best = dag.Op("rowIndexMax", {probs});
  best->ForceBackend(memphis::Backend::kCP);
  dag.Write("best", best);
  return block;
}

SystemConfig ScoreConfig() {
  SystemConfig config = wl::MakeConfig(wl::Baseline::kMemphis);
  config.gpu_memory = 8ull << 30;  // Scaled to 8 MB, as in EN2DE.
  config.cp_threads = 1;
  return config;
}

class ScoreWorkload : public Workload {
 public:
  void Setup(const Options& options, SpanLog* log) override {
    smoke_ = options.smoke;
    system_.reset();
    memphis::Rng rng(options.seed);
    {
      ScopedSpan span(log, "setup.inputs");
      const Clock::time_point start = Clock::now();
      embeddings_ = wl::WordEmbeddings(kVocab, kDims, options.seed);
      oov_ = memphis::kernels::RandGaussian(kOovBuckets, kDims,
                                            options.seed + 3);
      sentences_.assign(kSentences, {});
      std::vector<int> lengths(kSentences);
      size_t total = 0;
      for (int& length : lengths) {
        length = kMinWords +
                 static_cast<int>(rng.NextInt(kMaxWords - kMinWords + 1));
        total += static_cast<size_t>(length);
      }
      const std::vector<int> stream =
          wl::Wmt14WordStream(total, kVocab, options.seed + 2);
      size_t next = 0;
      for (size_t s = 0; s < kSentences; ++s) {
        for (int w = 0; w < lengths[s]; ++w) {
          Word word;
          if (rng.NextDouble() < kOovRate) {
            word.bucket = static_cast<int>(rng.NextInt(kOovBuckets));
          } else {
            word.vocab = stream[next];
          }
          ++next;
          sentences_[s].push_back(word);
        }
      }
      input_gen_s_ = SecondsSince(start);
    }
    {
      ScopedSpan span(log, "setup.reference");
      ComputeReference(options.seed);
    }

    system_ = std::make_unique<MemphisSystem>(ScoreConfig());
    ExecutionContext& ctx = system_->ctx();
    wl::BindTranslationWeights(ctx, kDims, kVocabOut, "tr", options.seed + 1);
    for (int i = 1; i <= 4; ++i) ctx.UploadToGpu("tr.w" + std::to_string(i));
    scorer_ = BuildScorer();
    next_sentence_ = 0;
    {
      ScopedSpan span(log, "setup.warmup");
      const int window = smoke_ ? 16 : kWarmWindow;
      const int windows = smoke_ ? 1 : kWarmWindows;
      double previous = 0.0;
      for (int w = 0; w < windows; ++w) {
        double sim = 0.0;
        for (int s = 0; s < window; ++s) {
          OpRecord record;
          ScoreSentence(nullptr, -1, &record);
          MEMPHIS_CHECK_MSG(record.correct,
                            "score warm-up differs from the reference");
          sim += record.sim_s;
        }
        const double mean = sim / window;
        warm_last_change_ = previous > 0 ? mean / previous - 1.0 : 0.0;
        previous = mean;
      }
    }
  }

  void RunTimed(Clock::time_point deadline, int64_t min_ops, SpanLog* log,
                HostCanary* canary, std::vector<OpRecord>* ops) override {
    for (int64_t i = 0;; ++i) {
      if (i >= min_ops && Clock::now() >= deadline) break;
      if (canary->Due()) canary->Measure();
      log->Tick();
      OpRecord record;
      const Clock::time_point start = Clock::now();
      record.start = start;
      const int op_span = log->Begin("score.sentence", -1, i);
      try {
        ScoreSentence(log, op_span, &record);
        record.completed = true;
      } catch (const memphis::MemphisError& e) {
        std::fprintf(stderr, "score sentence %lld failed: %s\n",
                     static_cast<long long>(i), e.what());
      }
      log->End(op_span);
      record.latency_ms = MillisSince(start);
      ops->push_back(record);
      log->CountOp();
    }
  }

  Counters SnapshotCounters() override {
    Counters counters = GlobalLayerCounters();
    Accumulate(Snapshot(system_->ctx().metrics()), &counters);
    return counters;
  }

  void LayerMetrics(const Counters& /*delta*/, int64_t /*ops*/, SpanLog* log,
                    Report* report) override {
    const auto summary = log->Summarize();
    auto it = summary.find("runtime.run");
    report->Add("runtime.run_us",
                it == summary.end() ? 0.0 : it->second.p50_us, "us");
  }

  std::string ShapeGuard(const Counters& delta, int64_t /*ops*/) override {
    if (Get(delta, "gpu0.kernels") <= 0) return "no GPU kernel ran";
    if (Get(delta, "gpucache0.recycled_exact") <= 0) {
      return "no GPU pointer was recycled";
    }
    return "";
  }

  int64_t SimWindow() const override { return smoke_ ? 8 : kSimWindow; }
  int64_t MinOps() const override { return SimWindow(); }
  double InputGenSeconds() const override { return input_gen_s_; }

  std::string RecordJson() const override {
    return "\"warmup_sentences\": " +
           std::to_string(smoke_ ? 16 : kWarmWindow * kWarmWindows) +
           ", \"warmup_last_window_change\": " + JsonNumber(warm_last_change_);
  }
  void Teardown() override { system_.reset(); }

 private:
  /// Per-word best index with reuse off, for every vocabulary row and every
  /// out-of-vocabulary bucket. Rows are scored in batches: each output row
  /// depends only on its input row, in the same arithmetic order.
  void ComputeReference(uint64_t seed) {
    SystemConfig config = wl::MakeConfig(wl::Baseline::kBase);
    config.enable_gpu = false;
    config.cp_threads = SetupThreads();
    MemphisSystem reference(config);
    ExecutionContext& ctx = reference.ctx();
    wl::BindTranslationWeights(ctx, kDims, kVocabOut, "tr", seed + 1);
    auto block = wl::BuildTranslationScorer(kDims, kVocabOut, "tr",
                                            /*force_gpu=*/false);
    auto score_rows = [&](const MatrixPtr& table, std::vector<double>* out) {
      out->assign(table->rows(), 0.0);
      for (size_t lo = 0; lo < table->rows(); lo += kReferenceChunk) {
        const size_t hi = std::min(table->rows(), lo + kReferenceChunk);
        ctx.BindMatrix("emb", memphis::kernels::Slice(*table, lo, hi, 0, kDims));
        reference.Run(*block);
        const MatrixPtr best = ctx.FetchMatrix("best");
        for (size_t r = lo; r < hi; ++r) (*out)[r] = best->At(r - lo, 0);
      }
    };
    score_rows(embeddings_, &reference_vocab_);
    score_rows(oov_, &reference_oov_);
  }

  /// Scores the next sentence of the cycle; a one-off word's identity is
  /// unique to this session.
  void ScoreSentence(SpanLog* log, int op_span, OpRecord* record) {
    SpanLog idle;
    if (log == nullptr) log = &idle;
    ExecutionContext& ctx = system_->ctx();
    const int64_t index = next_sentence_++;
    const std::vector<Word>& sentence =
        sentences_[static_cast<size_t>(index) % kSentences];
    const double sim_before = system_->ElapsedSeconds();
    bool correct = true;
    for (size_t w = 0; w < sentence.size(); ++w) {
      const Word& word = sentence[w];
      {
        ScopedSpan span(log, "runtime.bind", op_span);
        if (word.vocab >= 0) {
          ctx.BindMatrixWithId(
              "emb",
              memphis::kernels::Slice(*embeddings_, word.vocab, word.vocab + 1,
                                      0, kDims),
              "word:" + std::to_string(word.vocab));
        } else {
          ctx.BindMatrixWithId(
              "emb",
              memphis::kernels::Slice(*oov_, word.bucket, word.bucket + 1, 0,
                                      kDims),
              "oov:" + std::to_string(index) + ":" + std::to_string(w));
        }
      }
      {
        ScopedSpan span(log, "runtime.run", op_span);
        system_->CallFunction("score", {"emb"}, {"best"},
                              [&] { system_->Run(*scorer_); });
      }
      const double best = ctx.FetchScalar("best");
      const double expected =
          word.vocab >= 0 ? reference_vocab_[static_cast<size_t>(word.vocab)]
                          : reference_oov_[static_cast<size_t>(word.bucket)];
      if (!SameBits(best, expected)) {
        correct = false;
        if (mismatches_++ < 5) {
          std::fprintf(stderr,
                       "score: sentence %lld word %zu (%s %d): best %.17g, "
                       "reference %.17g\n",
                       static_cast<long long>(index), w,
                       word.vocab >= 0 ? "vocab" : "oov bucket",
                       word.vocab >= 0 ? word.vocab : word.bucket, best,
                       expected);
        }
      }
    }
    record->sim_s = system_->ElapsedSeconds() - sim_before;
    record->correct = correct;
  }

  bool smoke_ = false;
  MatrixPtr embeddings_;
  MatrixPtr oov_;
  std::vector<std::vector<Word>> sentences_;
  std::vector<double> reference_vocab_;
  std::vector<double> reference_oov_;
  std::unique_ptr<MemphisSystem> system_;
  wl::BasicBlockPtr scorer_;
  int64_t next_sentence_ = 0;
  int64_t mismatches_ = 0;
  double warm_last_change_ = 0.0;
  double input_gen_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeScore() {
  return std::make_unique<ScoreWorkload>();
}

}  // namespace perfbench
