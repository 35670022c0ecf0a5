// Fault-injection and budget-exhaustion suite (ctest label: robustness).
//
// Three families of tests:
//  - Budget semantics: quotas admit exactly their work, deadlines trip,
//    exhaustion latches, and every budgeted entry point returns
//    kResourceExhausted (never crashes or hangs) on a zero budget.
//  - Self-healing trainers: poisoned options force SGNS / PV-DBOW / TransE /
//    RESCAL to diverge deterministically; recovery must heal the run
//    (finite final parameters) and, when back-off is disabled, give up with
//    kInternal after max_retries.
//  - FaultInjectingRng: a scripted Rng subclass feeding degenerate bit
//    streams into the randomised pipelines, which must stay well-defined.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/rng.h"
#include "base/status.h"
#include "embed/corpus.h"
#include "embed/graph2vec.h"
#include "embed/node_embeddings.h"
#include "embed/sgns.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/isomorphism.h"
#include "hom/brute_force.h"
#include "hom/treewidth.h"
#include "kg/knowledge_graph.h"
#include "kg/rescal.h"
#include "kg/transe.h"
#include "linalg/health.h"
#include "linalg/kernels.h"
#include "linalg/kernels_backend.h"
#include "linalg/matrix.h"
#include "wl/kwl.h"

namespace x2vec {
namespace {

// ---------------------------------------------------------------------------
// Fault-injection Rng: forwards the first `healthy_draws` to the real
// engine, then replays a fixed degenerate cycle. The cycle contains 0 so
// rejection-sampling distributions (uniform_int_distribution) always
// terminate.
class FaultInjectingRng : public Rng {
 public:
  explicit FaultInjectingRng(uint64_t seed, int64_t healthy_draws)
      : Rng(seed), healthy_draws_(healthy_draws) {}

  result_type operator()() override {
    if (draws_++ < healthy_draws_) return engine_();
    static constexpr result_type kCycle[] = {0, Rng::max(), Rng::max() / 2};
    return kCycle[static_cast<size_t>(draws_) % 3];
  }

  int64_t draws() const { return draws_; }

 private:
  int64_t healthy_draws_ = 0;
  int64_t draws_ = 0;
};

// ---------------------------------------------------------------------------
// Shared fixtures.

embed::Corpus SmallCorpus() {
  return embed::Corpus::FromSentences({
      {"the", "cat", "sat", "on", "the", "mat"},
      {"the", "dog", "sat", "on", "the", "rug"},
      {"a", "cat", "and", "a", "dog"},
  });
}

kg::KnowledgeGraph SmallKg() {
  kg::KnowledgeGraph kg;
  kg.AddFact("alice", "knows", "bob");
  kg.AddFact("bob", "knows", "carol");
  kg.AddFact("carol", "knows", "alice");
  kg.AddFact("alice", "likes", "carol");
  kg.AddFact("bob", "likes", "alice");
  return kg;
}

// Poisoned SGNS options: a huge learning rate with clipping disabled
// (clip_norm far above anything reachable) drives the context rows past
// RecoveryPolicy::max_abs within the first epoch, deterministically.
embed::SgnsOptions PoisonedSgnsOptions() {
  embed::SgnsOptions options;
  options.dimension = 8;
  options.epochs = 2;
  options.learning_rate = 1e12;
  options.recovery.clip_norm = 1e300;  // Disable the gradient clip.
  return options;
}

kg::TransEOptions PoisonedTransEOptions() {
  kg::TransEOptions options;
  options.dimension = 8;
  options.epochs = 3;
  options.learning_rate = 1e10;
  options.recovery.clip_norm = 1e300;  // Disable the step clip.
  return options;
}

kg::RescalOptions PoisonedRescalOptions() {
  kg::RescalOptions options;
  options.dimension = 4;
  options.epochs = 6;
  options.learning_rate = 1e6;  // Full-batch steps amplify geometrically.
  return options;
}

// ---------------------------------------------------------------------------
// Budget semantics.

TEST(BudgetTest, UnlimitedNeverExhausts) {
  Budget budget;
  EXPECT_FALSE(budget.limited());
  EXPECT_FALSE(budget.Exhausted());
  EXPECT_TRUE(budget.Spend(1'000'000'000));
  EXPECT_TRUE(budget.Spend());
  EXPECT_FALSE(budget.Exhausted());
}

TEST(BudgetTest, WorkQuotaAdmitsExactlyItsUnits) {
  Budget budget = Budget::WorkUnits(3);
  EXPECT_TRUE(budget.limited());
  EXPECT_FALSE(budget.Exhausted());
  EXPECT_TRUE(budget.Spend(1));
  EXPECT_TRUE(budget.Spend(1));
  EXPECT_TRUE(budget.Spend(1));
  EXPECT_FALSE(budget.Spend(1));  // The fourth unit crosses the quota.
  EXPECT_TRUE(budget.Exhausted());
}

TEST(BudgetTest, ZeroQuotaIsExhaustedFromTheStart) {
  Budget budget = Budget::WorkUnits(0);
  EXPECT_TRUE(budget.Exhausted());
  EXPECT_FALSE(budget.Spend(1));
}

TEST(BudgetTest, ExhaustionLatches) {
  Budget budget = Budget::WorkUnits(2);
  EXPECT_TRUE(budget.Spend(2));
  EXPECT_FALSE(budget.Spend(1));
  // Latched: even a zero-cost probe and later spends keep failing.
  EXPECT_TRUE(budget.Exhausted());
  EXPECT_FALSE(budget.Spend(0));
  EXPECT_FALSE(budget.Spend(1));
}

TEST(BudgetTest, ExpiredDeadlineIsExhaustedImmediately) {
  Budget budget = Budget::Deadline(0.0);
  EXPECT_TRUE(budget.Exhausted());
}

TEST(BudgetTest, GenerousDeadlineIsNotExhausted) {
  Budget budget = Budget::Deadline(3600.0);
  EXPECT_FALSE(budget.Exhausted());
  EXPECT_TRUE(budget.Spend(1));
}

TEST(BudgetTest, ShortDeadlineTripsDuringWork) {
  Budget budget = Budget::Deadline(1e-3);
  // The wall clock is consulted every kClockCheckStride units, so a tight
  // spin must observe the deadline within a bounded number of spends.
  bool tripped = false;
  for (int64_t i = 0; i < 500'000'000 && !tripped; ++i) {
    tripped = !budget.Spend(1);
  }
  EXPECT_TRUE(tripped);
  EXPECT_TRUE(budget.Exhausted());
}

TEST(BudgetTest, WorkQuotaTripsBeforeGenerousDeadline) {
  Budget budget = Budget::DeadlineAndWorkUnits(3600.0, 2);
  EXPECT_TRUE(budget.Spend(2));
  EXPECT_FALSE(budget.Spend(1));
  const Status error = budget.ExhaustedError("unit test");
  EXPECT_EQ(error.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(error.message().find("unit test"), std::string::npos);
  EXPECT_NE(error.message().find("work"), std::string::npos);
}

TEST(BudgetTest, DeadlineErrorNamesTheDeadline) {
  Budget budget = Budget::Deadline(0.0);
  EXPECT_TRUE(budget.Exhausted());
  const Status error = budget.ExhaustedError("unit test");
  EXPECT_EQ(error.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(error.message().find("deadline"), std::string::npos);
}

TEST(BudgetTest, SpecMintsFreshBudgets) {
  BudgetSpec spec;
  Budget unlimited = spec.MakeBudget();
  EXPECT_FALSE(unlimited.limited());

  spec.work_units = 1;
  Budget first = spec.MakeBudget();
  Budget second = spec.MakeBudget();
  EXPECT_TRUE(first.Spend(1));
  EXPECT_FALSE(first.Spend(1));
  // Exhausting one minted budget must not touch its sibling.
  EXPECT_TRUE(second.Spend(1));
}

// ---------------------------------------------------------------------------
// Zero-budget exhaustion: every budgeted entry point must return
// kResourceExhausted promptly on an already-empty budget — never crash,
// CHECK-fail or hang. (The whole test runs in milliseconds even though the
// unbudgeted work would be exponential.)

template <typename T>
void ExpectExhausted(const StatusOr<T>& result) {
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(ZeroBudgetTest, BruteForceHomCounting) {
  const graph::Graph f = graph::Graph::Cycle(4);
  const graph::Graph g = graph::Graph::Complete(5);
  Budget b1 = Budget::WorkUnits(0);
  ExpectExhausted(hom::CountHomomorphismsBruteForceBudgeted(f, g, b1));
  Budget b2 = Budget::WorkUnits(0);
  ExpectExhausted(hom::CountRootedHomomorphismsBruteForceBudgeted(f, 0, g, 0, b2));
  Budget b3 = Budget::WorkUnits(0);
  ExpectExhausted(hom::WeightedHomomorphismBruteForceBudgeted(f, g, b3));
  Budget b4 = Budget::WorkUnits(0);
  ExpectExhausted(hom::CountEmbeddingsBruteForceBudgeted(f, g, b4));
  Budget b5 = Budget::WorkUnits(0);
  ExpectExhausted(hom::CountEpimorphismsBruteForceBudgeted(f, g, b5));
}

TEST(ZeroBudgetTest, IsomorphismSearch) {
  const graph::Graph g = graph::Graph::Cycle(6);
  const graph::Graph h = graph::Graph::Cycle(6);
  Budget b1 = Budget::WorkUnits(0);
  ExpectExhausted(graph::AreIsomorphicBudgeted(g, h, b1));
  Budget b2 = Budget::WorkUnits(0);
  ExpectExhausted(graph::CountIsomorphismsBudgeted(g, h, b2));
  Budget b3 = Budget::WorkUnits(0);
  ExpectExhausted(graph::CountAutomorphismsBudgeted(g, b3));
}

TEST(ZeroBudgetTest, KWeisfeilerLeman) {
  const graph::Graph g = graph::Graph::Cycle(6);
  const graph::Graph h = graph::Graph::Path(6);
  Budget budget = Budget::WorkUnits(0);
  ExpectExhausted(wl::KwlCompareBudgeted(g, h, 2, budget));
}

TEST(ZeroBudgetTest, TreewidthAndElimination) {
  const graph::Graph f = graph::Graph::Cycle(5);
  const graph::Graph g = graph::Graph::Complete(6);
  Budget b1 = Budget::WorkUnits(0);
  ExpectExhausted(hom::ExactTreewidthBudgeted(f, nullptr, b1));
  Budget b2 = Budget::WorkUnits(0);
  ExpectExhausted(hom::CountHomsBudgeted(f, g, b2));
  Budget b3 = Budget::WorkUnits(0);
  ExpectExhausted(hom::CountHomsDoubleBudgeted(f, g, b3));
  Budget b4 = Budget::WorkUnits(0);
  ExpectExhausted(hom::CountHomsViaEliminationBudgeted(
      f, g, hom::MinFillEliminationOrder(f), b4));
}

TEST(ZeroBudgetTest, AllFourTrainers) {
  Rng rng = MakeRng(1);
  Budget b1 = Budget::WorkUnits(0);
  ExpectExhausted(
      embed::TrainSgnsBudgeted(SmallCorpus(), embed::SgnsOptions{}, rng, b1));
  Budget b2 = Budget::WorkUnits(0);
  ExpectExhausted(embed::TrainPvDbowBudgeted({{0, 1, 2}, {2, 3}}, 4,
                                             embed::SgnsOptions{}, rng, b2));
  Budget b3 = Budget::WorkUnits(0);
  ExpectExhausted(kg::TrainTransEBudgeted(SmallKg(), kg::TransEOptions{}, rng, b3));
  Budget b4 = Budget::WorkUnits(0);
  ExpectExhausted(kg::TrainRescalBudgeted(SmallKg(), kg::RescalOptions{}, rng, b4));
}

TEST(ZeroBudgetTest, EmbeddingPipelines) {
  const graph::Graph g = graph::Graph::Cycle(8);
  Rng rng = MakeRng(2);
  Budget b1 = Budget::WorkUnits(0);
  ExpectExhausted(embed::Graph2VecEmbeddingBudgeted(
      {g, graph::Graph::Path(8)}, embed::Graph2VecOptions{}, rng, b1));
  Budget b2 = Budget::WorkUnits(0);
  ExpectExhausted(
      embed::DeepWalkEmbeddingBudgeted(g, embed::Node2VecOptions{}, rng, b2));
  Budget b3 = Budget::WorkUnits(0);
  ExpectExhausted(
      embed::Node2VecEmbeddingBudgeted(g, embed::Node2VecOptions{}, rng, b3));
}

// ---------------------------------------------------------------------------
// Mid-flight exhaustion: a small but non-zero budget must stop the search
// cooperatively, and a deadline must bound a genuinely exponential call.

TEST(PartialBudgetTest, TinyQuotaStopsBruteForceMidSearch) {
  // hom(C4, K7) needs thousands of candidate extensions; 10 will not do.
  const graph::Graph f = graph::Graph::Cycle(4);
  const graph::Graph g = graph::Graph::Complete(7);
  Budget budget = Budget::WorkUnits(10);
  ExpectExhausted(hom::CountHomomorphismsBruteForceBudgeted(f, g, budget));
}

TEST(PartialBudgetTest, InconclusiveIsomorphismSearchIsAnError) {
  // C8 vs two disjoint C4s: same degree sequence, so the pre-checks pass
  // and the backtracking search runs — and is cut off almost immediately.
  const graph::Graph g = graph::Graph::Cycle(8);
  const graph::Graph h = graph::Graph::Circulant(8, {2});
  ASSERT_FALSE(graph::AreIsomorphic(g, h));
  Budget budget = Budget::WorkUnits(2);
  ExpectExhausted(graph::AreIsomorphicBudgeted(g, h, budget));
}

TEST(PartialBudgetTest, DeadlineBoundsBruteForceHomCounting) {
  // hom(C7, K13) enumerates ~13 * 12^6 proper maps — seconds of work; the
  // backtracking search must notice the 50ms deadline and bail out.
  const graph::Graph f = graph::Graph::Cycle(7);
  const graph::Graph g = graph::Graph::Complete(13);
  Budget budget = Budget::Deadline(0.05);
  ExpectExhausted(hom::CountHomomorphismsBruteForceBudgeted(f, g, budget));
}

TEST(PartialBudgetTest, TinyQuotaStopsExactTreewidth) {
  const graph::Graph g = graph::Graph::Grid(3, 3);
  Budget budget = Budget::WorkUnits(2);
  ExpectExhausted(hom::ExactTreewidthBudgeted(g, nullptr, budget));
}

TEST(PartialBudgetTest, TrainerStopsMidEpoch) {
  Rng rng = MakeRng(3);
  Budget budget = Budget::WorkUnits(5);  // A handful of pairs, then stop.
  ExpectExhausted(
      embed::TrainSgnsBudgeted(SmallCorpus(), embed::SgnsOptions{}, rng, budget));
  EXPECT_EQ(budget.work_spent(), 6);  // 5 admitted + the failing 6th probe.
}

// ---------------------------------------------------------------------------
// Unlimited-budget equivalence: a generous finite budget must not perturb
// results — budget probes sit outside all arithmetic and RNG draws.

TEST(BudgetEquivalenceTest, BruteForceMatchesPlain) {
  const graph::Graph f = graph::Graph::Cycle(4);
  const graph::Graph g = graph::Graph::Complete(5);
  Budget budget = Budget::WorkUnits(1'000'000'000);
  const auto counted = hom::CountHomomorphismsBruteForceBudgeted(f, g, budget);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(*counted, hom::CountHomomorphismsBruteForce(f, g));
  EXPECT_GT(budget.work_spent(), 0);
}

TEST(BudgetEquivalenceTest, KwlMatchesPlain) {
  const graph::Graph g = graph::Graph::Cycle(6);
  const graph::Graph h =
      graph::Graph::FromEdges(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  Budget budget = Budget::WorkUnits(1'000'000'000);
  const auto result = wl::KwlCompareBudgeted(g, h, 2, budget);
  ASSERT_TRUE(result.ok());
  const wl::KwlResult plain = wl::KwlCompare(g, h, 2);
  EXPECT_EQ(result->distinguishes, plain.distinguishes);
  EXPECT_EQ(result->distinguishing_round, plain.distinguishing_round);
  EXPECT_EQ(result->rounds_to_stable, plain.rounds_to_stable);
  EXPECT_EQ(result->num_colors, plain.num_colors);
}

TEST(BudgetEquivalenceTest, SgnsBitIdenticalUnderGenerousBudget) {
  const embed::Corpus corpus = SmallCorpus();
  embed::SgnsOptions options;
  options.dimension = 8;
  options.epochs = 2;
  Rng plain_rng = MakeRng(11);
  const embed::SgnsModel plain = embed::TrainSgns(corpus, options, plain_rng);
  Rng budgeted_rng = MakeRng(11);
  Budget budget = Budget::WorkUnits(1'000'000'000);
  const auto budgeted =
      embed::TrainSgnsBudgeted(corpus, options, budgeted_rng, budget);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_EQ(budgeted->input, plain.input);
  EXPECT_EQ(budgeted->output, plain.output);
}

TEST(BudgetEquivalenceTest, TransEBitIdenticalUnderGenerousBudget) {
  const kg::KnowledgeGraph kg = SmallKg();
  kg::TransEOptions options;
  options.dimension = 8;
  options.epochs = 20;
  Rng plain_rng = MakeRng(12);
  const kg::TransEModel plain = kg::TrainTransE(kg, options, plain_rng);
  Rng budgeted_rng = MakeRng(12);
  Budget budget = Budget::WorkUnits(1'000'000'000);
  const auto budgeted = kg::TrainTransEBudgeted(kg, options, budgeted_rng, budget);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_EQ(budgeted->entities, plain.entities);
  EXPECT_EQ(budgeted->relations, plain.relations);
}

TEST(BudgetEquivalenceTest, RescalBitIdenticalUnderGenerousBudget) {
  const kg::KnowledgeGraph kg = SmallKg();
  kg::RescalOptions options;
  options.dimension = 4;
  options.epochs = 30;
  Rng plain_rng = MakeRng(13);
  const kg::RescalModel plain = kg::TrainRescal(kg, options, plain_rng);
  Rng budgeted_rng = MakeRng(13);
  Budget budget = Budget::WorkUnits(1'000'000'000);
  const auto budgeted = kg::TrainRescalBudgeted(kg, options, budgeted_rng, budget);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_EQ(budgeted->entities, plain.entities);
  ASSERT_EQ(budgeted->relations.size(), plain.relations.size());
  for (size_t r = 0; r < plain.relations.size(); ++r) {
    EXPECT_EQ(budgeted->relations[r], plain.relations[r]);
  }
}

// ---------------------------------------------------------------------------
// Self-healing: poisoned options force deterministic divergence. With
// aggressive learning-rate back-off recovery must heal the run; with
// back-off disabled the trainer must give up with kInternal.

TEST(RecoveryTest, SgnsHealsForcedDivergence) {
  embed::SgnsOptions options = PoisonedSgnsOptions();
  options.recovery.lr_backoff = 1e-14;  // One retry lands at a sane rate.
  Rng rng = MakeRng(21);
  Budget unlimited;
  const auto model = embed::TrainSgnsBudgeted(SmallCorpus(), options, rng, unlimited);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_TRUE(model->input.AllFinite());
  EXPECT_TRUE(model->output.AllFinite());
  EXPECT_LE(model->input.MaxAbs(), options.recovery.max_abs);
}

TEST(RecoveryTest, SgnsGivesUpAfterMaxRetries) {
  embed::SgnsOptions options = PoisonedSgnsOptions();
  options.recovery.lr_backoff = 1.0;  // Never back off: every retry diverges.
  options.recovery.clip_backoff = 1.0;
  options.recovery.max_retries = 2;
  Rng rng = MakeRng(22);
  Budget unlimited;
  const auto model = embed::TrainSgnsBudgeted(SmallCorpus(), options, rng, unlimited);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInternal);
  EXPECT_NE(model.status().message().find("exhausted 2 recovery retries"),
            std::string::npos);
}

TEST(RecoveryTest, PvDbowHealsForcedDivergence) {
  embed::SgnsOptions options = PoisonedSgnsOptions();
  options.recovery.lr_backoff = 1e-14;
  const std::vector<std::vector<int>> documents = {
      {0, 1, 2, 0}, {1, 2, 3}, {3, 0, 2, 1}};
  Rng rng = MakeRng(23);
  Budget unlimited;
  const auto model = embed::TrainPvDbowBudgeted(documents, 4, options, rng, unlimited);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_TRUE(model->input.AllFinite());
  EXPECT_TRUE(model->output.AllFinite());
}

TEST(RecoveryTest, PvDbowGivesUpAfterMaxRetries) {
  embed::SgnsOptions options = PoisonedSgnsOptions();
  options.recovery.lr_backoff = 1.0;
  options.recovery.clip_backoff = 1.0;
  options.recovery.max_retries = 1;
  Rng rng = MakeRng(24);
  Budget unlimited;
  const auto model =
      embed::TrainPvDbowBudgeted({{0, 1, 2}, {2, 3, 0}}, 4, options, rng, unlimited);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInternal);
}

TEST(RecoveryTest, TransEHealsForcedDivergence) {
  kg::TransEOptions options = PoisonedTransEOptions();
  options.recovery.lr_backoff = 1e-12;
  Rng rng = MakeRng(25);
  Budget unlimited;
  const auto model = kg::TrainTransEBudgeted(SmallKg(), options, rng, unlimited);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_TRUE(model->entities.AllFinite());
  EXPECT_TRUE(model->relations.AllFinite());
  // Entities are renormalised on exit, so they must be on the unit sphere.
  for (int e = 0; e < model->entities.rows(); ++e) {
    double norm = 0.0;
    for (int d = 0; d < model->entities.cols(); ++d) {
      norm += model->entities(e, d) * model->entities(e, d);
    }
    EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-9);
  }
}

TEST(RecoveryTest, TransEGivesUpAfterMaxRetries) {
  kg::TransEOptions options = PoisonedTransEOptions();
  options.recovery.lr_backoff = 1.0;
  options.recovery.clip_backoff = 1.0;
  options.recovery.max_retries = 2;
  Rng rng = MakeRng(26);
  Budget unlimited;
  const auto model = kg::TrainTransEBudgeted(SmallKg(), options, rng, unlimited);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInternal);
  EXPECT_NE(model.status().message().find("TransE"), std::string::npos);
}

TEST(RecoveryTest, RescalHealsForcedDivergence) {
  kg::RescalOptions options = PoisonedRescalOptions();
  options.recovery.lr_backoff = 1e-9;
  Rng rng = MakeRng(27);
  Budget unlimited;
  const auto model = kg::TrainRescalBudgeted(SmallKg(), options, rng, unlimited);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_TRUE(model->entities.AllFinite());
  for (const linalg::Matrix& relation : model->relations) {
    EXPECT_TRUE(relation.AllFinite());
  }
}

TEST(RecoveryTest, RescalGivesUpAfterMaxRetries) {
  kg::RescalOptions options = PoisonedRescalOptions();
  options.recovery.lr_backoff = 1.0;
  options.recovery.max_retries = 2;
  Rng rng = MakeRng(28);
  Budget unlimited;
  const auto model = kg::TrainRescalBudgeted(SmallKg(), options, rng, unlimited);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInternal);
  EXPECT_NE(model.status().message().find("RESCAL"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trainer option validation (shared ValidateOptions helper).

TEST(OptionValidationTest, TrainersRejectBadOptions) {
  Rng rng = MakeRng(31);
  Budget unlimited;

  embed::SgnsOptions sgns;
  sgns.learning_rate = -1.0;
  const auto sgns_result =
      embed::TrainSgnsBudgeted(SmallCorpus(), sgns, rng, unlimited);
  ASSERT_FALSE(sgns_result.ok());
  EXPECT_EQ(sgns_result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sgns_result.status().message().find("learning_rate"),
            std::string::npos);

  kg::TransEOptions transe;
  transe.margin = -0.5;
  const auto transe_result =
      kg::TrainTransEBudgeted(SmallKg(), transe, rng, unlimited);
  ASSERT_FALSE(transe_result.ok());
  EXPECT_EQ(transe_result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(transe_result.status().message().find("margin"), std::string::npos);

  kg::RescalOptions rescal;
  rescal.dimension = 0;
  const auto rescal_result =
      kg::TrainRescalBudgeted(SmallKg(), rescal, rng, unlimited);
  ASSERT_FALSE(rescal_result.ok());
  EXPECT_EQ(rescal_result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rescal_result.status().message().find("dimension"),
            std::string::npos);
}

TEST(OptionValidationTest, TrainersRejectDegenerateInputs) {
  Rng rng = MakeRng(32);
  Budget unlimited;

  const auto empty_corpus = embed::TrainSgnsBudgeted(
      embed::Corpus{}, embed::SgnsOptions{}, rng, unlimited);
  ASSERT_FALSE(empty_corpus.ok());
  EXPECT_EQ(empty_corpus.status().code(), StatusCode::kInvalidArgument);

  kg::KnowledgeGraph lonely;
  lonely.AddEntity("only");
  const auto one_entity =
      kg::TrainTransEBudgeted(lonely, kg::TransEOptions{}, rng, unlimited);
  ASSERT_FALSE(one_entity.ok());
  EXPECT_EQ(one_entity.status().code(), StatusCode::kInvalidArgument);

  const auto no_graphs = embed::Graph2VecEmbeddingBudgeted(
      {}, embed::Graph2VecOptions{}, rng, unlimited);
  ASSERT_FALSE(no_graphs.ok());
  EXPECT_EQ(no_graphs.status().code(), StatusCode::kInvalidArgument);
}

TEST(OptionValidationTest, CorpusTrainersRejectOutOfVocabularyTokens) {
  // Regression: a token id at or beyond the vocabulary read past the
  // model (skip-gram) or aborted in a CHECK (PV-DBOW) instead of being
  // rejected like the streaming entries reject it.
  embed::Corpus corpus = SmallCorpus();
  corpus.sentences.push_back({0, corpus.vocab.size()});
  const std::vector<std::vector<int>> documents = {{0, 1, 2}, {3, 4}};
  embed::SgnsOptions options;
  options.dimension = 4;
  options.epochs = 1;
  Rng rng = MakeRng(33);
  Budget unlimited;
  EXPECT_EQ(
      embed::TrainSgnsBudgeted(corpus, options, rng, unlimited).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(embed::TrainSgnsSharded(corpus, options, /*seed=*/1, unlimited)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(embed::TrainPvDbowBudgeted(documents, /*vocab_size=*/4, options,
                                       rng, unlimited)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(embed::TrainPvDbowSharded(documents, /*vocab_size=*/4, options,
                                      /*seed=*/1, unlimited)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(OptionValidationTest, TrainersRejectNegativeTokens) {
  // Regression: a negative token id CHECK-aborted the counting pass that
  // every SGNS and PV-DBOW trainer runs first.
  embed::Corpus corpus = SmallCorpus();
  corpus.sentences.push_back({0, -1, 2});
  const std::vector<std::vector<int>> documents = {{0, 1, 2}, {3, -4}};
  embed::SgnsOptions options;
  options.dimension = 4;
  options.epochs = 1;
  Rng rng = MakeRng(34);
  Budget unlimited;

  embed::CorpusSource sentences(corpus.sentences);
  const embed::StreamStats stats = embed::CountStream(
      sentences, options.window, /*skipgram_window=*/true, corpus.vocab.size());
  EXPECT_EQ(stats.negative_tokens, 1);
  EXPECT_EQ(stats.token_counts.size(),
            static_cast<size_t>(corpus.vocab.size()));
  const std::vector<double> noise =
      corpus.vocab.NoiseDistribution(options.noise_power);

  const auto code = [](const auto& result) { return result.status().code(); };
  EXPECT_EQ(code(embed::TrainSgnsBudgeted(corpus, options, rng, unlimited)),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(embed::TrainSgnsSharded(corpus, options, 1, unlimited)),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(embed::TrainSgnsStreaming(sentences, stats, noise, options,
                                           rng, unlimited)),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(embed::TrainSgnsShardedStreaming(sentences, stats, noise,
                                                  options, 1, unlimited)),
            StatusCode::kInvalidArgument);

  embed::CorpusSource docs(documents);
  EXPECT_EQ(code(embed::TrainPvDbowBudgeted(documents, 4, options, rng,
                                            unlimited)),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(embed::TrainPvDbowSharded(documents, 4, options, 1,
                                           unlimited)),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(embed::TrainPvDbowStreaming(docs, 4, options, rng,
                                             unlimited)),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(embed::TrainPvDbowShardedStreaming(docs, 4, options, 1,
                                                    unlimited)),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Fault-injecting Rng: degenerate bit streams must never break invariants
// of the randomised primitives or the trainers.

TEST(FaultInjectionTest, AliasTableStaysInRangeOnDegenerateBits) {
  const AliasTable table({1.0, 2.0, 3.0, 4.0});
  FaultInjectingRng rng(/*seed=*/41, /*healthy_draws=*/5);
  for (int i = 0; i < 1000; ++i) {
    const int sample = table.Sample(rng);
    ASSERT_GE(sample, 0);
    ASSERT_LT(sample, 4);
  }
  EXPECT_GT(rng.draws(), 5);  // The scripted regime was actually exercised.
}

TEST(FaultInjectionTest, RandomPermutationStaysValidOnDegenerateBits) {
  FaultInjectingRng rng(/*seed=*/42, /*healthy_draws=*/0);
  const std::vector<int> perm = RandomPermutation(10, rng);
  std::vector<bool> seen(10, false);
  for (int v : perm) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 10);
    ASSERT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(FaultInjectionTest, SgnsStaysFiniteOnDegenerateBits) {
  embed::SgnsOptions options;
  options.dimension = 8;
  options.epochs = 2;
  FaultInjectingRng rng(/*seed=*/43, /*healthy_draws=*/100);
  Budget unlimited;
  const auto model =
      embed::TrainSgnsBudgeted(SmallCorpus(), options, rng, unlimited);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_TRUE(model->input.AllFinite());
  EXPECT_TRUE(model->output.AllFinite());
}

TEST(FaultInjectionTest, TransEStaysFiniteOnDegenerateBits) {
  kg::TransEOptions options;
  options.dimension = 8;
  options.epochs = 10;
  FaultInjectingRng rng(/*seed=*/44, /*healthy_draws=*/50);
  Budget unlimited;
  const auto model = kg::TrainTransEBudgeted(SmallKg(), options, rng, unlimited);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_TRUE(model->entities.AllFinite());
  EXPECT_TRUE(model->relations.AllFinite());
}

// ---------------------------------------------------------------------------
// Numeric-health guards under the float32 kernel backend. The fp32 path
// rounds operands through float, so values representable in double can
// overflow to inf (|x| > FLT_MAX) and inf arithmetic can mint NaNs — the
// linalg/health.h predicates must trip on both, and the SGNS recovery loop
// must keep healing / giving up exactly as it does under generic.

class Float32BackendFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    linalg::SetKernelBackend(linalg::KernelBackend::kFloat32);
  }
  void TearDown() override {
    linalg::SetKernelBackend(linalg::KernelBackend::kGeneric);
  }
};

TEST_F(Float32BackendFixture, AxpyOverflowToInfTripsRowUnhealthy) {
  // 1e39 fits a double but not a float: the fp32 product overflows to inf.
  linalg::Matrix m(2, 3);
  const std::vector<double> x = {1e39, 1.0, 1.0};
  linalg::Axpy(1.0, x, m.RowSpan(0));
  EXPECT_TRUE(std::isinf(m(0, 0)));
  EXPECT_TRUE(linalg::RowUnhealthy(m, 0, /*max_abs=*/1e6));
  EXPECT_FALSE(linalg::RowUnhealthy(m, 1, /*max_abs=*/1e6));
  EXPECT_FALSE(linalg::MatrixHealthy(m, /*max_abs=*/1e6));
}

TEST_F(Float32BackendFixture, OpposingOverflowsMintNanAndAreDetected) {
  // +inf + (-inf) accumulated into the same cell is NaN; AllFinite and
  // RowUnhealthy must both flag it (NaN compares false with everything).
  linalg::Matrix m(1, 2);
  const std::vector<double> up = {1e39, 0.0};
  const std::vector<double> down = {-1e39, 0.0};
  linalg::Axpy(1.0, up, m.RowSpan(0));
  linalg::Axpy(1.0, down, m.RowSpan(0));
  EXPECT_TRUE(std::isnan(m(0, 0)));
  EXPECT_FALSE(m.AllFinite());
  EXPECT_TRUE(linalg::RowUnhealthy(m, 0, /*max_abs=*/1e300));
  EXPECT_FALSE(linalg::MatrixHealthy(m, /*max_abs=*/1e300));
}

TEST_F(Float32BackendFixture, SquaredDistanceOverflowsToInfNotGarbage) {
  // Differences near 2e38 square past FLT_MAX: the fp32 backend must
  // report inf (which health checks catch), never a silently wrapped
  // finite value.
  const std::vector<double> a = {2e38, 0.0};
  const std::vector<double> b = {-2e38, 0.0};
  EXPECT_TRUE(std::isinf(linalg::SquaredDistance(a, b)));
  const std::vector<double> big = {1e39, 1e39};
  EXPECT_TRUE(std::isinf(linalg::Dot(big, big)));
}

TEST_F(Float32BackendFixture, ReseedClearsFp32OverflowRows) {
  linalg::Matrix m(3, 2);
  const std::vector<double> x = {1e39, 1.0};
  linalg::Axpy(1.0, x, m.RowSpan(1));
  ASSERT_TRUE(linalg::RowUnhealthy(m, 1, /*max_abs=*/1e6));
  Rng rng = MakeRng(3);
  linalg::ReseedUnhealthyRows(m, /*init=*/0.01, /*max_abs=*/1e6, rng);
  EXPECT_TRUE(linalg::MatrixHealthy(m, /*max_abs=*/1e6));
}

TEST_F(Float32BackendFixture, SgnsHealsForcedDivergenceUnderFp32) {
  embed::SgnsOptions options = PoisonedSgnsOptions();
  options.recovery.lr_backoff = 1e-14;  // One retry lands at a sane rate.
  Rng rng = MakeRng(21);
  Budget unlimited;
  const auto model =
      embed::TrainSgnsBudgeted(SmallCorpus(), options, rng, unlimited);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_TRUE(model->input.AllFinite());
  EXPECT_TRUE(model->output.AllFinite());
  EXPECT_LE(model->input.MaxAbs(), options.recovery.max_abs);
}

TEST_F(Float32BackendFixture, SgnsGivesUpAfterMaxRetriesUnderFp32) {
  embed::SgnsOptions options = PoisonedSgnsOptions();
  options.recovery.lr_backoff = 1.0;  // Never back off: every retry diverges.
  options.recovery.clip_backoff = 1.0;
  options.recovery.max_retries = 2;
  Rng rng = MakeRng(22);
  Budget unlimited;
  const auto model =
      embed::TrainSgnsBudgeted(SmallCorpus(), options, rng, unlimited);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInternal);
  EXPECT_NE(model.status().message().find("exhausted 2 recovery retries"),
            std::string::npos);
}

}  // namespace
}  // namespace x2vec
