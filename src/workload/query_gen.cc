#include "workload/query_gen.h"

#include <algorithm>

namespace ps2 {

QueryGenerator::QueryGenerator(const QueryGenConfig& config,
                               const SyntheticCorpus* corpus)
    : config_(config), corpus_(corpus), rng_(config.seed) {
  region_is_q1_.resize(NumRegions());
  // Q3 mosaic: deterministic half-and-half assignment.
  for (int r = 0; r < NumRegions(); ++r) {
    region_is_q1_[r] = rng_.NextBernoulli(0.5);
  }
}

int QueryGenerator::RegionOf(Point p) const {
  const Rect& e = corpus_->extent();
  const int g = config_.q3_regions_per_axis;
  const auto clampi = [g](int v) { return std::min(std::max(v, 0), g - 1); };
  const int rx = clampi(static_cast<int>((p.x - e.min_x) / e.width() * g));
  const int ry = clampi(static_cast<int>((p.y - e.min_y) / e.height() * g));
  return ry * g + rx;
}

void QueryGenerator::FlipRandomRegions(double fraction) {
  const int flips =
      std::max(1, static_cast<int>(fraction * NumRegions()));
  for (int i = 0; i < flips; ++i) {
    FlipRegionStyle(static_cast<int>(rng_.NextBelow(NumRegions())));
  }
}

STSQuery QueryGenerator::MakeQuery(Point center, bool q1_style) {
  const Rect& e = corpus_->extent();
  const double smin = q1_style ? config_.q1_side_min_frac
                               : config_.q2_side_min_frac;
  const double smax = q1_style ? config_.q1_side_max_frac
                               : config_.q2_side_max_frac;
  const double w = e.width() * rng_.NextUniform(smin, smax);
  const double h = e.height() * rng_.NextUniform(smin, smax);

  const int k = 1 + static_cast<int>(rng_.NextBelow(config_.max_keywords));
  std::vector<TermId> terms;
  terms.reserve(k);
  if (q1_style) {
    // Keywords follow the corpus distribution near the query's location.
    for (int i = 0; i < k; ++i) {
      terms.push_back(corpus_->SampleTermAt(center, rng_));
    }
  } else {
    // At least one keyword outside the top 1%; remaining keywords from the
    // local distribution.
    terms.push_back(
        corpus_->SampleRareTerm(config_.q2_excluded_top_fraction, rng_));
    for (int i = 1; i < k; ++i) {
      terms.push_back(corpus_->SampleTermAt(center, rng_));
    }
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  STSQuery q;
  q.id = next_id_++;
  q.region = Rect::Centered(center, w, h);
  if (terms.size() > 1 && rng_.NextBernoulli(config_.or_probability)) {
    q.expr = BoolExpr::Or(std::move(terms));
  } else {
    q.expr = BoolExpr::And(std::move(terms));
  }
  return q;
}

STSQuery QueryGenerator::Next() {
  const Point center = corpus_->SampleLocation(rng_);
  bool q1_style = true;
  switch (config_.kind) {
    case QueryKind::kQ1:
      q1_style = true;
      break;
    case QueryKind::kQ2:
      q1_style = false;
      break;
    case QueryKind::kQ3:
      q1_style = region_is_q1_[RegionOf(center)];
      break;
  }
  // Generated streams carry the query's insert and delete as copies, so
  // choosing the routing clause here gives both tuples the same one.
  STSQuery q = MakeQuery(center, q1_style);
  q.expr.ChooseRouting(corpus_->vocab());
  return q;
}

std::vector<STSQuery> QueryGenerator::Generate(size_t n) {
  std::vector<STSQuery> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(Next());
  return out;
}

}  // namespace ps2
