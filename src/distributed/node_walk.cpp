#include "distributed/node_walk.hpp"

namespace isasgd::distributed {

NodeWalk::NodeWalk(const sparse::CsrMatrix& data,
                   const partition::Shard& shard, bool use_importance,
                   std::uint64_t seed)
    : use_importance_(use_importance), data_(&data), shard_(shard) {
  const std::size_t local_n = shard_.rows.size();
  weight_.assign(local_n, 1.0);
  if (use_importance_) {
    sampler_ =
        std::make_unique<sampling::AliasTable>(shard_.probabilities);
    for (std::size_t s = 0; s < local_n; ++s) {
      const double p = shard_.probabilities[s];
      weight_[s] = p > 0 ? 1.0 / (static_cast<double>(local_n) * p) : 1.0;
    }
  }
  rng_.reseed(seed);
  quota_ = local_n;
}

NodeWalk::NodeWalk(const data::DataSource& source,
                   std::span<const std::uint32_t> ordinals,
                   const std::vector<std::vector<double>>& shard_importance,
                   const std::vector<double>& shard_phi, bool use_importance,
                   std::uint64_t seed)
    : use_importance_(use_importance),
      source_(&source),
      ordinals_(ordinals),
      shard_importance_(shard_importance),
      shard_phi_(shard_phi) {
  rng_.reseed(seed);
  for (const std::uint32_t s : ordinals_) {
    quota_ += shard_importance[s].size();
  }
}

void NodeWalk::begin_epoch() {
  if (source_ == nullptr) return;  // in-memory: nothing to rewind
  pos_ = 0;
  remaining_ = 0;
  if (!ordinals_.empty()) enter_shard();
}

void NodeWalk::enter_shard() {
  const std::size_t ordinal = ordinals_[pos_];
  resident_ = source_->shard(ordinal);
  if (pos_ + 1 < ordinals_.size()) source_->prefetch(ordinals_[pos_ + 1]);
  const std::vector<double>& imp = shard_importance_[ordinal];
  const std::size_t local_n = imp.size();
  weight_.assign(local_n, 1.0);
  sampler_.reset();
  if (use_importance_ && local_n > 0) {
    const double total = shard_phi_[ordinal];
    std::vector<double> prob(local_n);
    for (std::size_t i = 0; i < local_n; ++i) {
      prob[i] =
          total > 0 ? imp[i] / total : 1.0 / static_cast<double>(local_n);
    }
    sampler_ = std::make_unique<sampling::AliasTable>(prob);
    for (std::size_t i = 0; i < local_n; ++i) {
      weight_[i] = prob[i] > 0
                       ? 1.0 / (static_cast<double>(local_n) * prob[i])
                       : 1.0;
    }
  }
  remaining_ = local_n;
}

NodeWalk::Sample NodeWalk::next() {
  if (source_ != nullptr) {
    while (remaining_ == 0) {
      ++pos_;
      enter_shard();
    }
    const std::size_t local_n = weight_.size();
    const std::size_t slot =
        sampler_ ? sampler_->sample(rng_)
                 : static_cast<std::size_t>(util::uniform_index(rng_, local_n));
    --remaining_;
    return {resident_->matrix.get(), static_cast<std::uint32_t>(slot),
            weight_[slot]};
  }
  const std::size_t local_n = shard_.rows.size();
  const std::size_t slot =
      sampler_ ? sampler_->sample(rng_)
               : static_cast<std::size_t>(util::uniform_index(rng_, local_n));
  return {data_, shard_.rows[slot], weight_[slot]};
}

}  // namespace isasgd::distributed
