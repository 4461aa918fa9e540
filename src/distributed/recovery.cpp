#include "distributed/recovery.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace isasgd::distributed {

void FaultScenario::validate(std::size_t nodes) const {
  auto reject = [](const char* field, const char* requirement) {
    throw std::invalid_argument(std::string("FaultScenario::") + field + ": " +
                                requirement);
  };
  if (!enabled()) return;
  if (crash_node >= nodes) reject("crash_node", "must name an existing rank");
  if (!(crash_fraction >= 0.0 && crash_fraction < 1.0)) {
    reject("crash_fraction", "must be in [0, 1)");
  }
  if (rejoin_epoch != 0 && rejoin_epoch <= crash_epoch) {
    reject("rejoin_epoch", "must be after crash_epoch (or 0 for never)");
  }
  if (nodes < 2) {
    reject("crash_epoch", "needs at least 2 nodes (someone must survive)");
  }
}

void RecoveryOptions::validate() const {
  auto reject = [](const char* field, const char* requirement) {
    throw std::invalid_argument(std::string("RecoveryOptions::") + field +
                                ": " + requirement);
  };
  if (liveness_timeout_ms <= 0) reject("liveness_timeout_ms", "must be > 0");
  if (reply_timeout_ms <= 0) reject("reply_timeout_ms", "must be > 0");
  if (fence_reply_timeout_ms <= 0) {
    reject("fence_reply_timeout_ms", "must be > 0");
  }
  if (max_retries == 0) reject("max_retries", "must be > 0");
  if (!(backoff_initial_ms > 0)) reject("backoff_initial_ms", "must be > 0");
  if (!(backoff_max_ms >= backoff_initial_ms)) {
    reject("backoff_max_ms", "must be >= backoff_initial_ms");
  }
  if (!(backoff_jitter >= 0.0 && backoff_jitter < 1.0)) {
    reject("backoff_jitter", "must be in [0, 1)");
  }
}

Assignment identity_assignment(std::size_t k) {
  Assignment a(k);
  for (std::size_t r = 0; r < k; ++r) {
    a[r].push_back(static_cast<std::uint32_t>(r));
  }
  return a;
}

Assignment plan_assignment(std::size_t k, const std::vector<char>& alive,
                           RecoveryPolicy policy) {
  if (alive.size() != k) {
    throw std::invalid_argument(
        "plan_assignment: alive vector must have one entry per rank");
  }
  Assignment a(k);
  std::vector<std::uint32_t> orphans;
  for (std::size_t w = 0; w < k; ++w) {
    if (alive[w]) {
      a[w].push_back(static_cast<std::uint32_t>(w));
    } else {
      orphans.push_back(static_cast<std::uint32_t>(w));
    }
  }
  if (policy == RecoveryPolicy::kNone) return a;
  for (const std::uint32_t w : orphans) {
    // Deal to the alive rank with the fewest walks, lowest rank on ties.
    std::size_t best = k;
    for (std::size_t r = 0; r < k; ++r) {
      if (!alive[r]) continue;
      if (best == k || a[r].size() < a[best].size()) best = r;
    }
    if (best == k) return a;  // nobody alive: nothing to deal to
    a[best].push_back(w);
  }
  return a;
}

CrashRoster::CrashRoster(const FaultScenario& scenario, RecoveryPolicy policy,
                         std::vector<std::size_t> walk_quota)
    : scenario_(scenario),
      policy_(policy),
      quota_(std::move(walk_quota)),
      alive_(quota_.size(), 1),
      assign_(identity_assignment(quota_.size())),
      cursor_(quota_.size(), 0),
      remaining_(quota_.size(), 0) {
  if (!scenario_.enabled()) return;
  scenario_.validate(quota_.size());
}

void CrashRoster::begin_epoch(std::size_t epoch) {
  const std::size_t k = quota_.size();
  if (scenario_.enabled() && epoch == scenario_.rejoin_epoch &&
      !alive_[scenario_.crash_node]) {
    alive_[scenario_.crash_node] = 1;
    ++rejoin_events_;
    assign_ = plan_assignment(k, alive_, policy_);
  }
  std::fill(remaining_.begin(), remaining_.end(), 0);
  pending_ = 0;
  for (std::size_t e = 0; e < k; ++e) {
    cursor_[e] = 0;
    if (!alive_[e]) continue;
    for (const std::uint32_t walk : assign_[e]) {
      remaining_[walk] = quota_[walk];
      pending_ += quota_[walk];
    }
  }
  crashing_ = scenario_.enabled() && epoch == scenario_.crash_epoch &&
              alive_[scenario_.crash_node];
  if (crashing_) {
    std::size_t node_quota = 0;
    for (const std::uint32_t walk : assign_[scenario_.crash_node]) {
      node_quota += remaining_[walk];
    }
    draws_before_crash_ = static_cast<std::size_t>(
        scenario_.crash_fraction * static_cast<double>(node_quota));
  }
}

std::optional<std::uint32_t> CrashRoster::take(std::size_t e) {
  if (!alive_[e]) return std::nullopt;
  const std::vector<std::uint32_t>& walks = assign_[e];
  std::size_t& cursor = cursor_[e];
  while (cursor < walks.size() && remaining_[walks[cursor]] == 0) ++cursor;
  if (cursor == walks.size()) return std::nullopt;  // epoch quota drained
  if (crashing_ && e == scenario_.crash_node) {
    if (draws_before_crash_ == 0) {
      alive_[e] = 0;
      ++crash_events_;
      for (const std::uint32_t walk : walks) {
        pending_ -= remaining_[walk];
        remaining_[walk] = 0;
      }
      crashing_ = false;
      return std::nullopt;
    }
    --draws_before_crash_;
  }
  const std::uint32_t walk = walks[cursor];
  --remaining_[walk];
  --pending_;
  return walk;
}

void CrashRoster::end_epoch() {
  if (scenario_.enabled()) {
    assign_ = plan_assignment(quota_.size(), alive_, policy_);
  }
}

}  // namespace isasgd::distributed
