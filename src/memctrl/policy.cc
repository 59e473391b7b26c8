#include "memctrl/policy.hh"

#include <algorithm>

namespace padc::memctrl
{

namespace
{

// Lattice-slot shorthand: {level, urgent}.
constexpr LatticeSlot kLo{0, false};   // deprioritized
constexpr LatticeSlot kHi{1, false};   // preferred
constexpr LatticeSlot kHiU{1, true};   // preferred + urgency-boosted

/**
 * Per-policy lattice tables, indexed by SchedPolicyKind enumerator
 * value. Row order within each table is the RequestClass enumerator
 * order: DemandRead, Prefetch, Writeback, PtwRead, DramCacheFill; the
 * two columns per row are {inaccurate core, accurate core}.
 *
 * Writeback rows are reserved (write queue schedules FR-FCFS without
 * consulting the lattice); they carry the level the class *would* have
 * so a future lattice-scheduled writeback path starts from sensible
 * defaults. PtwRead mirrors DemandRead (translation stalls retire
 * instructions exactly like demand misses); DramCacheFill mirrors
 * Prefetch (speculative fill traffic, accuracy-gated under APS).
 */
constexpr PolicyLattice kLattices[] = {
    // FrFcfs: prefetch-blind, every class level 1.
    {{{
         {{kHi, kHi}},   // DemandRead
         {{kHi, kHi}},   // Prefetch
         {{kHi, kHi}},   // Writeback (reserved)
         {{kHi, kHi}},   // PtwRead (reserved)
         {{kHi, kHi}},   // DramCacheFill (reserved)
     }},
     /*ranked=*/false},
    // DemandFirst: demand-like classes over prefetch-like classes.
    {{{
         {{kHi, kHi}},   // DemandRead
         {{kLo, kLo}},   // Prefetch
         {{kHi, kHi}},   // Writeback (reserved)
         {{kHi, kHi}},   // PtwRead (reserved)
         {{kLo, kLo}},   // DramCacheFill (reserved)
     }},
     /*ranked=*/false},
    // PrefetchFirst: prefetch-like classes over demand-like classes
    // (footnote 2 of the paper).
    {{{
         {{kLo, kLo}},   // DemandRead
         {{kHi, kHi}},   // Prefetch
         {{kHi, kHi}},   // Writeback (reserved)
         {{kLo, kLo}},   // PtwRead (reserved)
         {{kHi, kHi}},   // DramCacheFill (reserved)
     }},
     /*ranked=*/false},
    // Aps: critical (demand, or prefetch from an accurate core) over
    // non-critical; demands from inaccurate cores are urgency-boosted
    // (Rule 1 step 3); critical requests are ranked (Rule 2).
    {{{
         {{kHiU, kHi}},  // DemandRead
         {{kLo, kHi}},   // Prefetch
         {{kHi, kHi}},   // Writeback (reserved)
         {{kHiU, kHi}},  // PtwRead (reserved)
         {{kLo, kHi}},   // DramCacheFill (reserved)
     }},
     /*ranked=*/true},
};

static_assert(static_cast<std::size_t>(SchedPolicyKind::FrFcfs) == 0 &&
                  static_cast<std::size_t>(SchedPolicyKind::DemandFirst) ==
                      1 &&
                  static_cast<std::size_t>(
                      SchedPolicyKind::PrefetchFirst) == 2 &&
                  static_cast<std::size_t>(SchedPolicyKind::Aps) == 3,
              "kLattices[] rows are indexed by SchedPolicyKind value");
static_assert(sizeof(kLattices) / sizeof(kLattices[0]) == 4,
              "one lattice table per SchedPolicyKind");
static_assert(static_cast<std::size_t>(RequestClass::DemandRead) == 0 &&
                  static_cast<std::size_t>(RequestClass::Prefetch) == 1 &&
                  static_cast<std::size_t>(RequestClass::Writeback) == 2 &&
                  static_cast<std::size_t>(RequestClass::PtwRead) == 3 &&
                  static_cast<std::size_t>(RequestClass::DramCacheFill) ==
                      4,
              "lattice rows are indexed by RequestClass value");

/**
 * The shard aggregate check (shardHasPreferred) summarizes demands with
 * a single count, so a demand's lattice level must not depend on
 * per-core accuracy. Every current policy satisfies this; a policy that
 * wants accuracy-dependent demand levels must add a per-core demand
 * mask to BankShard first.
 */
constexpr bool
demandLevelsAccuracyIndependent()
{
    for (const PolicyLattice &lattice : kLattices) {
        const auto &demand =
            lattice.slots[static_cast<std::size_t>(
                RequestClass::DemandRead)];
        if (demand[0].level != demand[1].level)
            return false;
    }
    return true;
}

static_assert(demandLevelsAccuracyIndependent(),
              "shard demand counters assume accuracy-independent "
              "demand levels");

bool
accuracyDependent(const PolicyLattice &lattice)
{
    for (const auto &row : lattice.slots) {
        if (row[0].level != row[1].level || row[0].urgent != row[1].urgent)
            return true;
    }
    return false;
}

} // namespace

const PolicyLattice &
policyLattice(SchedPolicyKind kind)
{
    return kLattices[static_cast<std::size_t>(kind)];
}

void
SchedulerConfig::validate(ConfigErrors &errors,
                          const std::string &prefix) const
{
    if (request_buffer_size == 0)
        errors.add(prefix + ".request_buffer_size", "must be >= 1");
    if (write_drain_low >= write_drain_high) {
        errors.add(prefix + ".write_drain_low",
                   "must be < write_drain_high (" +
                       std::to_string(write_drain_low) +
                       " >= " + std::to_string(write_drain_high) + ")");
    }
    if (promotion_threshold < 0.0 || promotion_threshold > 1.0) {
        errors.add(prefix + ".promotion_threshold",
                   "must be within [0, 1]; got " +
                       std::to_string(promotion_threshold));
    }
    if (age_quantum == 0)
        errors.add(prefix + ".age_quantum", "must be >= 1 cycle");
    for (std::size_t i = 0; i < drop_accuracy_bounds.size(); ++i) {
        const double bound = drop_accuracy_bounds[i];
        if (bound <= 0.0 || bound >= 1.0) {
            errors.add(prefix + ".drop_accuracy_bounds[" +
                           std::to_string(i) + "]",
                       "must be within (0, 1); got " +
                           std::to_string(bound));
        }
        if (i > 0 && drop_accuracy_bounds[i - 1] >= bound) {
            errors.add(prefix + ".drop_accuracy_bounds[" +
                           std::to_string(i) + "]",
                       "accuracy bands must be strictly ascending");
        }
    }
    if (accuracy.interval == 0)
        errors.add(prefix + ".accuracy.interval", "must be >= 1 cycle");
    if (accuracy.initial_accuracy < 0.0 ||
        accuracy.initial_accuracy > 1.0) {
        errors.add(prefix + ".accuracy.initial_accuracy",
                   "must be within [0, 1]; got " +
                       std::to_string(accuracy.initial_accuracy));
    }
}

void
validateCoreCount(std::uint32_t num_cores, ConfigErrors &errors,
                  const std::string &field)
{
    if (num_cores == 0)
        errors.add(field, "must be >= 1");
    if (num_cores > kMaxCores) {
        errors.add(field, "must be <= " + std::to_string(kMaxCores) +
                              " (packed rank field width); got " +
                              std::to_string(num_cores));
    }
}

SchedContext::SchedContext(const SchedulerConfig &config,
                           const AccuracyTracker &tracker)
    : config_(config), tracker_(tracker),
      lattice_(policyLattice(config.kind)),
      accuracy_dependent_(accuracyDependent(lattice_))
{
}

bool
SchedContext::updateRanks(
    const std::array<std::uint32_t, kMaxCores> &critical_counts,
    std::uint32_t num_cores)
{
    if (!config_.ranking_enabled)
        return false;
    // Shortest job first: fewer outstanding critical requests -> higher
    // rank. Encoding the (saturated) complement of the count preserves
    // the ordering without a sort and gives equal-count cores equal rank.
    bool changed = false;
    for (std::uint32_t i = 0; i < num_cores && i < kMaxCores; ++i) {
        const std::uint32_t count = std::min(critical_counts[i], 255u);
        const auto rank = static_cast<std::uint8_t>(255u - count);
        changed |= rank_[i] != rank;
        rank_[i] = rank;
    }
    return changed;
}

bool
SchedContext::shardHasPreferred(std::uint32_t queued_demands,
                                std::uint64_t pref_core_mask,
                                std::uint64_t accurate_mask) const
{
    const auto &demand = lattice_.of(RequestClass::DemandRead);
    const auto &pref = lattice_.of(RequestClass::Prefetch);
    if (queued_demands > 0 && demand[0].level > 0)
        return true;
    const bool pref_inacc = pref[0].level > 0;
    const bool pref_acc = pref[1].level > 0;
    if (pref_acc && pref_inacc)
        return pref_core_mask != 0;
    if (pref_acc)
        return (pref_core_mask & accurate_mask) != 0;
    if (pref_inacc)
        return (pref_core_mask & ~accurate_mask) != 0;
    return false;
}

std::uint64_t
SchedContext::priorityKey(const Request &req, bool row_hit) const
{
    return priorityKey(req.cls, req.core, req.seq, row_hit);
}

} // namespace padc::memctrl
