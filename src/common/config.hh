/**
 * @file
 * Shared configuration enums and name conversions.
 *
 * Module-specific configuration structs live with their modules
 * (dram::DramConfig, memctrl::SchedulerConfig, ...); this header only
 * defines the cross-cutting enums those structs reference, together with
 * their string conversions.
 */

#ifndef PADC_COMMON_CONFIG_HH
#define PADC_COMMON_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace padc
{

/**
 * One structured configuration diagnostic: the dotted path of the
 * offending field ("sched.write_drain_low", "dram.timing.tRC") and a
 * human-readable explanation of the constraint it violates.
 */
struct ConfigError
{
    std::string field;
    std::string message;
};

/**
 * Accumulator the config validators append to. Component validators
 * (SchedulerConfig, DramConfig, CacheConfig, ...) take the dotted
 * prefix of their position in the enclosing configuration so every
 * diagnostic names the exact field, regardless of nesting.
 */
class ConfigErrors
{
  public:
    /** Record that @p field (a dotted path) violates @p message. */
    void add(std::string field, std::string message);

    bool ok() const { return errors_.empty(); }

    const std::vector<ConfigError> &errors() const { return errors_; }

    /**
     * All diagnostics joined into one human-readable string, e.g.
     * "sched.write_drain_low: must be < write_drain_high (16 >= 8); ...".
     * Empty when ok().
     */
    std::string str() const;

  private:
    std::vector<ConfigError> errors_;
};

/**
 * DRAM request scheduling policy family.
 *
 * The paper's policy names map as follows:
 *  - demand-prefetch-equal == FrFcfs (plain FR-FCFS, prefetch-blind)
 *  - demand-first          == DemandFirst
 *  - prefetch-first        == PrefetchFirst (footnote 2 of the paper)
 *  - aps / PADC            == Aps (PADC = Aps + Adaptive Prefetch Dropping)
 */
enum class SchedPolicyKind : std::uint8_t
{
    FrFcfs,
    DemandFirst,
    PrefetchFirst,
    Aps,
};

/** Hardware prefetcher algorithm (Sections 2.2, 6.11 of the paper). */
enum class PrefetcherKind : std::uint8_t
{
    None,
    Stream,
    Stride,
    Cdc,
    Markov,
};

/** Row-buffer management policy (Section 6.8). */
enum class RowPolicy : std::uint8_t
{
    Open,
    Closed,
};

/**
 * First-class memory request class: the unit the priority lattice ranks.
 *
 * The paper's policies distinguish demands from prefetches (with
 * prefetches further split by per-core measured accuracy at lookup
 * time); writebacks go through the separate write queue. PtwRead and
 * DramCacheFill are reserved slots for the two-tier memory scenario
 * (page-table-walk reads and DRAM-cache fill traffic, ROADMAP): they
 * already have lattice rows in every policy table so wiring a new
 * traffic source is a producer-side change only.
 *
 * Enumerator values are a journal/stat-index contract: they index
 * per-class stat arrays and are serialized by the telemetry trace and
 * the sweep journal. Append new classes at the end and bump
 * kRequestClassCount; never renumber.
 */
enum class RequestClass : std::uint8_t
{
    DemandRead = 0,
    Prefetch = 1,
    Writeback = 2,
    PtwRead = 3,
    DramCacheFill = 4,
};

/** Number of RequestClass enumerators (bound for per-class arrays). */
inline constexpr std::size_t kRequestClassCount = 5;

/** Human-readable policy name matching the paper's figures. */
std::string toString(SchedPolicyKind kind);

/** Human-readable prefetcher name. */
std::string toString(PrefetcherKind kind);

/** Human-readable row policy name. */
std::string toString(RowPolicy policy);

/** Stable lowercase request-class name ("demand-read", "prefetch", ...). */
std::string toString(RequestClass cls);

} // namespace padc

#endif // PADC_COMMON_CONFIG_HH
