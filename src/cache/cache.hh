/**
 * @file
 * Set-associative write-back cache with per-line Prefetch (P) bits.
 *
 * This is the storage building block used for both the per-core L1D and
 * the (private or shared) L2. Besides the usual tag/valid/dirty state,
 * every line tracks:
 *  - the P bit (line was brought in by a prefetch and not yet used),
 *  - the owning core (whose prefetcher fetched it),
 *  - whether its fill was serviced as a DRAM row-hit (for the RBHU
 *    metric of paper Section 6.1.1),
 *  - the memory service time of its fill (for the Fig. 4(a) histogram).
 *
 * The cache is a passive structure: hit/miss/fill/evict bookkeeping only.
 * Orchestration (MSHRs, prefetch-usefulness counting, writebacks) lives
 * in sim::System.
 */

#ifndef PADC_CACHE_CACHE_HH
#define PADC_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/fields.hh"
#include "common/types.hh"
#include "cache/replacement.hh"

namespace padc::cache
{

/** Cache geometry and latency. */
struct CacheConfig
{
    std::uint64_t size_bytes = 512 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t hit_latency = 15; ///< processor cycles
    ReplPolicyKind repl = ReplPolicyKind::Lru;

    std::uint32_t sets() const
    {
        return static_cast<std::uint32_t>(size_bytes / (kLineBytes * ways));
    }

    bool valid() const;

    /**
     * Append a structured diagnostic per violated constraint, with
     * field paths under @p prefix (e.g. "l2.ways"). valid() is
     * equivalent to validate() producing no errors.
     */
    void validate(ConfigErrors &errors, const std::string &prefix) const;
};

/** CacheConfig's field table; see common/fields.hh. */
template <fields::Of<CacheConfig> S, typename V>
constexpr void
forEachField(S &s, V &&v)
{
    v("size_bytes", s.size_bytes);
    v("ways", s.ways);
    v("hit_latency", s.hit_latency);
    v("repl", s.repl);
}
static_assert(fields::complete<CacheConfig>());

/**
 * Per-line metadata. The line's address and validity are not here: the
 * cache keeps them in its tag column, so a lookup scans packed tags.
 */
struct Line
{
    bool dirty = false;

    /** P bit: filled by a prefetch and not yet referenced by a demand. */
    bool prefetched = false;

    CoreId owner = 0; ///< core whose request filled the line

    Addr pc = 0; ///< PC of the instruction that triggered the fill
                 ///< (used by the DDPF prefetch-filter history updates)

    bool fill_row_hit = false;      ///< fill was a DRAM row-hit
    std::uint32_t service_time = 0; ///< memory service time of the fill

    std::uint64_t stamp = 0; ///< recency (larger = newer)
};
static_assert(sizeof(Line) <= 32, "a line's address lives in the tag "
                                  "column, not in Line");

/** Result of inserting a line: describes the evicted victim, if any. */
struct EvictResult
{
    bool valid = false;  ///< a victim line was evicted
    Addr line_addr = kInvalidAddr;
    bool dirty = false;
    bool prefetched_unused = false; ///< victim had its P bit still set
    CoreId owner = 0;
    Addr pc = 0; ///< fill PC of the victim (for DDPF updates)
    std::uint32_t service_time = 0;
};

/** Hit/miss and fill counters. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirty_evictions = 0;
    std::uint64_t useless_evictions = 0; ///< P-bit lines evicted unused
};

/**
 * The cache array. All methods take line-aligned or raw byte addresses;
 * alignment is applied internally.
 */
class SetAssocCache
{
  public:
    SetAssocCache(const CacheConfig &config, std::string name);

    /** Presence check without any state change (used by prefetch issue). */
    bool probe(Addr addr) const;

    /**
     * Look up @p addr for a demand access. On a hit the line's recency is
     * updated and it is returned (so the caller can read/clear the P bit
     * and set dirty); on a miss nullptr is returned. Hit/miss statistics
     * are updated.
     */
    Line *access(Addr addr);

    /** Look up without statistics or recency update (for inspection). */
    Line *peek(Addr addr);
    const Line *peek(Addr addr) const;

    /**
     * Insert a line, evicting a victim if the set is full.
     *
     * @param addr       address of the new line
     * @param owner      core responsible for the fill
     * @param pc         PC of the instruction that triggered the fill
     * @param prefetched initial P-bit value
     * @param fill_row_hit the DRAM service of this fill was a row-hit
     * @param service_time memory service time of the fill, in cycles
     * @return description of the evicted victim (valid == false if none)
     */
    EvictResult fill(Addr addr, CoreId owner, Addr pc, bool prefetched,
                     bool fill_row_hit, std::uint32_t service_time);

    /**
     * Remove the line holding @p addr if present (back-invalidation).
     * @return true if the removed line was dirty.
     */
    bool invalidate(Addr addr);

    /**
     * Count @p n demand misses without a lookup: the replay of accesses
     * that provably miss (a core's skipped retries of a bounced access).
     */
    void addMisses(std::uint64_t n) { stats_.misses += n; }

    const CacheStats &stats() const { return stats_; }

    const CacheConfig &config() const { return config_; }

    const std::string &name() const { return name_; }

    /**
     * Visit every valid line (end-of-run accounting of still-unused
     * prefetched lines).
     */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != kInvalidAddr)
                fn(lines_[i]);
        }
    }

  private:
    /** Index of @p line_addr's first way in tags_ and lines_. */
    std::size_t setBase(Addr line_addr) const;
    Line *lookup(Addr addr);

    CacheConfig config_;
    std::string name_;
    std::uint64_t set_mask_; ///< sets - 1 (the set count is a power of 2)
    std::vector<Line> lines_; ///< metadata, sets x ways, set-major
    /** Line address per way of lines_ (kInvalidAddr = invalid). */
    std::vector<Addr> tags_;
    ReplacementPolicy repl_;
    std::uint64_t next_stamp_ = 1;
    CacheStats stats_;
};

} // namespace padc::cache

#endif // PADC_CACHE_CACHE_HH
