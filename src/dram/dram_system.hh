/**
 * @file
 * DRAM device facade: address map plus one Channel per configured
 * channel. Each memory controller in the system drives exactly one
 * channel (the paper's dual-controller experiments instantiate two).
 */

#ifndef PADC_DRAM_DRAM_SYSTEM_HH
#define PADC_DRAM_DRAM_SYSTEM_HH

#include <memory>
#include <vector>

#include "common/config.hh"
#include "dram/address_map.hh"
#include "dram/channel.hh"
#include "dram/timing.hh"

namespace padc::dram
{

/** Complete DRAM configuration. */
struct DramConfig
{
    TimingParams timing;
    Geometry geometry;

    /**
     * Append one diagnostic per violated timing/geometry constraint
     * under @p prefix. Produces no errors exactly when both
     * TimingParams::valid() and Geometry::valid() hold.
     */
    void validate(ConfigErrors &errors, const std::string &prefix) const;
};

/** DramConfig's field table; see common/fields.hh. */
template <fields::Of<DramConfig> S, typename V>
constexpr void
forEachField(S &s, V &&v)
{
    v("timing", s.timing);
    v("geometry", s.geometry);
}
static_assert(fields::complete<DramConfig>());

/**
 * The DRAM device array visible to the memory controllers.
 *
 * Owns the timing parameters, the address map, and the per-channel bank
 * arrays. Thread-free, tick-free: channels are advanced implicitly by
 * the cycle timestamps controllers pass into their methods.
 */
class DramSystem
{
  public:
    explicit DramSystem(const DramConfig &config);

    const DramConfig &config() const { return config_; }

    const AddressMap &addressMap() const { return map_; }

    std::uint32_t numChannels() const
    {
        return static_cast<std::uint32_t>(channels_.size());
    }

    Channel &channel(std::uint32_t idx) { return *channels_[idx]; }
    const Channel &channel(std::uint32_t idx) const { return *channels_[idx]; }

    /** Map a byte address to its DRAM coordinates. */
    DramCoord map(Addr addr) const { return map_.map(addr); }

    /** Aggregate statistics over all channels. */
    ChannelStats totalStats() const;

  private:
    DramConfig config_;
    AddressMap map_;
    std::vector<std::unique_ptr<Channel>> channels_;
};

} // namespace padc::dram

#endif // PADC_DRAM_DRAM_SYSTEM_HH
