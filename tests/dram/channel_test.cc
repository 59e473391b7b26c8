/**
 * @file
 * Unit tests for channel-level DRAM constraints: command bus, data bus,
 * tCCD, tRRD, the tFAW window, write/read turnaround, and refresh; and
 * the property that the channel's ready cycles are exactly its legality.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "dram/channel.hh"

namespace padc::dram
{
namespace
{

class ChannelTest : public ::testing::Test
{
  protected:
    ChannelTest() : channel_(timing_, 8) {}

    Cycle
    cpu(std::uint32_t dram_cycles) const
    {
        return timing_.toCpu(dram_cycles);
    }

    /** Advance to the first DRAM-aligned cycle >= from where pred holds. */
    template <typename Pred>
    Cycle
    firstCycle(Cycle from, Pred pred)
    {
        Cycle t = from;
        while (!pred(t))
            t += timing_.cpu_per_dram_cycle;
        return t;
    }

    TimingParams timing_;
    Channel channel_;
};

TEST_F(ChannelTest, CommandBusSerializesCommands)
{
    ASSERT_TRUE(channel_.canActivate(0, 0));
    channel_.activate(0, 1, 0);
    // Any command must wait at least one DRAM command-clock cycle.
    EXPECT_FALSE(channel_.commandBusFree(0));
    EXPECT_FALSE(channel_.commandBusFree(cpu(1) - 1));
    EXPECT_TRUE(channel_.commandBusFree(cpu(1)));
    // An activate to another bank is additionally gated by tRRD.
    EXPECT_FALSE(channel_.canActivate(1, cpu(1)));
    EXPECT_TRUE(channel_.canActivate(1, cpu(timing_.tRRD)));
}

TEST_F(ChannelTest, RowHitTracking)
{
    channel_.activate(3, 77, 0);
    EXPECT_TRUE(channel_.isRowHit(3, 77));
    EXPECT_FALSE(channel_.isRowHit(3, 78));
    EXPECT_FALSE(channel_.isRowHit(4, 77));
    EXPECT_EQ(channel_.openRow(3), 77u);
    EXPECT_EQ(channel_.openRow(4), kNoOpenRow);
}

TEST_F(ChannelTest, TrrdBetweenActivates)
{
    channel_.activate(0, 1, 0);
    EXPECT_FALSE(channel_.canActivate(1, cpu(timing_.tRRD) - 1));
    EXPECT_TRUE(channel_.canActivate(1, cpu(timing_.tRRD)));
}

TEST_F(ChannelTest, TfawLimitsFourActivates)
{
    // Issue four activates as fast as tRRD allows.
    Cycle t = 0;
    for (std::uint32_t bank = 0; bank < 4; ++bank) {
        t = firstCycle(t, [&](Cycle c) { return channel_.canActivate(bank, c); });
        channel_.activate(bank, 1, t);
    }
    // The fifth activate must wait until tFAW after the first.
    const Cycle fifth = firstCycle(
        t, [&](Cycle c) { return channel_.canActivate(4, c); });
    EXPECT_GE(fifth, cpu(timing_.tFAW));
}

TEST_F(ChannelTest, TccdBetweenColumnCommands)
{
    // Open the same row in two banks far enough apart that tRCD is long
    // met for both by the time the first column command goes out.
    channel_.activate(0, 1, 0);
    channel_.activate(1, 1, cpu(timing_.tRRD));
    const Cycle both_ready =
        cpu(timing_.tRRD) + cpu(timing_.tRCD) + cpu(20);
    channel_.column(0, false, false, both_ready);
    // Bank 1 is tRCD-ready, but tCCD gates the second column command.
    EXPECT_FALSE(channel_.canColumn(1, false, both_ready + cpu(1)));
    EXPECT_TRUE(channel_.canColumn(1, false,
                                   both_ready + cpu(timing_.tCCD)));
}

TEST_F(ChannelTest, ColumnReturnsDataEnd)
{
    channel_.activate(0, 1, 0);
    const Cycle col = firstCycle(
        0, [&](Cycle c) { return channel_.canColumn(0, false, c); });
    const Cycle data_end = channel_.column(0, false, false, col);
    EXPECT_EQ(data_end, col + cpu(timing_.tCL) + cpu(timing_.tBURST));
}

TEST_F(ChannelTest, WriteToReadTurnaround)
{
    channel_.activate(0, 1, 0);
    const Cycle col = firstCycle(
        0, [&](Cycle c) { return channel_.canColumn(0, true, c); });
    const Cycle wr_end = channel_.column(0, true, false, col);
    // A read column command must wait tWTR past the write data.
    const Cycle rd_ok = wr_end + cpu(timing_.tWTR);
    EXPECT_FALSE(channel_.canColumn(0, false, rd_ok - cpu(1)));
    EXPECT_TRUE(channel_.canColumn(0, false, rd_ok));
}

TEST_F(ChannelTest, ReadToWriteGatedByReadDrain)
{
    channel_.activate(0, 1, 0);
    const Cycle col = firstCycle(
        0, [&](Cycle c) { return channel_.canColumn(0, false, c); });
    const Cycle rd_end = channel_.column(0, false, false, col);
    EXPECT_FALSE(channel_.canColumn(0, true, rd_end - cpu(1)));
    EXPECT_TRUE(channel_.canColumn(0, true, rd_end));
}

TEST_F(ChannelTest, RefreshDisabledByDefault)
{
    EXPECT_FALSE(channel_.refreshDue(1000000));
}

TEST(ChannelRefreshTest, RefreshClosesAllBanksAndRecurs)
{
    TimingParams timing;
    timing.refresh_enabled = true;
    Channel channel(timing, 4);
    const Cycle due = timing.toCpu(timing.tREFI);
    EXPECT_FALSE(channel.refreshDue(due - 1));
    ASSERT_TRUE(channel.refreshDue(due));

    channel.activate(2, 9, 0);
    channel.refresh(due);
    EXPECT_EQ(channel.openRow(2), kNoOpenRow);
    EXPECT_EQ(channel.stats().refreshes, 1u);
    // Banks blocked for tRFC.
    EXPECT_FALSE(channel.canActivate(0, due + timing.toCpu(timing.tRFC) -
                                            timing.cpu_per_dram_cycle));
    EXPECT_TRUE(channel.canActivate(0, due + timing.toCpu(timing.tRFC)));
    // Next refresh one interval later.
    EXPECT_FALSE(channel.refreshDue(due + 1));
    EXPECT_TRUE(channel.refreshDue(2 * timing.toCpu(timing.tREFI)));
}

TEST_F(ChannelTest, StatsAggregate)
{
    channel_.activate(0, 1, 0);
    const Cycle col = firstCycle(
        0, [&](Cycle c) { return channel_.canColumn(0, false, c); });
    channel_.column(0, false, false, col);
    const Cycle pre = firstCycle(
        col, [&](Cycle c) { return channel_.canPrecharge(0, c); });
    channel_.precharge(0, pre);
    EXPECT_EQ(channel_.stats().activates, 1u);
    EXPECT_EQ(channel_.stats().reads, 1u);
    EXPECT_EQ(channel_.stats().precharges, 1u);
    EXPECT_EQ(channel_.stats().writes, 0u);
}

/**
 * Property: back-to-back row-hit reads to one bank stream at the data-bus
 * rate (one line per max(tCCD, tBURST) DRAM cycles) once the pipeline
 * fills -- the "row-hit maximizes throughput" premise of the paper.
 */
TEST_F(ChannelTest, RowHitStreamingRate)
{
    channel_.activate(0, 5, 0);
    Cycle t = 0;
    Cycle last_issue = 0;
    std::vector<Cycle> issues;
    for (int i = 0; i < 10; ++i) {
        t = firstCycle(t, [&](Cycle c) {
            return channel_.canColumn(0, false, c);
        });
        channel_.column(0, false, false, t);
        issues.push_back(t);
        last_issue = t;
    }
    (void)last_issue;
    const Cycle gap = cpu(std::max(timing_.tCCD, timing_.tBURST));
    for (std::size_t i = 2; i < issues.size(); ++i)
        EXPECT_EQ(issues[i] - issues[i - 1], gap);
}

/**
 * Property: readiness equals legality. The memory controller schedules
 * from the ready cycles alone and never calls can*(), so after every
 * command of a random legal sequence, for every bank and every cycle of
 * a window, canX(b, t) must hold iff X's open/closed precondition does
 * and t has reached both bankReadyX(b) and X's channel-global ready
 * cycle. The sequence alternates activate bursts (tFAW windows), column
 * phases (read<->write turnarounds) and mixed phases, with refreshes. A
 * burst longer than tCCD lets the data bus, not tCCD, gate columns.
 */
TEST(ChannelReadiness, ReadyCyclesEqualLegality)
{
    TimingParams timing;
    timing.tBURST = 4;
    timing.refresh_enabled = true;
    timing.tREFI = 200;
    Channel channel(timing, 8);
    const Cycle step = timing.cpu_per_dram_cycle;
    // Longer than every gate a command or refresh can set.
    const Cycle window = timing.toCpu(timing.tRFC + timing.tRC);

    const auto check = [&](Cycle from) {
        for (std::uint32_t b = 0; b < channel.numBanks(); ++b) {
            const bool open = channel.openRow(b) != kNoOpenRow;
            const Cycle act = std::max(channel.bankReadyActivate(b),
                                       channel.activateGlobalReadyAt());
            const Cycle pre = std::max(channel.bankReadyPrecharge(b),
                                       channel.commandBusFreeAt());
            const Cycle rd = std::max(channel.bankReadyColumn(b),
                                      channel.readColumnGlobalReadyAt());
            const Cycle wr = std::max(channel.bankReadyColumn(b),
                                      channel.writeColumnGlobalReadyAt());
            for (Cycle t = from; t < from + window; ++t) {
                ASSERT_EQ(channel.canActivate(b, t), !open && t >= act)
                    << "activate, bank " << b << ", cycle " << t;
                ASSERT_EQ(channel.canPrecharge(b, t), open && t >= pre)
                    << "precharge, bank " << b << ", cycle " << t;
                ASSERT_EQ(channel.canColumn(b, false, t), open && t >= rd)
                    << "read, bank " << b << ", cycle " << t;
                ASSERT_EQ(channel.canColumn(b, true, t), open && t >= wr)
                    << "write, bank " << b << ", cycle " << t;
            }
        }
    };

    enum Kind { Act, Pre, Read, Write };
    struct Command
    {
        Kind kind;
        std::uint32_t bank;
    };
    Rng rng(0x5EAD1);
    std::vector<Cycle> acts;
    std::size_t faw_bound = 0;   // activates tFAW (not tRRD) held back
    std::size_t turnarounds = 0; // read after write or write after read
    std::size_t refreshes = 0;
    Kind last_column = Read;
    std::size_t commands = 0;
    for (Cycle now = 0; commands < 800; now += step) {
        if (channel.refreshDue(now)) {
            if (channel.commandBusFree(now)) {
                channel.refresh(now);
                ++refreshes;
                check(now);
            }
            continue;
        }
        std::vector<Command> legal;
        for (std::uint32_t b = 0; b < channel.numBanks(); ++b) {
            if (channel.canActivate(b, now))
                legal.push_back({Act, b});
            if (channel.canPrecharge(b, now))
                legal.push_back({Pre, b});
            if (channel.canColumn(b, false, now))
                legal.push_back({Read, b});
            if (channel.canColumn(b, true, now))
                legal.push_back({Write, b});
        }
        // Phases of 60 DRAM cycles: activate bursts open every bank they
        // can (precharging to make room); column phases stream reads,
        // then writes (or the reverse), waiting out the turnaround;
        // mixed phases pick anything or idle.
        const std::uint64_t phase = now / timing.toCpu(60) % 3;
        const Kind direction =
            now / timing.toCpu(30) % 2 != 0 ? Write : Read;
        std::vector<Command> wanted;
        for (const Command &cmd : legal) {
            const bool column = cmd.kind == Read || cmd.kind == Write;
            if (phase == 0 ? !column : phase == 2 || cmd.kind == direction)
                wanted.push_back(cmd);
        }
        if (wanted.empty() || (phase == 2 && rng.chance(0.3)))
            continue;
        const Command cmd = wanted[rng.nextBelow(wanted.size())];
        switch (cmd.kind) {
          case Act:
            if (acts.size() >= 4 &&
                now == acts[acts.size() - 4] + timing.toCpu(timing.tFAW) &&
                now > acts.back() + timing.toCpu(timing.tRRD)) {
                ++faw_bound;
            }
            acts.push_back(now);
            channel.activate(cmd.bank, rng.nextBelow(16), now);
            break;
          case Pre:
            channel.precharge(cmd.bank, now);
            break;
          case Read:
          case Write:
            turnarounds += cmd.kind != last_column ? 1 : 0;
            last_column = cmd.kind;
            channel.column(cmd.bank, cmd.kind == Write, rng.chance(0.2),
                           now);
            break;
        }
        ++commands;
        check(now);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(faw_bound, 0u) << "no activate waited on tFAW";
    EXPECT_GT(turnarounds, 0u);
    EXPECT_GT(refreshes, 0u);
}

} // namespace
} // namespace padc::dram
