#include "core/core.hh"

#include <algorithm>
#include <cassert>

namespace padc::core
{

void
CoreConfig::validate(ConfigErrors &errors, const std::string &prefix) const
{
    if (window_size == 0)
        errors.add(prefix + ".window_size", "must be >= 1");
    if (retire_width == 0)
        errors.add(prefix + ".retire_width", "must be >= 1");
    if (fetch_width == 0)
        errors.add(prefix + ".fetch_width", "must be >= 1");
    if (lsq_size == 0)
        errors.add(prefix + ".lsq_size", "must be >= 1");
    if (mem_issue_width == 0)
        errors.add(prefix + ".mem_issue_width", "must be >= 1");
    if (runahead && runahead_max_ops == 0)
        errors.add(prefix + ".runahead_max_ops",
                   "must be >= 1 when runahead is enabled");
}

Core::Core(CoreId id, const CoreConfig &config, TraceSource &trace,
           MemoryPort &port)
    : id_(id), config_(config), trace_(trace), port_(port)
{
}

TraceOp
Core::nextOp()
{
    if (!replay_q_.empty()) {
        TraceOp op = replay_q_.front();
        replay_q_.pop_front();
        if (ra_pos_ > 0)
            --ra_pos_; // keep the runahead scan position aligned
        return op;
    }
    return trace_.next();
}

void
Core::retire(Cycle now)
{
    std::uint32_t budget = config_.retire_width;
    while (budget > 0 && !rob_.empty()) {
        RobEntry &head = rob_.front();

        if (!head.is_mem) {
            const std::uint32_t take = std::min(head.compute_left, budget);
            head.compute_left -= take;
            budget -= take;
            stats_.instructions += take;
            instrs_in_window_ -= take;
            if (head.compute_left == 0) {
                rob_.pop_front();
                continue;
            }
            break; // budget exhausted mid-block
        }

        if (head.is_load) {
            const bool done =
                head.issued && (head.complete || head.ready <= now);
            if (!done) {
                ++stats_.load_stall_cycles;
                if (config_.runahead && !runahead_active_ &&
                    head.pending_miss && head.issued) {
                    runahead_active_ = true;
                    runahead_blocking_tag_ = head.tag;
                    runahead_ops_this_episode_ = 0;
                    ra_pos_ = 0;
                    ra_have_op_ = false;
                    ++stats_.runahead_episodes;
                }
                break;
            }
            ++stats_.loads;
        } else {
            if (!head.issued)
                break; // store buffer entry not yet accepted by memory
            // Stores retire once issued; completion is not awaited. If
            // the miss is still outstanding, orphan its pending entry so
            // the completion callback does not touch a popped ROB slot.
            if (head.pending_miss && !head.complete) {
                for (auto &p : pending_) {
                    if (p.first == head.tag) {
                        p.second = nullptr;
                        break;
                    }
                }
            }
            ++stats_.stores;
        }
        ++stats_.instructions;
        --instrs_in_window_;
        --budget;
        rob_.pop_front();
    }
}

void
Core::fetch(Cycle now)
{
    (void)now;
    if (runahead_active_)
        return; // the front end is busy pseudo-executing

    std::uint32_t budget = config_.fetch_width;
    while (budget > 0 && instrs_in_window_ < config_.window_size) {
        if (!have_current_op_) {
            current_op_ = nextOp();
            compute_left_ = current_op_.compute_gap;
            have_current_op_ = true;
        }

        if (compute_left_ > 0) {
            const std::uint32_t take =
                std::min({budget, compute_left_,
                          config_.window_size - instrs_in_window_});
            if (take == 0)
                break;
            if (!rob_.empty() && !rob_.back().is_mem) {
                rob_.back().compute_left += take;
            } else {
                RobEntry entry;
                entry.is_mem = false;
                entry.compute_left = take;
                rob_.push_back(entry);
            }
            instrs_in_window_ += take;
            budget -= take;
            compute_left_ -= take;
            continue;
        }

        // The memory operation itself (one instruction).
        RobEntry entry;
        entry.is_mem = true;
        entry.is_load = current_op_.is_load;
        entry.dependent = current_op_.dependent;
        entry.addr = current_op_.addr;
        entry.pc = current_op_.pc;
        entry.tag = next_tag_++;
        rob_.push_back(entry);
        issue_q_.push_back(&rob_.back());
        ++instrs_in_window_;
        --budget;
        have_current_op_ = false;
    }
}

void
Core::issue(Cycle now)
{
    issue_parked_ = false;
    std::uint32_t issued = 0;
    while (!issue_q_.empty() && issued < config_.mem_issue_width &&
           mem_ops_in_flight_ < config_.lsq_size) {
        RobEntry *entry = issue_q_.front();
        // Address dependence: the op's address is produced by an older
        // memory op, so it cannot issue until outstanding misses drain.
        if (entry->dependent && mem_ops_in_flight_ > 0)
            break;
        const AccessReply reply = port_.access(
            id_, entry->addr, entry->pc, entry->is_load, entry->tag,
            /*runahead=*/false, now);
        if (reply.status == AccessStatus::Retry) {
            ++stats_.issue_retries;
            issue_parked_ = reply.park;
            break; // resources full; keep in-order issue attempts
        }
        entry->issued = true;
        if (reply.status == AccessStatus::Complete) {
            entry->ready = reply.ready;
        } else {
            entry->pending_miss = true;
            pending_.emplace_back(entry->tag, entry);
            ++mem_ops_in_flight_;
        }
        issue_q_.pop_front();
        ++stats_.mem_ops_issued;
        ++issued;
    }
}

void
Core::runaheadStep(Cycle now)
{
    std::uint32_t budget = config_.fetch_width;
    std::uint32_t issued = 0;

    while (budget > 0 &&
           runahead_ops_this_episode_ < config_.runahead_max_ops) {
        if (!ra_have_op_) {
            if (ra_pos_ < replay_q_.size()) {
                ra_op_ = replay_q_[ra_pos_];
            } else {
                ra_op_ = trace_.next();
                replay_q_.push_back(ra_op_);
            }
            ra_compute_left_ = ra_op_.compute_gap;
            ra_have_op_ = true;
        }

        if (ra_compute_left_ > 0) {
            const std::uint32_t take = std::min(budget, ra_compute_left_);
            budget -= take;
            ra_compute_left_ -= take;
            continue;
        }

        if (ra_op_.is_load && !ra_op_.dependent) {
            // Dependent loads cannot be executed in runahead mode (their
            // addresses hang off the very miss being waited on) -- the
            // classic runahead limitation.
            if (issued >= config_.mem_issue_width ||
                runahead_in_flight_ >= config_.lsq_size) {
                break;
            }
            const std::uint64_t tag = next_tag_++;
            const AccessReply reply =
                port_.access(id_, ra_op_.addr, ra_op_.pc, true, tag,
                             /*runahead=*/true, now);
            if (reply.status == AccessStatus::Retry) {
                ++stats_.issue_retries;
                break;
            }
            if (reply.status == AccessStatus::Pending) {
                pending_.emplace_back(tag, nullptr);
                runahead_tags_.insert(tag);
                ++runahead_in_flight_;
            }
            ++issued;
            ++stats_.runahead_ops_issued;
        }
        // Stores are consumed but not issued during runahead (no data to
        // write speculatively); their lines are usually fetched by the
        // surrounding loads anyway.
        ++ra_pos_;
        ++runahead_ops_this_episode_;
        --budget;
        ra_have_op_ = false;
    }
}

void
Core::completeLoad(std::uint64_t tag, Cycle now)
{
    auto it = pending_.begin();
    while (it != pending_.end() && it->first != tag)
        ++it;
    assert(it != pending_.end());
    RobEntry *entry = it->second;
    *it = pending_.back();
    pending_.pop_back();

    if (!runahead_tags_.empty() && runahead_tags_.erase(tag) > 0) {
        assert(runahead_in_flight_ > 0);
        --runahead_in_flight_;
    } else {
        if (entry != nullptr) {
            entry->complete = true;
            entry->ready = now;
        }
        assert(mem_ops_in_flight_ > 0);
        --mem_ops_in_flight_;
    }

    if (runahead_active_ && tag == runahead_blocking_tag_)
        runahead_active_ = false;
    issue_parked_ = false;
}

void
Core::tick(Cycle now)
{
    retire(now);
    if (runahead_active_)
        runaheadStep(now);
    fetch(now);
    issue(now);
}

bool
Core::issueCanAct() const
{
    if (issue_q_.empty() || issue_parked_)
        return false;
    const RobEntry *front = issue_q_.front();
    return !(front->dependent && mem_ops_in_flight_ > 0) &&
           mem_ops_in_flight_ < config_.lsq_size;
}

std::uint64_t
Core::stretchCycles(std::uint64_t retire_goal) const
{
    // A stretch cycle must leave everything but four counters as it
    // found it: retire takes exactly R from the head block without
    // emptying it, fetch merges exactly R of the current op's compute
    // into the back block (F == R refills what retire freed; with
    // F > R only a full window holds fetch to R), and issue is idle.
    // Nothing else can change the state inside the stretch: a
    // completion or an unpark resets the System's cached bound.
    const std::uint32_t r = config_.retire_width;
    const RobEntry &head = rob_.front();
    const bool one_block = rob_.size() == 1;
    const bool steady =
        config_.fetch_width == r ||
        (config_.fetch_width > r &&
         instrs_in_window_ == config_.window_size);
    if (!have_current_op_ || compute_left_ < r || rob_.back().is_mem ||
        !steady || issueCanAct() || (one_block && head.compute_left < r))
        return 0;
    // The stretch ends before the op's compute runs out, before the
    // head block empties (a lone block is refilled as fast as it
    // drains), and before the goal is reached; flooring by R commutes
    // with min, so one division serves all three.
    std::uint64_t room = compute_left_;
    if (!one_block)
        room = std::min<std::uint64_t>(room, head.compute_left - 1);
    if (retire_goal > stats_.instructions)
        room = std::min(room, retire_goal - stats_.instructions - 1);
    return static_cast<std::uint32_t>(room) / r;
}

Cycle
Core::nextEventCycle(Cycle from, std::uint64_t retire_goal) const
{
    if (runahead_active_)
        return from; // pseudo-execution consumes trace every cycle

    if (!rob_.empty()) {
        const RobEntry &head = rob_.front();
        if (!head.is_mem)
            return from + stretchCycles(retire_goal);
        if (head.is_load) {
            if (head.issued && (head.complete || head.ready <= from))
                return from; // head retires this cycle
            if (config_.runahead && head.pending_miss && head.issued)
                return from; // a stalled tick would start runahead
        } else if (head.issued) {
            return from; // stores retire once issued
        }
    }

    if (instrs_in_window_ < config_.window_size)
        return from; // fetch makes progress (trace sources never run dry)

    // An issue attempt has observable side effects (port access, retry
    // accounting) even when it bounces, so a cycle with one cannot be
    // skipped -- unless it is parked: then it bounces identically every
    // cycle until the memory port unparks the core, and skipped cycles
    // replay its counters (accountIdleCycles here, the port's own in the
    // System) instead.
    if (issueCanAct())
        return from;

    // Fully stalled. A head load with a known completion time wakes the
    // core at that cycle; everything else waits on a completeLoad()
    // driven by a memory-controller event, which the controller's own
    // next-event computation already bounds.
    if (!rob_.empty()) {
        const RobEntry &head = rob_.front();
        if (head.is_mem && head.is_load && head.issued && !head.complete &&
            head.ready != kNeverCycle) {
            return head.ready;
        }
    }
    return kNeverCycle;
}

void
Core::accountIdleCycles(std::uint64_t cycles)
{
    // The gap invariant guarantees every skipped tick saw the state the
    // bound was taken from: a compute head was in a stretch (moving R
    // instructions per cycle from the op into the back block and from
    // the head block out), a memory head was the same not-yet-done
    // load or a store, and a parked issue stage made the same bounce.
    if (!rob_.empty()) {
        RobEntry &head = rob_.front();
        if (!head.is_mem) {
            const auto moved =
                static_cast<std::uint32_t>(cycles * config_.retire_width);
            if (rob_.size() > 1) {
                head.compute_left -= moved;
                rob_.back().compute_left += moved;
            }
            compute_left_ -= moved;
            stats_.instructions += moved;
        } else if (head.is_load) {
            stats_.load_stall_cycles += cycles;
        }
    }
    if (issue_parked_)
        stats_.issue_retries += cycles;
}

} // namespace padc::core
