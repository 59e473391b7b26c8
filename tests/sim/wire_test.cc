/**
 * @file
 * Tests for the process-pool wire protocol: frame I/O over real pipes,
 * incremental frame reassembly (FrameBuffer), task/result/point
 * round-trips (bit-exact doubles, full-width u64s), and the
 * PADC_FAULT_INJECT parser + schedule. field_table_test.cc walks every
 * keyed and metric field through the same codec.
 */

#include "sim/wire.hh"

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "exp/json.hh"
#include "sim/journal.hh"

namespace padc::sim::wire
{
namespace
{

SweepPoint
fancyPoint()
{
    SweepPoint point;
    point.config = SystemConfig::baseline(2);
    point.config = applyPolicy(point.config, PolicySetup::Padc);
    point.config.prefetcher.degree = 7;
    point.config.sched.promotion_threshold = 0.1875;
    point.config.sched.drop_thresholds = {1, 2, 3, 4};
    point.config.sched.drop_accuracy_bounds = {0.25, 0.5, 0.75};
    point.config.dram.timing.tRCD = 13;
    point.config.dram.geometry.permutation_interleaving = true;
    point.mix = {"mcf_06", "libquantum_06"};
    point.options.instructions = 12345;
    point.options.warmup = 678;
    point.options.max_cycles = 90000;
    // Past 2^53: a double-typed JSON number would corrupt this.
    point.options.mix_seed = (1ULL << 60) + 3;
    return point;
}

std::string
encodePointDoc(const SweepPoint &point)
{
    exp::JsonWriter writer;
    writer.beginObject();
    encodePoint(writer, "point", point);
    writer.endObject();
    return writer.str();
}

TEST(WirePoint, RoundTripsEveryKeyedField)
{
    const SweepPoint point = fancyPoint();
    const std::string doc = encodePointDoc(point);

    exp::JsonValue parsed;
    std::string error;
    ASSERT_TRUE(exp::parseJson(doc, &parsed, &error)) << error;
    SweepPoint decoded;
    ASSERT_TRUE(decodePoint(*parsed.find("point"), &decoded, &error))
        << error;

    // sweepPointKey hashes every field the executor keys on; equal keys
    // means the decode lost nothing the sweep cares about.
    EXPECT_EQ(sweepPointKey(decoded), sweepPointKey(point));
    EXPECT_EQ(decoded.mix, point.mix);
    EXPECT_EQ(decoded.options.mix_seed, point.options.mix_seed);
    EXPECT_EQ(decoded.config.sched.promotion_threshold,
              point.config.sched.promotion_threshold);
}

TEST(WireTaskCodec, RunAndEvalTasksRoundTrip)
{
    WireTask task;
    task.kind = WireTask::Kind::Eval;
    task.index = (1ULL << 55) + 9;
    task.attempt = 3;
    task.point = fancyPoint();
    task.alone_base = SystemConfig::baseline(1);
    task.alone_options.instructions = 777;

    WireTask decoded;
    std::string error;
    ASSERT_TRUE(decodeTask(encodeTask(task), &decoded, &error)) << error;
    EXPECT_EQ(decoded.kind, WireTask::Kind::Eval);
    EXPECT_EQ(decoded.index, task.index);
    EXPECT_EQ(decoded.attempt, 3u);
    EXPECT_EQ(sweepPointKey(decoded.point), sweepPointKey(task.point));
    EXPECT_EQ(sweepPointKey({decoded.alone_base, {}, decoded.alone_options}),
              sweepPointKey({task.alone_base, {}, task.alone_options}));

    task.kind = WireTask::Kind::Run;
    ASSERT_TRUE(decodeTask(encodeTask(task), &decoded, &error)) << error;
    EXPECT_EQ(decoded.kind, WireTask::Kind::Run);

    EXPECT_FALSE(decodeTask("{\"padc\": \"nope\"}", &decoded, &error));
    EXPECT_FALSE(error.empty());
}

TEST(WireResultCodec, RunResultRoundTripsBitExactly)
{
    WireResult result;
    result.kind = WireTask::Kind::Run;
    result.index = 4;
    result.run.outcome.status = PointStatus::Truncated;
    result.run.outcome.detail = "cycle cap";
    CoreMetrics core;
    core.ipc = 0.1 + 0.2; // not exactly representable: bit-exactness test
    core.mpki = 17.125;
    core.spl = std::nextafter(3.0, 4.0);
    core.traffic_demand = (1ULL << 54) + 1;
    core.instructions = 123456789;
    core.cycles = 987654321;
    result.run.value.cores.push_back(core);
    result.worker = WireWorkerReport{4242, 7, (1ULL << 55) + 1, 0.1 + 0.2};

    WireResult decoded;
    std::string error;
    ASSERT_TRUE(decodeResult(encodeResult(result), &decoded, &error))
        << error;
    EXPECT_FALSE(decoded.hello);
    EXPECT_EQ(decoded.worker.pid, 4242u);
    EXPECT_EQ(decoded.worker.sim_cycles, (1ULL << 55) + 1);
    EXPECT_EQ(decoded.worker.exec_seconds, 0.1 + 0.2);
    EXPECT_EQ(decoded.index, 4u);
    EXPECT_EQ(decoded.run.outcome.status, PointStatus::Truncated);
    EXPECT_EQ(decoded.run.outcome.detail, "cycle cap");
    ASSERT_EQ(decoded.run.value.cores.size(), 1u);
    EXPECT_EQ(decoded.run.value.cores[0].ipc, core.ipc);
    EXPECT_EQ(decoded.run.value.cores[0].spl, core.spl);
    EXPECT_EQ(decoded.run.value.cores[0].traffic_demand,
              core.traffic_demand);
    EXPECT_EQ(decoded.run.value.cores[0].cycles, core.cycles);

    // The report is a required member like every other: a result frame
    // without it is rejected, naming the member.
    std::string frame = encodeResult(result);
    const std::size_t key = frame.find("\"worker\"");
    ASSERT_NE(key, std::string::npos) << frame;
    const std::size_t from = frame.rfind(',', key);
    frame.erase(from, frame.find('}', key) + 1 - from);
    EXPECT_FALSE(decodeResult(frame, &decoded, &error)) << frame;
    EXPECT_NE(error.find("worker"), std::string::npos) << error;
}

TEST(WireResultCodec, EvalResultCarriesSummaryAndHelloDecodes)
{
    WireResult result;
    result.kind = WireTask::Kind::Eval;
    result.index = 2;
    result.eval.outcome.status = PointStatus::Ok;
    result.eval.value.summary.ws = 1.75;
    result.eval.value.summary.hs = 0.875;
    result.eval.value.summary.uf = 1.0625;
    result.eval.value.summary.speedups = {1.0, 0.1 + 0.7};
    CoreMetrics core;
    core.ipc = 0.5;
    result.eval.value.metrics.cores.push_back(core);

    WireResult decoded;
    std::string error;
    ASSERT_TRUE(decodeResult(encodeResult(result), &decoded, &error))
        << error;
    EXPECT_EQ(decoded.eval.value.summary.ws, 1.75);
    EXPECT_EQ(decoded.eval.value.summary.speedups,
              result.eval.value.summary.speedups);
    ASSERT_EQ(decoded.eval.value.metrics.cores.size(), 1u);

    ASSERT_TRUE(decodeResult(encodeHello(), &decoded, &error)) << error;
    EXPECT_TRUE(decoded.hello);

    EXPECT_FALSE(decodeResult("[]", &decoded, &error));
    EXPECT_FALSE(error.empty());
}

TEST(WireFrames, RoundTripOverAPipe)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::string payload = "{\"x\": 1}";
    ASSERT_TRUE(writeFrame(fds[1], payload));
    ASSERT_TRUE(writeFrame(fds[1], std::string()));
    std::string read_back;
    ASSERT_TRUE(readFrame(fds[0], &read_back));
    EXPECT_EQ(read_back, payload);
    ASSERT_TRUE(readFrame(fds[0], &read_back));
    EXPECT_TRUE(read_back.empty());
    ::close(fds[1]);
    EXPECT_FALSE(readFrame(fds[0], &read_back)) << "EOF must fail";
    ::close(fds[0]);
}

TEST(WireFrames, OversizedLengthPrefixIsRejected)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::uint32_t huge = kMaxFramePayload + 1;
    char header[4];
    std::memcpy(header, &huge, 4);
    ASSERT_EQ(::write(fds[1], header, 4), 4);
    std::string payload;
    EXPECT_FALSE(readFrame(fds[0], &payload));
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(WireFrames, FrameBufferReassemblesAcrossArbitrarySplits)
{
    const std::string a = "{\"first\": 1}";
    const std::string b = "{\"second\": 2}";
    std::string stream;
    for (const std::string &payload : {a, b}) {
        const std::uint32_t n =
            static_cast<std::uint32_t>(payload.size());
        char header[4];
        header[0] = static_cast<char>(n & 0xff);
        header[1] = static_cast<char>((n >> 8) & 0xff);
        header[2] = static_cast<char>((n >> 16) & 0xff);
        header[3] = static_cast<char>((n >> 24) & 0xff);
        stream.append(header, 4);
        stream += payload;
    }

    // Feed one byte at a time: every split point is exercised.
    FrameBuffer frames;
    std::string got;
    std::vector<std::string> extracted;
    for (const char c : stream) {
        frames.feed(&c, 1);
        while (frames.next(&got))
            extracted.push_back(got);
    }
    ASSERT_EQ(extracted.size(), 2u);
    EXPECT_EQ(extracted[0], a);
    EXPECT_EQ(extracted[1], b);
    EXPECT_FALSE(frames.corrupt());

    const char bad[4] = {'\xff', '\xff', '\xff', '\x7f'};
    frames.feed(bad, 4);
    EXPECT_FALSE(frames.next(&got));
    EXPECT_TRUE(frames.corrupt());
}

TEST(FaultSpecParse, AcceptsTheDocumentedGrammar)
{
    FaultSpec spec = parseFaultSpec("crash:3");
    EXPECT_EQ(spec.mode, FaultSpec::Mode::Crash);
    EXPECT_EQ(spec.every, 3u);

    spec = parseFaultSpec("hang:7");
    EXPECT_EQ(spec.mode, FaultSpec::Mode::Hang);
    EXPECT_EQ(spec.every, 7u);

    spec = parseFaultSpec("exit:42:2");
    EXPECT_EQ(spec.mode, FaultSpec::Mode::Exit);
    EXPECT_EQ(spec.exit_code, 42);
    EXPECT_EQ(spec.every, 2u);

    spec = parseFaultSpec("poison:5");
    EXPECT_EQ(spec.mode, FaultSpec::Mode::Poison);
    EXPECT_EQ(spec.poison_index, 5u);

    EXPECT_FALSE(parseFaultSpec(nullptr).enabled());
    EXPECT_FALSE(parseFaultSpec("").enabled());
}

TEST(FaultSpecParse, MalformedSpecsWarnAndDisable)
{
    // Strict parse, never guess: anything off-grammar disables faults.
    testing::internal::CaptureStderr();
    EXPECT_FALSE(parseFaultSpec("crash").enabled());
    EXPECT_FALSE(parseFaultSpec("crash:").enabled());
    EXPECT_FALSE(parseFaultSpec("crash:0").enabled());
    EXPECT_FALSE(parseFaultSpec("crash:-3").enabled());
    EXPECT_FALSE(parseFaultSpec("crash:3x").enabled());
    EXPECT_FALSE(parseFaultSpec("meteor:3").enabled());
    EXPECT_FALSE(parseFaultSpec("exit:3").enabled());
    EXPECT_FALSE(parseFaultSpec("exit:999:3").enabled());
    EXPECT_FALSE(parseFaultSpec("exit:1:0").enabled());
    EXPECT_FALSE(parseFaultSpec("poison:").enabled());
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("PADC_FAULT_INJECT"), std::string::npos);
}

TEST(FaultSchedule, PeriodicModesFireOnAttemptZeroOnly)
{
    FaultSpec crash;
    crash.mode = FaultSpec::Mode::Crash;
    crash.every = 3;
    // Fires on every third index (2, 5, 8, ...) so crash:1 hits all.
    EXPECT_FALSE(faultFires(crash, 0, 0));
    EXPECT_FALSE(faultFires(crash, 1, 0));
    EXPECT_TRUE(faultFires(crash, 2, 0));
    EXPECT_TRUE(faultFires(crash, 5, 0));
    // Retries must succeed or the merged sweep could never finish.
    EXPECT_FALSE(faultFires(crash, 2, 1));
    EXPECT_FALSE(faultFires(crash, 5, 2));

    FaultSpec none;
    EXPECT_FALSE(faultFires(none, 2, 0));
}

TEST(FaultSchedule, PoisonFiresOnEveryAttemptOfOneIndex)
{
    FaultSpec poison;
    poison.mode = FaultSpec::Mode::Poison;
    poison.poison_index = 4;
    EXPECT_TRUE(faultFires(poison, 4, 0));
    EXPECT_TRUE(faultFires(poison, 4, 1));
    EXPECT_TRUE(faultFires(poison, 4, 7));
    EXPECT_FALSE(faultFires(poison, 3, 0));
    EXPECT_FALSE(faultFires(poison, 5, 0));
}

} // namespace
} // namespace padc::sim::wire
