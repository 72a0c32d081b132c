/**
 * @file Tests for the crossbar timing/contention model and the
 * saturating Tick arithmetic its Resource reservations use.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/logging.hh"
#include "common/types.hh"
#include "net/network.hh"

using namespace vcoma;

namespace
{

TimingConfig
paperTiming()
{
    return TimingConfig{};
}

} // namespace

TEST(Resource, AcquireSequencing)
{
    Resource r;
    EXPECT_EQ(r.acquire(100, 10), 100u);
    EXPECT_EQ(r.freeAt(), 110u);
    // A later request waits for the earlier occupancy.
    EXPECT_EQ(r.acquire(105, 10), 110u);
    // A much later request starts immediately.
    EXPECT_EQ(r.acquire(500, 10), 500u);
}

TEST(SaturatingMath, AddSaturatesInsteadOfWrapping)
{
    constexpr std::uint64_t top =
        std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(saturatingAdd(1, 2), 3u);
    EXPECT_EQ(saturatingAdd(top, 0), top);
    EXPECT_EQ(saturatingAdd(top, 1), top);
    EXPECT_EQ(saturatingAdd(top - 5, 10), top);
    EXPECT_EQ(saturatingAdd(top / 2, top / 2 + 1), top);
    EXPECT_EQ(saturatingAdd(0, top), top);
}

TEST(SaturatingMath, ResourceAcquireNeverWrapsFreeTime)
{
    constexpr Tick top = std::numeric_limits<Tick>::max();
    Resource r;
    // A malformed huge reservation pins the resource at "never free"
    // instead of wrapping into the past and granting free slots.
    EXPECT_EQ(r.acquire(top - 10, 100), top - 10);
    EXPECT_EQ(r.freeAt(), top);
    // Later acquires queue behind the saturated time, monotonic.
    EXPECT_EQ(r.acquire(0, 5), top);
    EXPECT_EQ(r.freeAt(), top);
    r.reset();
    EXPECT_EQ(r.acquire(10, 5), 10u);
    EXPECT_EQ(r.freeAt(), 15u);
}

TEST(Network, UncontendedLatencies)
{
    Network net(4, paperTiming());
    EXPECT_EQ(net.send(0, 1, MsgSize::Request, 1000), 1016u);
    EXPECT_EQ(net.send(2, 3, MsgSize::Block, 1000), 1272u);
}

TEST(Network, LoopbackIsFree)
{
    Network net(4, paperTiming());
    EXPECT_EQ(net.send(1, 1, MsgSize::Block, 77), 77u);
    EXPECT_EQ(net.localMessages.value(), 1u);
    EXPECT_EQ(net.blockMessages.value(), 1u);
}

TEST(Network, OutputPortSerialises)
{
    Network net(4, paperTiming());
    const Tick first = net.send(0, 1, MsgSize::Block, 0);
    const Tick second = net.send(0, 2, MsgSize::Block, 0);
    EXPECT_EQ(first, 272u);
    // The second message waits for the sender's port.
    EXPECT_EQ(second, 544u);
}

TEST(Network, InputPortSerialises)
{
    Network net(4, paperTiming());
    const Tick a = net.send(0, 3, MsgSize::Request, 0);
    const Tick b = net.send(1, 3, MsgSize::Request, 0);
    EXPECT_EQ(a, 16u);
    // Distinct senders, same receiver: the input port backs up.
    EXPECT_GE(b, a);
}

TEST(Network, DisjointPairsDoNotInterfere)
{
    Network net(4, paperTiming());
    const Tick a = net.send(0, 1, MsgSize::Block, 0);
    const Tick b = net.send(2, 3, MsgSize::Block, 0);
    EXPECT_EQ(a, b);  // a crossbar carries both concurrently
}

TEST(Network, MessageCounters)
{
    Network net(2, paperTiming());
    net.send(0, 1, MsgSize::Request, 0);
    net.send(0, 1, MsgSize::Request, 0);
    net.send(1, 0, MsgSize::Block, 0);
    EXPECT_EQ(net.requestMessages.value(), 2u);
    EXPECT_EQ(net.blockMessages.value(), 1u);
}

TEST(Network, ResetClearsReservations)
{
    Network net(2, paperTiming());
    net.send(0, 1, MsgSize::Block, 0);
    net.reset();
    EXPECT_EQ(net.send(0, 1, MsgSize::Block, 0), 272u);
}

TEST(Network, DeliveryNeverBeforeTransferTime)
{
    Network net(8, paperTiming());
    Tick t = 0;
    for (int i = 0; i < 100; ++i) {
        const NodeId src = i % 8;
        const NodeId dst = (i * 3 + 1) % 8;
        if (src == dst)
            continue;
        const Tick arrive = net.send(src, dst, MsgSize::Request, t);
        EXPECT_GE(arrive, t + 16);
        t += 5;
    }
}

TEST(Network, MisroutedMessagePanicsWithContext)
{
    Network net(4, paperTiming());
    try {
        net.send(0, 9, MsgSize::Request, 0);
        FAIL() << "out-of-range destination must panic";
    } catch (const PanicError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("node 9"), std::string::npos) << what;
        EXPECT_NE(what.find("4-node machine"), std::string::npos) << what;
    }
    EXPECT_THROW(net.send(7, 1, MsgSize::Block, 0), PanicError);
}
