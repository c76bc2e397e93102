// Unit tests for the discrete-event kernel.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/event_queue.hh"

namespace latr
{
namespace
{

class RecordingEvent : public Event
{
  public:
    RecordingEvent(std::vector<int> *log, int id)
        : log_(log), id_(id)
    {}

    void process() override { log_->push_back(id_); }
    const char *name() const override { return "recording"; }

  private:
    std::vector<int> *log_;
    int id_;
};

TEST(EventQueue, StartsAtTimeZeroAndEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, RunsEventsInTickOrder)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(&log, 1), b(&log, 2), c(&log, 3);
    q.schedule(&c, 30);
    q.schedule(&a, 10);
    q.schedule(&b, 20);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickIsFifoByScheduleOrder)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(&log, 1), b(&log, 2), c(&log, 3);
    q.schedule(&b, 5);
    q.schedule(&a, 5);
    q.schedule(&c, 5);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1, 3}));
}

TEST(EventQueue, RunWithLimitStopsAndAdvancesToLimit)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(&log, 1), b(&log, 2);
    q.schedule(&a, 10);
    q.schedule(&b, 100);
    EXPECT_EQ(q.run(50), 1u);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(q.now(), 50u);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RunWithLimitAdvancesTimeEvenWithNoEvents)
{
    EventQueue q;
    q.run(1234);
    EXPECT_EQ(q.now(), 1234u);
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(&log, 1), b(&log, 2);
    q.schedule(&a, 10);
    q.schedule(&b, 20);
    q.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, DescheduleUnscheduledIsNoop)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(&log, 1);
    q.deschedule(&a); // must not crash or corrupt
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(&log, 1), b(&log, 2);
    q.schedule(&a, 10);
    q.schedule(&b, 20);
    q.reschedule(&a, 30); // now after b
    q.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, RescheduleWorksOnUnscheduledEvent)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(&log, 1);
    q.reschedule(&a, 15);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(EventQueue, EventCanRescheduleItself)
{
    EventQueue q;

    class Repeater : public Event
    {
      public:
        Repeater(EventQueue *q, int *count) : q_(q), count_(count) {}
        void
        process() override
        {
            if (++*count_ < 5)
                q_->schedule(this, q_->now() + 10);
        }

      private:
        EventQueue *q_;
        int *count_;
    };

    int count = 0;
    Repeater r(&q, &count);
    q.schedule(&r, 10);
    q.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, LambdaEventRunsAndIsFreed)
{
    EventQueue q;
    int hits = 0;
    q.scheduleLambda(7, [&hits]() { ++hits; });
    q.scheduleLambda(7, [&hits]() { ++hits; });
    q.run();
    EXPECT_EQ(hits, 2);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, UnrunLambdaIsFreedAtDestruction)
{
    // ASAN (when enabled) verifies the owned lambda does not leak.
    EventQueue q;
    q.scheduleLambda(1000, []() {});
    q.run(10);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(&log, 1), b(&log, 2);
    q.schedule(&a, 10);
    q.schedule(&b, 20);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.step());
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(&log, 1), b(&log, 2);
    q.schedule(&a, 100);
    q.run();
    EXPECT_DEATH(q.schedule(&b, 50), "past");
}

TEST(EventQueueDeath, DoubleSchedulePanics)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(&log, 1);
    q.schedule(&a, 10);
    EXPECT_DEATH(q.schedule(&a, 20), "twice");
}

TEST(EventQueue, RescheduleToSameTickMovesToFifoBack)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(&log, 1), b(&log, 2), c(&log, 3);
    q.schedule(&a, 5);
    q.schedule(&b, 5);
    q.schedule(&c, 5);
    // Rescheduling to the *same* tick re-enters the FIFO at the back.
    q.reschedule(&a, 5);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{2, 3, 1}));
}

TEST(EventQueue, DescheduleThenDestroyIsSafe)
{
    EventQueue q;
    std::vector<int> log;
    auto *a = new RecordingEvent(&log, 1);
    RecordingEvent b(&log, 2);
    q.schedule(a, 10);
    q.schedule(&b, 20);
    q.deschedule(a);
    delete a; // the queue must never dereference the stale entry
    q.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DestroyScheduledNonOwnedEventBeforeQueueDies)
{
    // An owner may destroy a still-scheduled event right before the
    // queue itself dies; the destructor dereferences only queue-owned
    // (lambda) events.
    std::vector<int> log;
    auto *a = new RecordingEvent(&log, 1);
    {
        EventQueue q;
        q.schedule(a, 10);
        q.scheduleLambda(20, []() {});
        delete a;
    }
    EXPECT_TRUE(log.empty());
}

TEST(EventQueue, RunLimitIsInclusiveOfEventsAtTheLimit)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(&log, 1), b(&log, 2);
    q.schedule(&a, 50);
    q.schedule(&b, 51);
    EXPECT_EQ(q.run(50), 1u);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, ManySequentialLambdasRunInOrder)
{
    // Exercises LambdaEvent reuse: dispatch-then-schedule cycles must
    // preserve FIFO order and leave the queue empty.
    EventQueue q;
    std::vector<int> log;
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 64; ++i) {
            const int id = round * 64 + i;
            q.scheduleLambda(q.now() + 1 + i,
                             [&log, id]() { log.push_back(id); });
        }
        q.run();
        EXPECT_TRUE(q.empty());
    }
    ASSERT_EQ(log.size(), 256u);
    for (int i = 0; i < 256; ++i)
        EXPECT_EQ(log[i], i);
}

TEST(EventQueue, FinishedLambdasReturnToThePool)
{
    // Every wrapper that ran is parked for reuse, with its captured
    // state released as soon as the callback returned; the next
    // round of scheduleLambda() takes the parked wrappers back.
    constexpr int kLambdas = 24;
    EventQueue q;
    auto token = std::make_shared<int>(0);
    int ran = 0;
    for (int i = 0; i < kLambdas; ++i)
        q.scheduleLambda(10, [&ran, token]() { ++ran; });
    EXPECT_EQ(token.use_count(), kLambdas + 1);
    EXPECT_EQ(q.lambdaPoolSize(), 0u);
    q.run();
    EXPECT_EQ(ran, kLambdas);
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(q.lambdaPoolSize(), static_cast<std::size_t>(kLambdas));

    for (int i = 0; i < kLambdas; ++i)
        q.scheduleLambda(20, [&ran]() { ++ran; });
    EXPECT_EQ(q.lambdaPoolSize(), 0u);
    q.run();
    EXPECT_EQ(ran, 2 * kLambdas);
    EXPECT_EQ(q.lambdaPoolSize(), static_cast<std::size_t>(kLambdas));
}

TEST(EventQueue, LambdaScheduledFromLambdaRuns)
{
    EventQueue q;
    std::vector<int> log;
    q.scheduleLambda(10, [&]() {
        log.push_back(1);
        q.scheduleLambda(q.now() + 5, [&]() { log.push_back(2); });
    });
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), 15u);
}

TEST(EventQueue, PendingCountsLiveEventsOnly)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(&log, 1), b(&log, 2), c(&log, 3);
    q.schedule(&a, 10);
    q.schedule(&b, 20);
    q.schedule(&c, 30);
    q.deschedule(&b);
    EXPECT_EQ(q.pending(), 2u);
    q.run();
    EXPECT_EQ(q.pending(), 0u);
}

} // namespace
} // namespace latr
