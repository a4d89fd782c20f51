#include "src/htm/htm_engine.h"

#include "src/util/sched_point.h"

namespace rhtm
{

HtmEngine::HtmEngine(const HtmConfig &cfg)
    : cfg_(cfg),
      stripeShift_(64 - cfg.stripeCountLog2),
      seq_(0),
      stripes_(size_t(1) << cfg.stripeCountLog2)
{
    for (auto &s : stripes_)
        s.store(0, std::memory_order_relaxed);
}

// The scheduling points below sit BEFORE the PublishGuard: the
// explorer must never suspend a thread that holds publishLock_, or
// every other thread would block on an OS mutex the scheduler cannot
// see (src/util/sched_point.h, placement rule).

uint64_t
HtmEngine::directLoad(const uint64_t *addr) const
{
    schedPoint(SchedPoint::kDirectLoad, addr);
    auto ref = std::atomic_ref<const uint64_t>(*addr);
    for (;;) {
        uint64_t s1 = seq_.load(std::memory_order_acquire);
        if (s1 & 1) {
            cpuRelax();
            continue;
        }
        uint64_t v = ref.load(std::memory_order_acquire);
        uint64_t s2 = seq_.load(std::memory_order_acquire);
        if (s1 == s2)
            return v;
    }
}

void
HtmEngine::directStore(uint64_t *addr, uint64_t value)
{
    schedPoint(SchedPoint::kDirectStore, addr);
    PublishGuard guard(*this);
    publishWord(addr, value, guard.stamp());
}

bool
HtmEngine::directCas(uint64_t *addr, uint64_t &expected, uint64_t desired)
{
    schedPoint(SchedPoint::kDirectRmw, addr);
    PublishGuard guard(*this);
    auto ref = std::atomic_ref<uint64_t>(*addr);
    uint64_t cur = ref.load(std::memory_order_acquire);
    if (cur != expected) {
        expected = cur;
        return false;
    }
    publishWord(addr, desired, guard.stamp());
    return true;
}

uint64_t
HtmEngine::directFetchAdd(uint64_t *addr, uint64_t delta)
{
    schedPoint(SchedPoint::kDirectRmw, addr);
    PublishGuard guard(*this);
    auto ref = std::atomic_ref<uint64_t>(*addr);
    uint64_t cur = ref.load(std::memory_order_acquire);
    publishWord(addr, cur + delta, guard.stamp());
    return cur;
}

JointPublication::~JointPublication()
{
    // All stores are in; only now does any joined engine's sequence go
    // even. Close order is irrelevant: every window was open before
    // the first close.
    while (head_ != nullptr) {
        HtmEngine *eng = head_;
        head_ = eng->jointNext_;
        eng->jointNext_ = nullptr;
        eng->closeWindow();
    }
}

void
JointPublication::join(HtmEngine &eng)
{
    // Only engines this window holds are walked: their jointNext_ is
    // ours to read.
    for (HtmEngine *e = head_; e != nullptr; e = e->jointNext_) {
        if (e == &eng)
            return;
    }
    eng.jointStamp_ = eng.openWindow();
    eng.jointNext_ = head_;
    head_ = &eng;
}

void
JointPublication::store(HtmEngine &eng, uint64_t *addr, uint64_t value)
{
    join(eng);
    eng.publishWord(addr, value, eng.jointStamp_);
}

} // namespace rhtm
