#include "fault/injector.hh"

namespace molecule::fault {

void
Injector::arm(const InjectionPlan &plan)
{
    const sim::SimTime now = sim_.now();
    for (const FaultSpec &spec : plan.specs()) {
        armed_.push_back(spec);
        const FaultSpec *slot = &armed_.back();
        sim_.schedule(spec.at > now ? spec.at - now : sim::SimTime(0),
                      [this, slot] { fire(*slot); });
    }
}

void
Injector::fire(const FaultSpec &spec)
{
    ++fired_;
    obs::Span span =
        obs::Span::root(tracer_, "fault.inject", obs::Layer::Core,
                        spec.pu);
    span.setDetail(toString(spec.kind));
    if (tracer_) {
        tracer_->metrics().counter("fault.injected").inc();
        tracer_->metrics()
            .counter(std::string("fault.") + toString(spec.kind))
            .inc();
    }
    if (recorder_ != nullptr)
        recorder_->trigger(std::string("fault.") + toString(spec.kind),
                           sim_.now());

    switch (spec.kind) {
    case FaultKind::PuCrash: {
        state_.crashPu(spec.pu);
        const int pu = spec.pu;
        sim_.schedule(spec.duration, [this, pu] { restart(pu); });
        break;
    }
    case FaultKind::LinkDegrade: {
        const sim::SimTime now = sim_.now();
        LinkFault f;
        f.downUntil = now + spec.blackout;
        f.degradedUntil = now + spec.duration;
        f.factor = spec.factor;
        state_.setLinkFault(spec.pu, spec.peer, f);
        span.setArg(std::int64_t(spec.factor * 1000));
        break;
    }
    case FaultKind::FpgaReconfigFail:
        state_.armFpgaReconfigFailure(spec.pu, spec.count);
        span.setArg(spec.count);
        break;
    case FaultKind::SandboxOom:
        state_.oomKill(spec.pu, spec.target);
        span.setDetail(spec.target.empty() ? "sandbox-oom"
                                           : spec.target.c_str());
        break;
    }
}

void
Injector::restart(int pu)
{
    obs::Span span =
        obs::Span::root(tracer_, "fault.restart", obs::Layer::Core, pu);
    if (tracer_)
        tracer_->metrics().counter("fault.pu_restart").inc();
    state_.restartPu(pu);
}

} // namespace molecule::fault
