#include "recshard/overload/admission.hh"

#include <algorithm>

#include "recshard/base/logging.hh"

namespace recshard {

namespace {

/** The historical router behavior: accept everything. */
class AdmitAll final : public AdmissionController
{
  public:
    AdmissionVerdict
    decide(double, std::uint32_t, std::uint64_t) override
    {
        return {true, 0.0};
    }

    const char *name() const override { return "admit-all"; }
};

/** Static per-node outstanding bound. */
class QueueThreshold final : public AdmissionController
{
  public:
    explicit QueueThreshold(std::uint64_t max_outstanding)
        : bound(max_outstanding)
    {
    }

    AdmissionVerdict
    decide(double, std::uint32_t,
           std::uint64_t outstanding) override
    {
        AdmissionVerdict v;
        v.pressure = static_cast<double>(outstanding) /
            static_cast<double>(bound);
        v.admit = outstanding < bound;
        return v;
    }

    const char *name() const override { return "queue-threshold"; }

  private:
    const std::uint64_t bound;
};

/**
 * Delay-target control: shed when the picked node's *predicted*
 * queue delay (outstanding x EWMA service time) exceeds the target.
 * The service estimate warms up from observed dispatches, so the
 * first queries on a cold cluster are always admitted.
 */
class AdaptiveDelay final : public AdmissionController
{
  public:
    AdaptiveDelay(std::uint32_t num_nodes, double target_seconds,
                  double alpha_)
        : target(target_seconds), alpha(alpha_),
          service(num_nodes, 0.0)
    {
    }

    AdmissionVerdict
    decide(double, std::uint32_t node,
           std::uint64_t outstanding) override
    {
        AdmissionVerdict v;
        const double predicted =
            static_cast<double>(outstanding) * service[node];
        v.pressure = predicted / target;
        v.admit = predicted <= target;
        return v;
    }

    void
    observeDispatch(std::uint32_t node, double, double,
                    double service_seconds) override
    {
        double &s = service[node];
        s = s == 0.0 ? service_seconds
                     : (1.0 - alpha) * s + alpha * service_seconds;
    }

    const char *name() const override { return "adaptive"; }

  private:
    const double target;
    const double alpha;
    /** Per-node EWMA service seconds; 0 until the first dispatch. */
    std::vector<double> service;
};

} // namespace

std::unique_ptr<AdmissionController>
makeAdmissionController(const AdmissionConfig &config,
                        std::uint32_t num_nodes,
                        double sla_seconds)
{
    if (config.policy == "admit-all")
        return std::make_unique<AdmitAll>();
    if (config.policy == "queue-threshold") {
        fatal_if(config.maxOutstanding == 0,
                 "queue-threshold admission needs an explicit "
                 "positive outstanding bound (the harness derives "
                 "one from the SLA via deriveQueueBound)");
        return std::make_unique<QueueThreshold>(
            config.maxOutstanding);
    }
    if (config.policy == "adaptive") {
        const double target = config.targetDelaySeconds > 0.0
            ? config.targetDelaySeconds : sla_seconds / 2.0;
        fatal_if(target <= 0.0,
                 "adaptive admission needs a positive delay target "
                 "(explicit targetDelaySeconds or a positive SLA)");
        fatal_if(config.serviceAlpha <= 0.0 ||
                     config.serviceAlpha > 1.0,
                 "adaptive service EWMA alpha ",
                 config.serviceAlpha, " outside (0,1]");
        return std::make_unique<AdaptiveDelay>(
            num_nodes, target, config.serviceAlpha);
    }
    fatal("unknown admission controller '", config.policy,
          "'; known controllers: admit-all, queue-threshold, "
          "adaptive");
}

std::uint64_t
deriveQueueBound(double sla_seconds, double mean_service_seconds)
{
    fatal_if(sla_seconds <= 0.0 || mean_service_seconds <= 0.0,
             "queue-bound derivation needs a positive SLA and "
             "service time, got ", sla_seconds, " / ",
             mean_service_seconds);
    return std::max<std::uint64_t>(
        4, static_cast<std::uint64_t>(sla_seconds / 3.0 /
                                      mean_service_seconds));
}

const std::vector<std::string> &
admissionControllerNames()
{
    static const std::vector<std::string> names = {
        "admit-all", "queue-threshold", "adaptive"};
    return names;
}

} // namespace recshard
