#include "core/gateway.hh"

namespace molecule::core {

namespace calib = hw::calib;

const char *
toString(CommercialPlatform p)
{
    switch (p) {
      case CommercialPlatform::AwsLambda:
        return "AWS Lambda";
      case CommercialPlatform::OpenWhisk:
        return "OpenWhisk";
    }
    return "?";
}

sim::SimTime
commercialStartupLatency(CommercialPlatform p)
{
    return p == CommercialPlatform::AwsLambda ? calib::kLambdaStartup
                                              : calib::kOpenWhiskStartup;
}

sim::SimTime
commercialCommLatency(CommercialPlatform p)
{
    return p == CommercialPlatform::AwsLambda ? calib::kLambdaStepComm
                                              : calib::kOpenWhiskComm;
}

} // namespace molecule::core
