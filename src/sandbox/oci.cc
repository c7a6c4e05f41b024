#include "sandbox/oci.hh"

namespace molecule::sandbox {

const char *
toString(Language lang)
{
    switch (lang) {
      case Language::Python:
        return "python";
      case Language::Node:
        return "node";
      case Language::FpgaOpenCl:
        return "fpga-opencl";
      case Language::CudaCpp:
        return "cuda-c++";
    }
    return "?";
}

sim::SimTime
runtimeColdStart(Language lang)
{
    namespace calib = hw::calib;
    switch (lang) {
      case Language::Python:
        return calib::kPythonColdStart;
      case Language::Node:
        return calib::kNodeColdStart;
      case Language::FpgaOpenCl:
      case Language::CudaCpp:
        return sim::SimTime(0); // accelerated paths cost elsewhere
    }
    return sim::SimTime(0);
}

const char *
toString(SandboxState s)
{
    switch (s) {
      case SandboxState::Unknown:
        return "unknown";
      case SandboxState::Creating:
        return "creating";
      case SandboxState::Created:
        return "created";
      case SandboxState::Running:
        return "running";
      case SandboxState::Stopped:
        return "stopped";
    }
    return "?";
}

} // namespace molecule::sandbox
