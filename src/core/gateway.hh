/**
 * @file
 * The commercial comparators (Fig 9).
 *
 * AWS Lambda and OpenWhisk are modelled as opaque control planes with
 * calibrated startup and inter-function (step) latencies; Molecule and
 * Molecule-homo numbers are *measured* by running this repository's
 * stack. See calibration.hh for the constants and their provenance.
 */

#ifndef MOLECULE_CORE_GATEWAY_HH
#define MOLECULE_CORE_GATEWAY_HH

#include "hw/calibration.hh"

namespace molecule::core {

enum class CommercialPlatform { AwsLambda, OpenWhisk };

const char *toString(CommercialPlatform p);

/** Cold-start latency of @p platform for a trivial function. */
sim::SimTime commercialStartupLatency(CommercialPlatform p);

/** Inter-function communication latency (step functions / triggers). */
sim::SimTime commercialCommLatency(CommercialPlatform p);

} // namespace molecule::core

#endif // MOLECULE_CORE_GATEWAY_HH
