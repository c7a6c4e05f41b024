/**
 * @file
 * Trace exporters.
 *
 * Two formats:
 *  - Chrome trace-event JSON, loadable in Perfetto / chrome://tracing:
 *    one process ("pid") per PU, one thread ("tid") per layer, "X"
 *    complete events per span, an async "b"/"e" pair per trace and
 *    "s"/"t"/"f" flow events stitching each invocation across the PUs
 *    it touches.
 *  - A compact binary form (string-table + packed records) for
 *    million-invocation runs, with a loader used by
 *    tools/trace_report.
 *
 * Output is byte-deterministic for a given record sequence: grouping
 * uses ordered containers and all floats are printed with fixed
 * precision.
 */

#ifndef MOLECULE_OBS_EXPORT_HH
#define MOLECULE_OBS_EXPORT_HH

#include <string>
#include <vector>

#include "obs/trace.hh"

namespace molecule::obs {

/** Render @p records as Chrome trace-event JSON. */
std::string chromeTraceJson(const std::vector<SpanRecord> &records);

/** Write chromeTraceJson(@p records) to @p path. @retval false io. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<SpanRecord> &records);

/** Write the compact binary form. @retval false io. */
bool writeBinary(const std::string &path,
                 const std::vector<SpanRecord> &records);

/**
 * @name Arena-buffer convenience overloads
 * Exports copy the records out of the arena first (snapshot), per the
 * arena lifetime contract: the produced JSON/file must stay valid
 * after the simulation — and its arena — are gone.
 */
///@{
std::string chromeTraceJson(const SpanBuffer &records);

bool writeChromeTrace(const std::string &path,
                      const SpanBuffer &records);

bool writeBinary(const std::string &path, const SpanBuffer &records);
///@}

/** Result of readBinary: records plus the string table their name
 * and detail fields point into (keep the struct alive while using
 * the records). */
struct LoadedTrace
{
    bool ok = false;
    std::string error;
    std::vector<std::string> names;
    std::vector<SpanRecord> records;
};

LoadedTrace readBinary(const std::string &path);

} // namespace molecule::obs

#endif // MOLECULE_OBS_EXPORT_HH
