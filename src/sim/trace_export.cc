#include "sim/trace_export.h"

#include <fstream>
#include <sstream>

#include "util/check.h"
#include "util/json_writer.h"

namespace comet {

std::string ToChromeTraceJson(const Timeline& timeline,
                              const std::string& process_name) {
  // Field order within each event is fixed (name, cat, ph, ts, dur, pid,
  // tid) and all string payloads go through the shared JsonEscape, so the
  // emitted bytes are a pure function of the timeline contents.
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\""
     << JsonEscape(process_name) << "\"}}";
  for (const TimeInterval& iv : timeline.intervals()) {
    // Lane -1 (host) maps to tid 1; device lane L maps to tid L + 2.
    const int tid = iv.lane + 2;
    os << ",{\"name\":\"" << JsonEscape(iv.label) << "\",\"cat\":\""
       << JsonEscape(OpCategoryName(iv.category)) << "\",\"ph\":\"X\""
       << ",\"ts\":" << iv.start_us << ",\"dur\":" << iv.Duration()
       << ",\"pid\":1,\"tid\":" << tid << "}";
  }
  os << "]}";
  return os.str();
}

void WriteChromeTrace(const Timeline& timeline, const std::string& path,
                      const std::string& process_name) {
  std::ofstream file(path, std::ios::trunc);
  COMET_CHECK(file.good()) << "cannot open trace file " << path;
  file << ToChromeTraceJson(timeline, process_name);
  COMET_CHECK(file.good()) << "failed writing trace file " << path;
}

}  // namespace comet
