// Chrome-trace (chrome://tracing / Perfetto) export of simulator timelines.
//
// Every executor emits a Timeline; exporting it as a Trace Event Format JSON
// lets users inspect the fine-grained overlap visually -- which tiles ran
// while which token transfers were in flight, where the division point left
// bubbles. Events are complete events ("ph":"X") with microsecond
// timestamps; lanes map to Chrome thread ids, categories to event
// categories.
#pragma once

#include <string>

#include "sim/timeline.h"

namespace comet {

// Serializes the timeline as a Trace Event Format JSON string (the
// {"traceEvents": [...]} envelope form).
std::string ToChromeTraceJson(const Timeline& timeline,
                              const std::string& process_name = "comet");

}  // namespace comet
