#include "sim/log.h"

#include "sim/ownership.h"

namespace sim {

namespace {
MASQ_SHARED_STATE("set once by tool main(); logging writes to stderr only and never feeds back into a run")
LogLevel g_level = LogLevel::kWarn;
const char* level_name(LogLevel l) {
  switch (l) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel log_level() { return g_level; }
void set_log_level(LogLevel level) { g_level = level; }

void log(LogLevel level, Time now, const char* component,
         const std::string& message) {
  if (!log_enabled(level)) return;
  std::fprintf(stderr, "[%12s] %-5s %s: %s\n", format_time(now).c_str(),
               level_name(level), component, message.c_str());
}

}  // namespace sim
