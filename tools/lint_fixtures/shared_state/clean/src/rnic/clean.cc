#include "sim/ownership.h"

namespace rnic {

MASQ_SHARED_STATE("a counter the tool prints at exit; no run reads it")
int g_device_epoch = 0;

}  // namespace rnic
