// Small string helpers shared across modules (no dependency on anything).
#pragma once

#include <string>
#include <vector>

namespace comet {

// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(const std::string& s, char delim);

}  // namespace comet
