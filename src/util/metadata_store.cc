#include "util/metadata_store.h"

#include <cstdio>
#include <fstream>

#include "util/check.h"

namespace comet {

MetadataStore MetadataStore::Load(const std::string& path) {
  MetadataStore store;
  std::ifstream in(path);
  if (!in) {
    return store;  // first run: empty store
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t eq = line.find('=');
    COMET_CHECK_NE(eq, std::string::npos)
        << "malformed metadata line " << line_no << " in " << path;
    store.entries_[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return store;
}

void MetadataStore::Save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    COMET_CHECK(out.good()) << "cannot open " << tmp << " for writing";
    out << "# COMET profile metadata\n";
    for (const auto& [k, v] : entries_) {
      out << k << "=" << v << "\n";
    }
  }
  COMET_CHECK_EQ(std::rename(tmp.c_str(), path.c_str()), 0)
      << "atomic rename to " << path << " failed";
}

void MetadataStore::Put(const std::string& key, const std::string& value) {
  COMET_CHECK(key.find('=') == std::string::npos) << "key must not contain '='";
  COMET_CHECK(key.find('\n') == std::string::npos);
  COMET_CHECK(value.find('\n') == std::string::npos);
  entries_[key] = value;
}

void MetadataStore::PutInt(const std::string& key, int64_t value) {
  Put(key, std::to_string(value));
}

std::optional<std::string> MetadataStore::Get(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<int64_t> MetadataStore::GetInt(const std::string& key) const {
  auto s = Get(key);
  if (!s) {
    return std::nullopt;
  }
  return std::stoll(*s);
}

}  // namespace comet
