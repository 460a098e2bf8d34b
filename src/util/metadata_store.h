// Persistent key-value metadata store used by the adaptive workload
// assignment (paper §3.2.2): "Prior to deployment, the optimal configuration
// for each setup is profiled and stored as metadata. During runtime, COMET
// utilizes this metadata to select the optimal kernel for execution."
//
// The store is a flat text file of `key=value` lines. Keys are arbitrary
// strings without '\n' or '='; values are strings without '\n'. Writes are
// atomic at the whole-file level (write temp + rename).
#pragma once

#include <map>
#include <optional>
#include <string>

namespace comet {

class MetadataStore {
 public:
  MetadataStore() = default;

  // Loads from `path`. Missing file yields an empty store (first run).
  // Malformed lines throw CheckError.
  static MetadataStore Load(const std::string& path);

  // Persists the current contents to `path` atomically.
  void Save(const std::string& path) const;

  void Put(const std::string& key, const std::string& value);
  void PutInt(const std::string& key, int64_t value);

  std::optional<std::string> Get(const std::string& key) const;
  std::optional<int64_t> GetInt(const std::string& key) const;

  size_t size() const { return entries_.size(); }
  const std::map<std::string, std::string>& entries() const { return entries_; }

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace comet
