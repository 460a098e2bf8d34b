#include "moe/config.h"

#include <sstream>

#include "util/check.h"

namespace comet {

std::string ModelConfig::ToString() const {
  std::ostringstream os;
  os << name << "(L=" << layers << ", E=" << num_experts << ", topk=" << topk
     << ", N=" << embedding << ", K=" << ffn_hidden << ")";
  return os.str();
}

ModelConfig Mixtral8x7B() {
  return ModelConfig{"Mixtral-8x7B", 32, 8, 2, 4096, 14336};
}

ModelConfig Qwen2Moe() {
  return ModelConfig{"Qwen2-MoE-2.7B", 24, 64, 4, 2048, 1408};
}

ModelConfig Phi35Moe() {
  return ModelConfig{"Phi-3.5-MoE", 32, 16, 2, 4096, 6400};
}

std::string ParallelConfig::ToString() const {
  std::ostringstream os;
  os << "TP" << tp << "xEP" << ep;
  return os.str();
}

Placement::Placement(const ModelConfig& model, const ParallelConfig& parallel,
                     int64_t total_tokens)
    : model_(model), parallel_(parallel), total_tokens_(total_tokens) {
  COMET_CHECK_GT(parallel_.tp, 0);
  COMET_CHECK_GT(parallel_.ep, 0);
  COMET_CHECK_GT(model_.num_experts, 0);
  COMET_CHECK_GT(model_.topk, 0);
  COMET_CHECK_LE(model_.topk, model_.num_experts);
  COMET_CHECK_EQ(model_.num_experts % parallel_.ep, 0)
      << "E must divide evenly over EP groups";
  COMET_CHECK_EQ(model_.ffn_hidden % parallel_.tp, 0)
      << "K must divide evenly over TP lanes";
  COMET_CHECK_GT(total_tokens_, 0);
  COMET_CHECK_EQ(total_tokens_ % parallel_.ep, 0)
      << "M must divide evenly over EP groups";
}

void Placement::ResetTotalTokens(int64_t total_tokens) {
  COMET_CHECK_GT(total_tokens, 0);
  COMET_CHECK_EQ(total_tokens % parallel_.ep, 0)
      << "M must divide evenly over EP groups";
  total_tokens_ = total_tokens;
}

int64_t Placement::tokens_per_group() const {
  return total_tokens_ / parallel_.ep;
}

int Placement::EpGroupOfRank(int rank) const {
  COMET_CHECK_GE(rank, 0);
  COMET_CHECK_LT(rank, world());
  return rank / parallel_.tp;
}

int Placement::TpLaneOfRank(int rank) const {
  COMET_CHECK_GE(rank, 0);
  COMET_CHECK_LT(rank, world());
  return rank % parallel_.tp;
}

int Placement::RankOf(int ep_group, int tp_lane) const {
  COMET_CHECK_GE(ep_group, 0);
  COMET_CHECK_LT(ep_group, parallel_.ep);
  COMET_CHECK_GE(tp_lane, 0);
  COMET_CHECK_LT(tp_lane, parallel_.tp);
  return ep_group * parallel_.tp + tp_lane;
}

int64_t Placement::ExpertsPerGroup() const {
  return model_.num_experts / parallel_.ep;
}

int Placement::EpGroupOfExpert(int64_t expert) const {
  COMET_CHECK_GE(expert, 0);
  COMET_CHECK_LT(expert, model_.num_experts);
  return static_cast<int>(expert / ExpertsPerGroup());
}

int64_t Placement::LocalExpertIndex(int64_t expert) const {
  return expert % ExpertsPerGroup();
}

int64_t Placement::HiddenPerTpRank() const {
  return model_.ffn_hidden / parallel_.tp;
}

int Placement::HomeGroupOfToken(int64_t token) const {
  COMET_CHECK_GE(token, 0);
  COMET_CHECK_LT(token, total_tokens_);
  return static_cast<int>(token / tokens_per_group());
}

int64_t Placement::FirstTokenOfGroup(int group) const {
  COMET_CHECK_GE(group, 0);
  COMET_CHECK_LT(group, parallel_.ep);
  return static_cast<int64_t>(group) * tokens_per_group();
}

}  // namespace comet
