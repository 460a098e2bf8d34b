// Bit pins of the timing plane: the five systems of the paper's evaluation
// (§5.1) through RunModel, and COMET's adaptive division-point sweep
// (§3.2.2). Simulated times are a contract -- a refactor of the simulator,
// the baselines' cost composition or the fused-kernel models must keep
// every bit. Each RunModel row pins `total_ms` and FNV-1a digests of the
// MoE layer's `per_rank_us` and critical-rank timeline; each sweep row pins
// a digest of its (comm_blocks, duration_us) samples; each fused-kernel row
// pins one layer simulation's five numbers and a digest of its timeline.
//
// The configurations are the perfbench `paper_sweep` grid (Mixtral /
// Qwen2-MoE / Phi-3.5-MoE x M {4096, 16384} x {EP8, TP2-EP4}) plus a
// 16-GPU single-node world, a skewed load and a two-node cluster. The
// fused-kernel rows cover the fine tiles of the granularity ablation
// (down to tile 1), TP2-EP4, a two-node cluster, rescheduling off and
// vertical fusion.
//
// Refreshing after an INTENDED change: a failing row prints its
// replacement line; paste it over the old one and say why in the change.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/fastermoe.h"
#include "baselines/megatron.h"
#include "baselines/tutel.h"
#include "core/adaptive.h"
#include "core/comet_executor.h"
#include "core/fused_kernel.h"
#include "moe/workload.h"
#include "runtime/model_runner.h"

namespace comet {
namespace {

class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void Double(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

uint64_t DigestPerRank(const std::vector<double>& per_rank_us) {
  Fnv f;
  f.U64(per_rank_us.size());
  for (const double v : per_rank_us) {
    f.Double(v);
  }
  return f.value();
}

uint64_t DigestTimeline(const Timeline& timeline) {
  Fnv f;
  f.U64(timeline.intervals().size());
  for (const TimeInterval& iv : timeline.intervals()) {
    f.Bytes(iv.label().data(), iv.label().size());
    f.U64(static_cast<uint64_t>(iv.category));
    f.U64(static_cast<uint64_t>(static_cast<int64_t>(iv.lane)));
    f.Double(iv.start_us);
    f.Double(iv.end_us);
  }
  return f.value();
}

// One RunModel setup. `nodes` is 0 for a single-node H800Cluster(tp * ep),
// else the node count of a MultiNodeH800Cluster of the same world.
struct RunSetup {
  ModelConfig (*model)();
  int tp;
  int ep;
  int64_t tokens;
  double load_std;
  int nodes;
};

ClusterSpec ClusterOf(const RunSetup& s) {
  return s.nodes == 0 ? H800Cluster(s.tp * s.ep)
                      : MultiNodeH800Cluster(s.nodes, s.tp * s.ep / s.nodes);
}

std::vector<RunSetup> Setups() {
  std::vector<RunSetup> out;
  for (ModelConfig (*model)() : {&Mixtral8x7B, &Qwen2Moe, &Phi35Moe}) {
    for (const int64_t tokens : {int64_t{4096}, int64_t{16384}}) {
      out.push_back({model, 1, 8, tokens, 0.0, 0});
      out.push_back({model, 2, 4, tokens, 0.0, 0});
    }
  }
  out.push_back({&Qwen2Moe, 1, 16, 16384, 0.0, 0});
  out.push_back({&Mixtral8x7B, 1, 8, 16384, 0.05, 0});
  out.push_back({&Qwen2Moe, 1, 16, 16384, 0.0, 2});
  return out;
}

struct RunPin {
  const char* row;  // "<model>/<tp>x<ep>/M<tokens>/std<load>/n<nodes>/<system>"
  uint64_t total_ms_bits;
  uint64_t per_rank_fnv;
  uint64_t timeline_fnv;
};

// clang-format off
constexpr RunPin kRunPins[] = {
    {"Mixtral-8x7B/1x8/M4096/std0/n0/Megatron-TE", 0x40441810b67349f0ull, 0x5b6fb481b92af8a5ull, 0x38133dea77337662ull},
    {"Mixtral-8x7B/1x8/M4096/std0/n0/Megatron-Cutlass", 0x4043088898c0b143ull, 0x868ddc09af427104ull, 0xb386e057157d19dfull},
    {"Mixtral-8x7B/1x8/M4096/std0/n0/FasterMoE", 0x4042e33d515ec17aull, 0xea3e01c259aeedd8ull, 0x9df3440ba29f29b6ull},
    {"Mixtral-8x7B/1x8/M4096/std0/n0/Tutel", 0x4040d7a02a434c19ull, 0x6af24cbd84fae51full, 0x7482162d8ee1a176ull},
    {"Mixtral-8x7B/1x8/M4096/std0/n0/Comet", 0x4038cc8a7391ca30ull, 0x0a3dcee2869f139full, 0x30ce8bf195c3e1cbull},
    {"Mixtral-8x7B/2x4/M4096/std0/n0/Megatron-TE", 0x404ad819ef0f4979ull, 0x48cb53ed54729835ull, 0xafc135c5db2ef347ull},
    {"Mixtral-8x7B/2x4/M4096/std0/n0/Megatron-Cutlass", 0x4049f30d030a30d5ull, 0x9772838db2847591ull, 0x7613f2cfb11d33c7ull},
    {"Mixtral-8x7B/2x4/M4096/std0/n0/Tutel", 0x40435ad7fd29140aull, 0xf9367ef81fdfeab9ull, 0x1ff7792c7837fef9ull},
    {"Mixtral-8x7B/2x4/M4096/std0/n0/Comet", 0x403b27d261eb34cdull, 0x3227580abcf11ebdull, 0xa1047c213eba5b43ull},
    {"Mixtral-8x7B/1x8/M16384/std0/n0/Megatron-TE", 0x40602106aa346b3eull, 0x6b82f8d657340e97ull, 0x9f48c6377e57db81ull},
    {"Mixtral-8x7B/1x8/M16384/std0/n0/Megatron-Cutlass", 0x405f6d3f41b12937ull, 0xfe90fcb159281ac4ull, 0xad51a34b2d090901ull},
    {"Mixtral-8x7B/1x8/M16384/std0/n0/FasterMoE", 0x405c6c238ab71708ull, 0xd04f3d6141e47627ull, 0x35d6041cc6949503ull},
    {"Mixtral-8x7B/1x8/M16384/std0/n0/Tutel", 0x405776721c04f860ull, 0xf59b6f51659f462full, 0xee39e9cbe19e0368ull},
    {"Mixtral-8x7B/1x8/M16384/std0/n0/Comet", 0x40540c5659f03554ull, 0xfdc3551f627b5529ull, 0x4cc94da23653c989ull},
    {"Mixtral-8x7B/2x4/M16384/std0/n0/Megatron-TE", 0x4067d639397aeb7cull, 0xed4000ad4ce7f721ull, 0x2ac82c391aae2a36ull},
    {"Mixtral-8x7B/2x4/M16384/std0/n0/Megatron-Cutlass", 0x40676b50d56b13b5ull, 0x2663f4cc2a3386c5ull, 0x1780bd91c8536378ull},
    {"Mixtral-8x7B/2x4/M16384/std0/n0/Tutel", 0x4060c45e673e0742ull, 0x0c0e0dfaa770efa1ull, 0x70b3426a38526640ull},
    {"Mixtral-8x7B/2x4/M16384/std0/n0/Comet", 0x4058922ad4c94c7dull, 0xd60afba3b0e16c21ull, 0x5035542849b390f5ull},
    {"Qwen2-MoE-2.7B/1x8/M4096/std0/n0/Megatron-TE", 0x403204c0e15ed3b0ull, 0xa0dc274fa9486304ull, 0xeb2647ddcc47634full},
    {"Qwen2-MoE-2.7B/1x8/M4096/std0/n0/Megatron-Cutlass", 0x4030f44c38d64d01ull, 0xfcb7081b53bbe4dbull, 0x2009d2e76b82fcffull},
    {"Qwen2-MoE-2.7B/1x8/M4096/std0/n0/FasterMoE", 0x40347a9036320b88ull, 0x3c14b8542214b895ull, 0xbee4a43077bea3e3ull},
    {"Qwen2-MoE-2.7B/1x8/M4096/std0/n0/Tutel", 0x402dbaaee23880efull, 0xc4d76a7ceb0b094full, 0x7498e4fd52379dbbull},
    {"Qwen2-MoE-2.7B/1x8/M4096/std0/n0/Comet", 0x401b5423b3f5b95eull, 0xed7795346fbe2862ull, 0x3c31d7fd400af8e4ull},
    {"Qwen2-MoE-2.7B/2x4/M4096/std0/n0/Megatron-TE", 0x403bde539d81b977ull, 0xbf764fcf83f71901ull, 0xd314f596ff8fd285ull},
    {"Qwen2-MoE-2.7B/2x4/M4096/std0/n0/Megatron-Cutlass", 0x403aff9dd7243dfeull, 0xd0993716329426fdull, 0xb249f46e85051156ull},
    {"Qwen2-MoE-2.7B/2x4/M4096/std0/n0/Tutel", 0x4038278657f9c0f4ull, 0xe91b9d4d30e07569ull, 0x1a22b707b0630d57ull},
    {"Qwen2-MoE-2.7B/2x4/M4096/std0/n0/Comet", 0x4022031e19ea0435ull, 0xca485bafc184c0e5ull, 0xadf5f1616c142024ull},
    {"Qwen2-MoE-2.7B/1x8/M16384/std0/n0/Megatron-TE", 0x404c0524c9918894ull, 0xc0495f6c5e0cce41ull, 0x932a3cbedce9bf04ull},
    {"Qwen2-MoE-2.7B/1x8/M16384/std0/n0/Megatron-Cutlass", 0x404b93a70d0255bbull, 0xfb6dac0d6685e5acull, 0xaa63d08b5335d064ull},
    {"Qwen2-MoE-2.7B/1x8/M16384/std0/n0/FasterMoE", 0x4049acf49b55a2f2ull, 0xbdd4e69e89c728d3ull, 0x7aa4af16c6e957d0ull},
    {"Qwen2-MoE-2.7B/1x8/M16384/std0/n0/Tutel", 0x404695b0180df12aull, 0x821f1ead36e8af3cull, 0xd29218327dbbbb3dull},
    {"Qwen2-MoE-2.7B/1x8/M16384/std0/n0/Comet", 0x4032f988187e6906ull, 0xb0a4b399758228dfull, 0x3615a0629c785c27ull},
    {"Qwen2-MoE-2.7B/2x4/M16384/std0/n0/Megatron-TE", 0x4057d7063b43525cull, 0x8aa277078fef0c99ull, 0x25c9500719ad44ffull},
    {"Qwen2-MoE-2.7B/2x4/M16384/std0/n0/Megatron-Cutlass", 0x40579cc34cdfb581ull, 0x27894df7690e20b1ull, 0x5630740f7865c859ull},
    {"Qwen2-MoE-2.7B/2x4/M16384/std0/n0/Tutel", 0x4053ecfd17bf0993ull, 0x2fd45b994701d21dull, 0x4947444f44f74863ull},
    {"Qwen2-MoE-2.7B/2x4/M16384/std0/n0/Comet", 0x403d67b680bd140full, 0xb8fb6ce218a343fdull, 0x74286eb0c7213265ull},
    {"Phi-3.5-MoE/1x8/M4096/std0/n0/Megatron-TE", 0x4040595b72270f7full, 0x8b98c691a8e06e4dull, 0xb84bd561eecbfe89ull},
    {"Phi-3.5-MoE/1x8/M4096/std0/n0/Megatron-Cutlass", 0x403effc7b7bdf43eull, 0xd9ea173aa8585a70ull, 0xe31650e5fd359dddull},
    {"Phi-3.5-MoE/1x8/M4096/std0/n0/FasterMoE", 0x403ed530abbd9380ull, 0x2572b1e451d94cd9ull, 0x976e56ea3b8779adull},
    {"Phi-3.5-MoE/1x8/M4096/std0/n0/Tutel", 0x40395230f3b7cbfaull, 0x513bc8c42adaef8full, 0x3f8d51aad501e23eull},
    {"Phi-3.5-MoE/1x8/M4096/std0/n0/Comet", 0x403251979c4cab8full, 0x8db356716abc4d54ull, 0x4d08f51ffd2b6ba1ull},
    {"Phi-3.5-MoE/2x4/M4096/std0/n0/Megatron-TE", 0x40478636aec4fa62ull, 0xa17643dfa863938dull, 0x1045a9b3a42ff7abull},
    {"Phi-3.5-MoE/2x4/M4096/std0/n0/Megatron-Cutlass", 0x4046d22c5d5062b1ull, 0xcd08f7fa29cf2241ull, 0x7a9838d8306cccc0ull},
    {"Phi-3.5-MoE/2x4/M4096/std0/n0/Tutel", 0x4042c34f0fc75178ull, 0x34dae09849da8161ull, 0xf48de75106a3eeb5ull},
    {"Phi-3.5-MoE/2x4/M4096/std0/n0/Comet", 0x40355bed7844d8dcull, 0x6a3c08fd9e5b7f21ull, 0x7faa7e42c0e47aedull},
    {"Phi-3.5-MoE/1x8/M16384/std0/n0/Megatron-TE", 0x405abe897f149733ull, 0x45824e6766730f4eull, 0xd84135764c1f54f3ull},
    {"Phi-3.5-MoE/1x8/M16384/std0/n0/Megatron-Cutlass", 0x405a397bd8579e39ull, 0x079527c7a7ba9028ull, 0xb3ee2fb7d4946992ull},
    {"Phi-3.5-MoE/1x8/M16384/std0/n0/FasterMoE", 0x4057072fac20d923ull, 0x63412c65de50dc5dull, 0x74bdaf15a4f14a2aull},
    {"Phi-3.5-MoE/1x8/M16384/std0/n0/Tutel", 0x40531cf77680256dull, 0x2d33cff3653e1940ull, 0x40a73e0d4d560edcull},
    {"Phi-3.5-MoE/1x8/M16384/std0/n0/Comet", 0x404c4b9caba46271ull, 0xe106a855c3266d64ull, 0xc0e7961ee0075128ull},
    {"Phi-3.5-MoE/2x4/M16384/std0/n0/Megatron-TE", 0x40651d02e6fd5c4cull, 0x813687073c19369dull, 0xeb49455a5a532acaull},
    {"Phi-3.5-MoE/2x4/M16384/std0/n0/Megatron-Cutlass", 0x4064db0835e1e10bull, 0x2681bdd450669ad5ull, 0xf0f1ad531cd100f8ull},
    {"Phi-3.5-MoE/2x4/M16384/std0/n0/Tutel", 0x4060961f1322b925ull, 0x1054074d22b74629ull, 0xfef35c7aecdffc18ull},
    {"Phi-3.5-MoE/2x4/M16384/std0/n0/Comet", 0x4052bb1fd9fc53b6ull, 0x8cce0cb00ad174a1ull, 0xb60129217c30be32ull},
    {"Qwen2-MoE-2.7B/1x16/M16384/std0/n0/Megatron-TE", 0x40400273ba9ed2c5ull, 0xeaa4bc7ba49bf4ceull, 0x6d289ff186ac0255ull},
    {"Qwen2-MoE-2.7B/1x16/M16384/std0/n0/Megatron-Cutlass", 0x403f1e72521d16deull, 0xdb0b29cdc8cf32bdull, 0x4664538c17b7a1c6ull},
    {"Qwen2-MoE-2.7B/1x16/M16384/std0/n0/FasterMoE", 0x403d5fb5a66ac7fdull, 0xc5f0b70d7cdf0a76ull, 0x5dcd1db18cb5d29dull},
    {"Qwen2-MoE-2.7B/1x16/M16384/std0/n0/Tutel", 0x403a280efe69fd07ull, 0x087b0f3199850428ull, 0x1e4266e6c784b2d0ull},
    {"Qwen2-MoE-2.7B/1x16/M16384/std0/n0/Comet", 0x4025b9f07f98c01full, 0x14f31fedd7b0dff4ull, 0xf7aaa31aba468372ull},
    {"Mixtral-8x7B/1x8/M16384/std0.05/n0/Megatron-TE", 0x4067319156e14b20ull, 0xc3255c45605e6f0aull, 0x49464a515292a896ull},
    {"Mixtral-8x7B/1x8/M16384/std0.05/n0/Megatron-Cutlass", 0x406698b3189c8b72ull, 0x2c0deffe5a0bc8d0ull, 0x6161bea28f75c8e0ull},
    {"Mixtral-8x7B/1x8/M16384/std0.05/n0/FasterMoE", 0x40638dc8cae5d658ull, 0xde8335fa7f3c9118ull, 0x5b2aa40c92d643b7ull},
    {"Mixtral-8x7B/1x8/M16384/std0.05/n0/Tutel", 0x4060d8eb9c1e5745ull, 0x917e769ff18f9b21ull, 0x0da5fa2ff67f976aull},
    {"Mixtral-8x7B/1x8/M16384/std0.05/n0/Comet", 0x405b0847a4c23ebeull, 0x9c0c07813d42c24full, 0x1b3717d92ad7c468ull},
    {"Qwen2-MoE-2.7B/1x16/M16384/std0/n2/Megatron-TE", 0x404202b566597b08ull, 0x413139aa7f372399ull, 0x7d83faa77b6c2ec6ull},
    {"Qwen2-MoE-2.7B/1x16/M16384/std0/n2/Megatron-Cutlass", 0x40418f7ad4c933b4ull, 0x62d21fee2dd000d2ull, 0x16306bc5dd449855ull},
    {"Qwen2-MoE-2.7B/1x16/M16384/std0/n2/FasterMoE", 0x4041b4c14e2f42deull, 0xd365da2923fe2a9bull, 0x41edea820bb9626eull},
    {"Qwen2-MoE-2.7B/1x16/M16384/std0/n2/Tutel", 0x403f55f173cfa0c1ull, 0x736bf05b702b4a35ull, 0xea5740fc5ae06679ull},
    {"Qwen2-MoE-2.7B/1x16/M16384/std0/n2/Comet", 0x4030d3d630e40683ull, 0x3a405f848f0bb1e5ull, 0x63e320aa35f72ffdull},
};
// clang-format on

std::string RowName(const RunSetup& s, const std::string& system) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s/%dx%d/M%" PRId64 "/std%g/n%d/%s",
                s.model().name.c_str(), s.tp, s.ep, s.tokens, s.load_std,
                s.nodes, system.c_str());
  return buf;
}

// Pin-table lines, formatted as the tables write them.
std::string RunLine(const std::string& row, uint64_t total_ms_bits,
                    uint64_t per_rank_fnv, uint64_t timeline_fnv) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "    {\"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64
                "ull, 0x%016" PRIx64 "ull},",
                row.c_str(), total_ms_bits, per_rank_fnv, timeline_fnv);
  return buf;
}

std::string SweepLine(const std::string& row, uint64_t samples_fnv) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "    {\"%s\", 0x%016" PRIx64 "ull},",
                row.c_str(), samples_fnv);
  return buf;
}

// Compares line by line; on a changed row count prints the whole table.
void ExpectLines(const std::vector<std::string>& actual,
                 const std::vector<std::string>& expected) {
  std::string table;
  for (const std::string& line : actual) {
    table += line + "\n";
  }
  ASSERT_EQ(actual.size(), expected.size())
      << "row count changed; the full table is:\n" << table;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "row " << i;
  }
}

TEST(TimingGolden, RunModelBitsMatchPins) {
  std::vector<std::string> actual;
  for (const RunSetup& s : Setups()) {
    // Fresh executors per setup: cold division-point profiles, as a figure
    // regeneration runs them.
    MegatronExecutor megatron_te = MakeMegatronTe();
    MegatronExecutor megatron_cutlass = MakeMegatronCutlass();
    FasterMoeExecutor fastermoe;
    TutelExecutor tutel;
    CometExecutor comet;
    const std::array<MoeLayerExecutor*, 5> systems = {
        &megatron_te, &megatron_cutlass, &fastermoe, &tutel, &comet};
    ModelRunConfig cfg;
    cfg.model = s.model();
    cfg.parallel = ParallelConfig{s.tp, s.ep};
    cfg.total_tokens = s.tokens;
    cfg.seed = 1;
    cfg.load_std = s.load_std;
    const ClusterSpec cluster = ClusterOf(s);
    for (MoeLayerExecutor* exec : systems) {
      if (!exec->Supports(cfg.parallel)) {
        continue;
      }
      const ModelRunResult r = RunModel(*exec, cfg, cluster);
      actual.push_back(RunLine(RowName(s, exec->name()),
                               std::bit_cast<uint64_t>(r.total_ms),
                               DigestPerRank(r.moe_layer.per_rank_us),
                               DigestTimeline(r.moe_layer.timeline)));
    }
  }
  std::vector<std::string> expected;
  for (const RunPin& pin : kRunPins) {
    expected.push_back(RunLine(pin.row, pin.total_ms_bits, pin.per_rank_fnv,
                               pin.timeline_fnv));
  }
  ExpectLines(actual, expected);
}

// The adaptive sweep on rank 0 of a Mixtral layer, per stage and tile size.
struct SweepPin {
  const char* row;  // "<tp>x<ep>/M<tokens>/layer<stage>/tile<tile>"
  uint64_t samples_fnv;
};

// clang-format off
constexpr SweepPin kSweepPins[] = {
    {"1x8/M2048/layer0/tile8", 0x87b2d6caee911196ull},
    {"1x8/M2048/layer0/tile128", 0xd58215c6a9108961ull},
    {"1x8/M2048/layer1/tile8", 0x44b41e074d0a5dffull},
    {"1x8/M2048/layer1/tile128", 0x99cfdf1842b7a126ull},
    {"2x4/M2048/layer0/tile8", 0xd39ec9edfeda1936ull},
    {"2x4/M2048/layer0/tile128", 0x746fc2644659ad48ull},
    {"2x4/M2048/layer1/tile8", 0x67f073c769ae3e9dull},
    {"2x4/M2048/layer1/tile128", 0x55dd864ad72af609ull},
};
// clang-format on

TEST(TimingGolden, SweepSamplesMatchPins) {
  std::vector<std::string> actual;
  for (const auto& [tp, ep, tokens] :
       {std::tuple{1, 8, int64_t{2048}}, std::tuple{2, 4, int64_t{2048}}}) {
    WorkloadOptions wopt;
    wopt.materialize = false;
    const MoeWorkload w =
        MakeWorkload(Mixtral8x7B(), ParallelConfig{tp, ep}, tokens, wopt);
    const ClusterSpec cluster = H800Cluster(tp * ep);
    const OpCostModel costs(cluster);
    const AdaptiveAssigner assigner;
    for (const MoePipelineStage stage :
         {MoePipelineStage::kLayer0, MoePipelineStage::kLayer1}) {
      for (const int64_t tile : {int64_t{8}, int64_t{128}}) {
        FusedKernelConfig base;
        base.total_blocks = cluster.gpu.num_sms;
        base.tile_m = tile;
        base.tile_n = tile;
        Fnv f;
        const auto samples = assigner.Sweep(stage, w.plan, 0, costs, base);
        f.U64(samples.size());
        for (const DivisionPointSample& sample : samples) {
          f.U64(static_cast<uint64_t>(sample.comm_blocks));
          f.Double(sample.duration_us);
        }
        char row[64];
        std::snprintf(row, sizeof(row),
                      "%dx%d/M%" PRId64 "/layer%d/tile%" PRId64, tp, ep,
                      tokens, stage == MoePipelineStage::kLayer0 ? 0 : 1,
                      tile);
        actual.push_back(SweepLine(row, f.value()));
      }
    }
  }
  std::vector<std::string> expected;
  for (const SweepPin& pin : kSweepPins) {
    expected.push_back(SweepLine(pin.row, pin.samples_fnv));
  }
  ExpectLines(actual, expected);
}

// One fused-kernel simulation (SimulateLayer{0,1}Fused on `rank`, 20
// communication blocks). `nodes` as in RunSetup.
struct FusedSetup {
  int tp;
  int ep;
  int64_t tokens;
  int64_t tile;
  int nodes;
  int rank;
  bool reschedule;
  bool vertical;
};

std::vector<FusedSetup> FusedSetups() {
  std::vector<FusedSetup> out;
  for (const int64_t tile : {8, 16, 32, 128}) {
    out.push_back({1, 8, 16384, tile, 0, 0, true, false});
  }
  out.push_back({1, 8, 1024, 1, 0, 0, true, false});
  out.push_back({2, 4, 16384, 16, 0, 1, true, false});
  out.push_back({1, 8, 16384, 32, 2, 5, true, false});
  out.push_back({1, 8, 16384, 128, 0, 3, false, false});
  out.push_back({1, 8, 16384, 32, 0, 0, true, true});
  return out;
}

struct FusedPin {
  // "<tp>x<ep>/M<tokens>/tile<tile>/n<nodes>/rank<rank>/<flags>/layer<l>"
  const char* row;
  uint64_t duration_bits;
  uint64_t compute_makespan_bits;
  uint64_t comm_makespan_bits;
  uint64_t stall_bits;
  uint64_t comm_bytes_bits;
  uint64_t timeline_fnv;
};

// clang-format off
constexpr FusedPin kFusedPins[] = {
    {"1x8/M16384/tile8/n0/rank0/resched/layer0", 0x40b31820b60f752dull, 0x40b31820b60f752dull, 0x408dd2a3055325edull, 0x0000000000000000ull, 0x417b420000000000ull, 0x5c771aeb8b396d15ull},
    {"1x8/M16384/tile8/n0/rank0/resched/layer1", 0x40b28107a401fb30ull, 0x40b27d91ad04d930ull, 0x40b28107a401fb30ull, 0x0000000000000000ull, 0x417b420000000000ull, 0xf7e9d1bb7903e419ull},
    {"1x8/M16384/tile16/n0/rank0/resched/layer0", 0x40a101b5bb4b4970ull, 0x40a101b5bb4b4970ull, 0x408dd2a3055325f4ull, 0x0000000000000000ull, 0x417b420000000000ull, 0x5fddaa0de705297bull},
    {"1x8/M16384/tile16/n0/rank0/resched/layer1", 0x40a08552b6cd1439ull, 0x40a07aae0e0bbf70ull, 0x40a08552b6cd1439ull, 0x0000000000000000ull, 0x417b420000000000ull, 0x47d6e2a8806c1cfcull},
    {"1x8/M16384/tile32/n0/rank0/resched/layer0", 0x409321ec72b4b263ull, 0x409321ec72b4b263ull, 0x408dd2a305532603ull, 0x0000000000000000ull, 0x417b420000000000ull, 0x0fb40a2005be222dull},
    {"1x8/M16384/tile32/n0/rank0/resched/layer1", 0x4092ae300c6c242full, 0x40928a03cfcd3770ull, 0x4092ae300c6c242full, 0x0000000000000000ull, 0x417b420000000000ull, 0x8559826fe8b0c90dull},
    {"1x8/M16384/tile128/n0/rank0/resched/layer0", 0x408f0e2675c230a0ull, 0x408f0e2675c230a0ull, 0x408dd2a30553261bull, 0x40df8d1907014465ull, 0x417b420000000000ull, 0xb0c51fc574184432ull},
    {"1x8/M16384/tile128/n0/rank0/resched/layer1", 0x40901404c572764dull, 0x4087560137b1c151ull, 0x40901404c572764dull, 0x0000000000000000ull, 0x417b420000000000ull, 0xec63a6488caddba3ull},
    {"1x8/M1024/tile1/n0/rank0/resched/layer0", 0x40c3a8e37d603413ull, 0x40c3a8e37d603413ull, 0x404fa812918b6664ull, 0x0000000000000000ull, 0x413c400000000000ull, 0xe1463b3a7a1a6ba8ull},
    {"1x8/M1024/tile1/n0/rank0/resched/layer1", 0x40c30919ed388242ull, 0x40c3084b32b75929ull, 0x40c30919ed388242ull, 0x0000000000000000ull, 0x413c400000000000ull, 0xaabf9cd161782f71ull},
    {"2x4/M16384/tile16/n0/rank1/resched/layer0", 0x40a1475e86feaad0ull, 0x40a1475e86feaad0ull, 0x4099c7525460aa40ull, 0x0000000000000000ull, 0x4187940000000000ull, 0x0f98b0c8d92fa6cbull},
    {"2x4/M16384/tile16/n0/rank1/resched/layer1", 0x40a106db864d7341ull, 0x40a0f5b03e597714ull, 0x40a106db864d7341ull, 0x0000000000000000ull, 0x418f940000000000ull, 0xfb7deeaf9e9a8647ull},
    {"1x8/M16384/tile32/n2/rank5/resched/layer0", 0x4097529ab4875890ull, 0x4097529ab4875890ull, 0x40970c6508dfea2dull, 0x40d7f958a266fb63ull, 0x417c240000000000ull, 0xa1d8f4cdb2601e16ull},
    {"1x8/M16384/tile32/n2/rank5/resched/layer1", 0x40974ec5c261e3bfull, 0x40935125fc53244aull, 0x40974ec5c261e3bfull, 0x0000000000000000ull, 0x417c240000000000ull, 0x2f97f6c17c274235ull},
    {"1x8/M16384/tile128/n0/rank3/canonical/layer0", 0x408f433373ad594full, 0x408f433373ad594full, 0x408e92e0300f4ab2ull, 0x40e023633fdc2982ull, 0x417bf20000000000ull, 0x7356e37d4afb00c3ull},
    {"1x8/M16384/tile128/n0/rank3/canonical/layer1", 0x4099c9bd7117a2c5ull, 0x4087560137b1c151ull, 0x4099c9bd7117a2c5ull, 0x0000000000000000ull, 0x417bf20000000000ull, 0x41759a780f3f0442ull},
    {"1x8/M16384/tile32/n0/rank0/vertical/layer0", 0x40f0158f64b43611ull, 0x40f0158f64b43611ull, 0x40f0158f64b43611ull, 0x0000000000000000ull, 0x417b420000000000ull, 0x3d91c3b1c724d1c3ull},
    {"1x8/M16384/tile32/n0/rank0/vertical/layer1", 0x40947591e346b6dbull, 0x40947591e346b6dbull, 0x40947591e346b6dbull, 0x0000000000000000ull, 0x417b420000000000ull, 0x6f7dec6891afe95bull},
};
// clang-format on

std::string FusedLine(const FusedPin& p) {
  char buf[400];
  std::snprintf(buf, sizeof(buf),
                "    {\"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64
                "ull, 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull, 0x%016" PRIx64
                "ull, 0x%016" PRIx64 "ull},",
                p.row, p.duration_bits, p.compute_makespan_bits,
                p.comm_makespan_bits, p.stall_bits, p.comm_bytes_bits,
                p.timeline_fnv);
  return buf;
}

TEST(TimingGolden, FusedKernelBitsMatchPins) {
  std::vector<std::string> actual;
  for (const FusedSetup& s : FusedSetups()) {
    WorkloadOptions wopt;
    wopt.materialize = false;
    const MoeWorkload w = MakeWorkload(
        Mixtral8x7B(), ParallelConfig{s.tp, s.ep}, s.tokens, wopt);
    const ClusterSpec cluster =
        s.nodes == 0 ? H800Cluster(s.tp * s.ep)
                     : MultiNodeH800Cluster(s.nodes, s.tp * s.ep / s.nodes);
    const OpCostModel costs(cluster);
    FusedKernelConfig config;
    config.total_blocks = cluster.gpu.num_sms;
    config.comm_blocks = 20;
    config.tile_m = s.tile;
    config.tile_n = s.tile;
    config.reschedule = s.reschedule;
    config.vertical_fusion = s.vertical;
    for (const int layer : {0, 1}) {
      const FusedKernelResult r =
          layer == 0 ? SimulateLayer0Fused(w.plan, s.rank, costs, config)
                     : SimulateLayer1Fused(w.plan, s.rank, costs, config);
      char row[128];
      std::snprintf(row, sizeof(row),
                    "%dx%d/M%" PRId64 "/tile%" PRId64 "/n%d/rank%d/%s/layer%d",
                    s.tp, s.ep, s.tokens, s.tile, s.nodes, s.rank,
                    s.vertical ? "vertical"
                               : (s.reschedule ? "resched" : "canonical"),
                    layer);
      actual.push_back(FusedLine(FusedPin{
          row, std::bit_cast<uint64_t>(r.duration_us),
          std::bit_cast<uint64_t>(r.compute_makespan_us),
          std::bit_cast<uint64_t>(r.comm_makespan_us),
          std::bit_cast<uint64_t>(r.stall_us),
          std::bit_cast<uint64_t>(r.comm_bytes), DigestTimeline(r.timeline)}));
    }
  }
  std::vector<std::string> expected;
  for (const FusedPin& pin : kFusedPins) {
    expected.push_back(FusedLine(pin));
  }
  ExpectLines(actual, expected);
}

}  // namespace
}  // namespace comet
