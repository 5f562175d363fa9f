#include "bench/harness.hh"

#include "common/logging.hh"

namespace flashmem::bench {

namespace {

/** Paper Table 7, (init, exec) ms per framework column. */
const std::map<ModelId, std::map<FrameworkId, PaperLatency>> kTable7 = {
    {ModelId::GPTNeoS,
     {{FrameworkId::MNN, {3529, 337}},
      {FrameworkId::TVM, {5832, 621}},
      {FrameworkId::ExecuTorch, {277, 5869}},
      {FrameworkId::SmartMem, {4757, 59}}}},
    {ModelId::GPTNeo1_3B,
     {{FrameworkId::ExecuTorch, {5178, 515291}},
      {FrameworkId::SmartMem, {48109, 501}}}},
    {ModelId::GPTNeo2_7B, {}},
    {ModelId::ResNet50,
     {{FrameworkId::MNN, {1751, 22}},
      {FrameworkId::NCNN, {1341, 28}},
      {FrameworkId::TVM, {524, 56}},
      {FrameworkId::LiteRT, {573, 34}},
      {FrameworkId::ExecuTorch, {65, 10302}},
      {FrameworkId::SmartMem, {1470, 33}}}},
    {ModelId::SAM2,
     {{FrameworkId::ExecuTorch, {1178, 857752}},
      {FrameworkId::SmartMem, {9983, 826}}}},
    {ModelId::ViT,
     {{FrameworkId::MNN, {2550, 476}},
      {FrameworkId::TVM, {3527, 841}},
      {FrameworkId::LiteRT, {711, 91}},
      {FrameworkId::ExecuTorch, {90, 6671}},
      {FrameworkId::SmartMem, {3675, 73}}}},
    {ModelId::DeepViT,
     {{FrameworkId::MNN, {4345, 883}},
      {FrameworkId::TVM, {6243, 1665}},
      {FrameworkId::LiteRT, {1013, 254}},
      {FrameworkId::ExecuTorch, {298, 60656}},
      {FrameworkId::SmartMem, {7699, 190}}}},
    {ModelId::SDUNet,
     {{FrameworkId::MNN, {21747, 1647}},
      {FrameworkId::ExecuTorch, {7692, 1056869}},
      {FrameworkId::SmartMem, {29588, 312}}}},
    {ModelId::WhisperMedium,
     {{FrameworkId::MNN, {6143, 1343}},
      {FrameworkId::TVM, {7256, 2157}},
      {FrameworkId::SmartMem, {15066, 336}}}},
    {ModelId::DepthAnythingS,
     {{FrameworkId::MNN, {2492, 588}},
      {FrameworkId::TVM, {2012, 487}},
      {FrameworkId::SmartMem, {2200, 71}}}},
    {ModelId::DepthAnythingL,
     {{FrameworkId::MNN, {6267, 1784}},
      {FrameworkId::TVM, {6988, 1917}},
      {FrameworkId::SmartMem, {18567, 807}}}},
};

const std::map<ModelId, double> kTable7Flash = {
    {ModelId::GPTNeoS, 577},        {ModelId::GPTNeo1_3B, 3086},
    {ModelId::GPTNeo2_7B, 7567},    {ModelId::ResNet50, 473},
    {ModelId::SAM2, 1267},          {ModelId::ViT, 347},
    {ModelId::DeepViT, 785},        {ModelId::SDUNet, 3212},
    {ModelId::WhisperMedium, 1565}, {ModelId::DepthAnythingS, 496},
    {ModelId::DepthAnythingL, 1382},
};

/** Paper Table 8, average memory (MB). */
const std::map<ModelId, std::map<FrameworkId, double>> kTable8 = {
    {ModelId::GPTNeoS,
     {{FrameworkId::MNN, 610},
      {FrameworkId::TVM, 2300},
      {FrameworkId::ExecuTorch, 702},
      {FrameworkId::SmartMem, 541}}},
    {ModelId::GPTNeo1_3B,
     {{FrameworkId::ExecuTorch, 2600}, {FrameworkId::SmartMem, 2667}}},
    {ModelId::GPTNeo2_7B, {}},
    {ModelId::ResNet50,
     {{FrameworkId::MNN, 149},
      {FrameworkId::NCNN, 165},
      {FrameworkId::TVM, 789},
      {FrameworkId::LiteRT, 331},
      {FrameworkId::ExecuTorch, 129},
      {FrameworkId::SmartMem, 140}}},
    {ModelId::SAM2, {{FrameworkId::SmartMem, 896}}},
    {ModelId::ViT,
     {{FrameworkId::MNN, 369},
      {FrameworkId::TVM, 801},
      {FrameworkId::LiteRT, 711},
      {FrameworkId::ExecuTorch, 375},
      {FrameworkId::SmartMem, 390}}},
    {ModelId::DeepViT,
     {{FrameworkId::MNN, 824},
      {FrameworkId::TVM, 3072},
      {FrameworkId::LiteRT, 2355},
      {FrameworkId::ExecuTorch, 1228},
      {FrameworkId::SmartMem, 826}}},
    {ModelId::SDUNet,
     {{FrameworkId::MNN, 1800},
      {FrameworkId::ExecuTorch, 1792},
      {FrameworkId::SmartMem, 2100}}},
    {ModelId::WhisperMedium,
     {{FrameworkId::MNN, 1650},
      {FrameworkId::TVM, 1638},
      {FrameworkId::SmartMem, 1433}}},
    {ModelId::DepthAnythingS,
     {{FrameworkId::MNN, 148},
      {FrameworkId::TVM, 461},
      {FrameworkId::SmartMem, 150}}},
    {ModelId::DepthAnythingL,
     {{FrameworkId::MNN, 1230},
      {FrameworkId::TVM, 1260},
      {FrameworkId::SmartMem, 1200}}},
};

const std::map<ModelId, double> kTable8Flash = {
    {ModelId::GPTNeoS, 260},       {ModelId::GPTNeo1_3B, 554},
    {ModelId::GPTNeo2_7B, 1132},   {ModelId::ResNet50, 83},
    {ModelId::SAM2, 150},          {ModelId::ViT, 83},
    {ModelId::DeepViT, 165},       {ModelId::SDUNet, 838},
    {ModelId::WhisperMedium, 240}, {ModelId::DepthAnythingS, 86},
    {ModelId::DepthAnythingL, 246},
};

} // namespace

PaperLatency
paperTable7(FrameworkId fw, ModelId m)
{
    const auto &row = kTable7.at(m);
    auto it = row.find(fw);
    return it == row.end() ? PaperLatency{} : it->second;
}

double
paperTable7Flash(ModelId m)
{
    return kTable7Flash.at(m);
}

double
paperTable8(FrameworkId fw, ModelId m)
{
    const auto &row = kTable8.at(m);
    auto it = row.find(fw);
    return it == row.end() ? -1 : it->second;
}

double
paperTable8Flash(ModelId m)
{
    return kTable8Flash.at(m);
}

std::optional<core::RunResult>
runBaseline(FrameworkId fw, const graph::Graph &g,
            const gpusim::DeviceProfile &dev)
{
    baselines::PreloadFramework framework(fw, dev);
    if (framework.supports(g) != baselines::SupportStatus::Supported)
        return std::nullopt;
    gpusim::GpuSimulator sim(dev);
    return framework.run(sim, g);
}

std::string
cellMs(const std::optional<core::RunResult> &r, bool init)
{
    if (!r)
        return "-";
    if (r->oom)
        return "OOM";
    return formatMs(init ? r->initLatency() : r->execLatency());
}

const graph::Graph &
cachedModel(ModelId id)
{
    static std::map<ModelId, graph::Graph> cache;
    auto it = cache.find(id);
    if (it == cache.end())
        it = cache.emplace(id, models::buildModel(id)).first;
    return it->second;
}

const std::vector<Table4Model> &
table4ModelSet()
{
    static const std::vector<std::pair<std::string, graph::Graph>>
        cache = [] {
            models::SyntheticTransformerCfg vit8b;
            vit8b.name = "vit_8b";
            vit8b.blocks = 40;
            vit8b.dModel = 4096;
            vit8b.heads = 32;
            vit8b.vocab = 1000;

            models::SyntheticTransformerCfg llama13;
            llama13.name = "llama2_13b";
            llama13.blocks = 40;
            llama13.dModel = 5120;
            llama13.heads = 40;
            llama13.ffnHidden = 13824;
            llama13.llamaStyle = true;

            models::SyntheticTransformerCfg llama70;
            llama70.name = "llama2_70b";
            llama70.blocks = 80;
            llama70.dModel = 8192;
            llama70.heads = 64;
            llama70.ffnHidden = 28672;
            llama70.kvDim = 1024;
            llama70.llamaStyle = true;

            std::vector<std::pair<std::string, graph::Graph>> out;
            out.emplace_back("GPTN-S",
                             models::buildModel(ModelId::GPTNeoS));
            out.emplace_back("GPTN-1.3B",
                             models::buildModel(ModelId::GPTNeo1_3B));
            out.emplace_back("GPTN-2.7B",
                             models::buildModel(ModelId::GPTNeo2_7B));
            out.emplace_back("ViT-8B",
                             buildSyntheticTransformer(vit8b,
                                                       Precision::FP16));
            out.emplace_back(
                "Llama2-13B",
                buildSyntheticTransformer(llama13, Precision::FP16));
            out.emplace_back(
                "Llama2-70B",
                buildSyntheticTransformer(llama70, Precision::FP16));
            return out;
        }();
    static const std::vector<Table4Model> view = [] {
        std::vector<Table4Model> out;
        for (const auto &[name, g] : cache)
            out.push_back({name, &g});
        return out;
    }();
    return view;
}

const core::CompiledModel &
cachedCompiled(const core::FlashMem &fm, ModelId id)
{
    static std::map<std::string, core::CompiledModel> cache;
    std::string key = fm.device().name + "/" +
                      models::modelSpec(id).abbr;
    auto it = cache.find(key);
    if (it == cache.end())
        it = cache.emplace(key, fm.compile(cachedModel(id))).first;
    return it->second;
}

} // namespace flashmem::bench
