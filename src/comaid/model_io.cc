#include "comaid/model_io.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>

namespace ncl::comaid {

namespace {
constexpr uint32_t kMagic = 0x4e434c4d;  // "NCLM"
constexpr uint32_t kVersion = 1;

void WriteU32(std::ofstream& out, uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteU64(std::ofstream& out, uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteString(std::ofstream& out, const std::string& s) {
  WriteU64(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}
uint32_t ReadU32(std::ifstream& in) {
  uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}
uint64_t ReadU64(std::ifstream& in) {
  uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}
/// Bytes between the read position and the end of a `file_bytes`-long
/// file; 0 once a read has failed.
uint64_t BytesLeft(std::ifstream& in, uint64_t file_bytes) {
  const std::streamoff pos = in.tellg();
  return pos < 0 ? 0 : file_bytes - static_cast<uint64_t>(pos);
}
/// Reads one length-prefixed string. A length beyond the bytes left in the
/// file is a forged or truncated checkpoint and fails before allocating.
bool ReadString(std::ifstream& in, uint64_t file_bytes, std::string* out) {
  const uint64_t size = ReadU64(in);
  if (!in || size > BytesLeft(in, file_bytes)) return false;
  out->assign(size, '\0');
  in.read(out->data(), static_cast<std::streamsize>(size));
  return static_cast<bool>(in);
}
}  // namespace

Status SaveModel(const ComAidModel& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");

  WriteU32(out, kMagic);
  WriteU32(out, kVersion);
  const ComAidConfig& config = model.config();
  WriteU64(out, config.dim);
  WriteU64(out, static_cast<uint64_t>(config.beta));
  WriteU32(out, config.text_attention ? 1 : 0);
  WriteU32(out, config.structural_attention ? 1 : 0);
  WriteU64(out, config.seed);

  const text::Vocabulary& vocab = model.vocabulary();
  WriteU64(out, vocab.size());
  for (size_t i = 0; i < vocab.size(); ++i) {
    WriteString(out, vocab.WordOf(static_cast<text::WordId>(i)));
  }
  if (!out.good()) return Status::IOError("write failed for " + path);
  out.close();

  // The weights reuse ParameterStore's standalone format in a sibling file.
  return model.params().Save(path + ".params");
}

Result<std::unique_ptr<ComAidModel>> LoadModel(const std::string& path,
                                               const ontology::Ontology* onto) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::error_code ec;
  const uint64_t file_bytes = std::filesystem::file_size(path, ec);
  if (ec) return Status::IOError("cannot size " + path + ": " + ec.message());
  if (ReadU32(in) != kMagic) return Status::IOError("bad magic in " + path);
  if (ReadU32(in) != kVersion) return Status::IOError("bad version in " + path);

  ComAidConfig config;
  config.dim = ReadU64(in);
  const uint64_t beta = ReadU64(in);
  config.text_attention = ReadU32(in) != 0;
  config.structural_attention = ReadU32(in) != 0;
  config.seed = ReadU64(in);

  // Every word takes at least its 8-byte length, so a count beyond that
  // many words is a forged or truncated file; refuse it before allocating.
  const uint64_t vocab_size = ReadU64(in);
  if (!in || vocab_size > BytesLeft(in, file_bytes) / sizeof(uint64_t)) {
    return Status::IOError("truncated checkpoint " + path);
  }
  std::vector<std::string> words(vocab_size);
  for (auto& word : words) {
    if (!ReadString(in, file_bytes, &word)) {
      return Status::IOError("truncated checkpoint " + path);
    }
  }

  // Header fields the model constructor would abort on, or allocate by.
  if (config.dim == 0) {
    return Status::InvalidArgument("checkpoint " + path + " has dim 0");
  }
  if (beta > static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
    return Status::InvalidArgument("checkpoint " + path + " has beta " +
                                   std::to_string(beta) +
                                   " outside [0, INT32_MAX]");
  }
  config.beta = static_cast<int32_t>(beta);
  if (config.structural_attention && config.beta == 0) {
    return Status::InvalidArgument(
        "checkpoint " + path +
        " enables structural attention with beta 0 (Def. 4.1 needs beta >= 1)");
  }
  // The weights must fit the sibling .params file: at least the V x d
  // embedding table and one LSTM cell's 8 d^2 gate weights. A dim beyond
  // that is forged and must not size the model's allocations.
  const uint64_t params_bytes = std::filesystem::file_size(path + ".params", ec);
  if (ec) return Status::IOError("cannot open " + path + ".params");
  const uint64_t budget = params_bytes / sizeof(float);
  const uint64_t dim = config.dim;
  if (dim > budget / std::max<uint64_t>(vocab_size, 1) ||
      dim > budget / (8 * dim)) {
    return Status::InvalidArgument(
        "checkpoint " + path + " has dim " + std::to_string(dim) +
        ", too large for its " + std::to_string(params_bytes) +
        "-byte .params file");
  }

  // Rebuild the model with the checkpointed vocabulary: the ontology words
  // come first (as in the original construction); any remaining checkpoint
  // words are supplied as extra snippets so ids line up, then verified.
  std::vector<std::vector<std::string>> extra;
  for (const auto& word : words) extra.push_back({word});
  auto model = std::make_unique<ComAidModel>(config, onto, extra);

  if (model->vocabulary().size() != vocab_size) {
    return Status::FailedPrecondition(
        "vocabulary size mismatch: checkpoint has " + std::to_string(vocab_size) +
        " words, rebuilt model has " + std::to_string(model->vocabulary().size()) +
        " — was the ontology changed?");
  }
  for (size_t i = 0; i < vocab_size; ++i) {
    if (model->vocabulary().WordOf(static_cast<text::WordId>(i)) != words[i]) {
      return Status::FailedPrecondition(
          "vocabulary mismatch at id " + std::to_string(i) +
          " — was the ontology changed?");
    }
  }
  NCL_RETURN_NOT_OK(model->params()->Load(path + ".params"));
  model->NotifyWeightsChanged();
  return model;
}

}  // namespace ncl::comaid
