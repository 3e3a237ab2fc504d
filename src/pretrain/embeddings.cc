#include "pretrain/embeddings.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>

#include "util/logging.h"

namespace ncl::pretrain {

WordEmbeddings::WordEmbeddings(text::Vocabulary vocab, nn::Matrix vectors)
    : vocab_(std::move(vocab)), vectors_(std::move(vectors)) {
  NCL_CHECK(vocab_.size() == vectors_.rows())
      << "vocabulary/vector row count mismatch";
  norms_.resize(vectors_.rows());
  for (size_t r = 0; r < vectors_.rows(); ++r) {
    double total = 0.0;
    const float* row = vectors_.row_data(r);
    for (size_t c = 0; c < vectors_.cols(); ++c) {
      total += static_cast<double>(row[c]) * row[c];
    }
    norms_[r] = std::sqrt(total);
  }
}

const float* WordEmbeddings::VectorOf(text::WordId id) const {
  NCL_DCHECK(id >= 0 && static_cast<size_t>(id) < vectors_.rows());
  return vectors_.row_data(static_cast<size_t>(id));
}

double WordEmbeddings::Cosine(text::WordId a, text::WordId b) const {
  const float* va = VectorOf(a);
  const float* vb = VectorOf(b);
  double dot = 0.0;
  for (size_t i = 0; i < dim(); ++i) dot += static_cast<double>(va[i]) * vb[i];
  double denom = norms_[static_cast<size_t>(a)] * norms_[static_cast<size_t>(b)];
  return denom > 0.0 ? dot / denom : 0.0;
}

std::vector<std::pair<text::WordId, double>> WordEmbeddings::Nearest(
    text::WordId id, size_t k,
    const std::function<bool(text::WordId)>& filter) const {
  std::vector<std::pair<text::WordId, double>> scored;
  scored.reserve(size());
  for (size_t other = 0; other < size(); ++other) {
    auto other_id = static_cast<text::WordId>(other);
    if (other_id == id) continue;
    if (filter && !filter(other_id)) continue;
    scored.emplace_back(other_id, Cosine(id, other_id));
  }
  size_t keep = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<ptrdiff_t>(keep),
                    scored.end(),
                    [](const auto& a, const auto& b) { return a.second > b.second; });
  scored.resize(keep);
  return scored;
}

namespace {
constexpr uint32_t kMagic = 0x4e434c45;  // "NCLE"
}

Status WordEmbeddings::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  uint32_t magic = kMagic;
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  uint64_t count = vocab_.size();
  uint64_t width = dim();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(&width), sizeof(width));
  for (size_t i = 0; i < vocab_.size(); ++i) {
    const std::string& word = vocab_.WordOf(static_cast<text::WordId>(i));
    uint64_t len = word.size();
    uint64_t word_count = vocab_.CountOf(static_cast<text::WordId>(i));
    out.write(reinterpret_cast<const char*>(&len), sizeof(len));
    out.write(word.data(), static_cast<std::streamsize>(len));
    out.write(reinterpret_cast<const char*>(&word_count), sizeof(word_count));
    out.write(reinterpret_cast<const char*>(vectors_.row_data(i)),
              static_cast<std::streamsize>(width * sizeof(float)));
  }
  return out.good() ? Status::OK() : Status::IOError("write failed for " + path);
}

Result<WordEmbeddings> WordEmbeddings::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::error_code ec;
  const uint64_t file_bytes = std::filesystem::file_size(path, ec);
  if (ec) return Status::IOError("cannot size " + path + ": " + ec.message());
  // Bytes left after the read position (0 once a read has failed): counts,
  // widths and lengths beyond it are forged or truncated and must not
  // allocate.
  auto bytes_left = [&in, file_bytes]() -> uint64_t {
    const std::streamoff pos = in.tellg();
    return pos < 0 ? 0 : file_bytes - static_cast<uint64_t>(pos);
  };
  uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (magic != kMagic) return Status::IOError("bad magic in " + path);
  uint64_t count = 0;
  uint64_t width = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  in.read(reinterpret_cast<char*>(&width), sizeof(width));
  // Each row holds a word length, a word count and `width` floats. (An empty
  // vocabulary keeps its width but stores no rows.)
  if (!in || (count > 0 && (width > bytes_left() / sizeof(float) ||
                            count > bytes_left() / (2 * sizeof(uint64_t) +
                                                    width * sizeof(float))))) {
    return Status::IOError("truncated embeddings file " + path);
  }
  text::Vocabulary vocab;
  nn::Matrix vectors(count, width);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t len = 0;
    in.read(reinterpret_cast<char*>(&len), sizeof(len));
    if (!in || len > bytes_left()) {
      return Status::IOError("truncated embeddings file " + path);
    }
    std::string word(len, '\0');
    in.read(word.data(), static_cast<std::streamsize>(len));
    uint64_t word_count = 0;
    in.read(reinterpret_cast<char*>(&word_count), sizeof(word_count));
    if (vocab.Add(word, word_count) != static_cast<text::WordId>(i)) {
      return Status::IOError("repeated word in embeddings file " + path);
    }
    in.read(reinterpret_cast<char*>(vectors.row_data(i)),
            static_cast<std::streamsize>(width * sizeof(float)));
    if (!in) return Status::IOError("truncated embeddings file " + path);
    const float* row = vectors.row_data(i);
    if (!std::all_of(row, row + width,
                     [](float v) { return std::isfinite(v); })) {
      return Status::IOError("non-finite vector for word '" + word +
                             "' in embeddings file " + path);
    }
  }
  return WordEmbeddings(std::move(vocab), std::move(vectors));
}

}  // namespace ncl::pretrain
