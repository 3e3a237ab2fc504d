#include "text/tokenizer.h"

#include <cctype>

#include "util/string_util.h"

namespace ncl::text {

namespace {
bool KeepChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '%' ||
         c == '\'';
}
}  // namespace

std::string Normalize(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  bool last_was_space = true;
  for (char raw_char : raw) {
    char c = static_cast<char>(std::tolower(static_cast<unsigned char>(raw_char)));
    if (KeepChar(c)) {
      out += c;
      last_was_space = false;
    } else if (!last_was_space) {
      out += ' ';
      last_was_space = true;
    }
  }
  // Trim trailing separator and any leading/trailing '.' on tokens like
  // "anemia." that arise from sentence punctuation.
  while (!out.empty() && (out.back() == ' ' || out.back() == '.')) out.pop_back();
  return out;
}

std::vector<std::string> Tokenize(std::string_view raw) {
  std::vector<std::string> tokens = Split(Normalize(raw), " ");
  for (auto& token : tokens) {
    while (!token.empty() && token.front() == '.') token.erase(token.begin());
    while (!token.empty() && token.back() == '.') token.pop_back();
  }
  std::vector<std::string> result;
  result.reserve(tokens.size());
  for (auto& token : tokens) {
    if (!token.empty()) result.push_back(std::move(token));
  }
  return result;
}

std::vector<std::string> CharNgramsPadded(std::string_view token, size_t n) {
  std::vector<std::string> grams;
  ForEachCharNgramPadded(token, n,
                         [&](std::string_view gram) { grams.emplace_back(gram); });
  return grams;
}

}  // namespace ncl::text
