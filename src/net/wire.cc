#include "net/wire.h"

#include <cstdio>
#include <cstring>

namespace ncl::net {

namespace {

// --- Little-endian primitive writers. The buffer is a std::string used as
// a byte sink; memcpy keeps the writes alignment-safe and the explicit
// byte order keeps frames portable across hosts.

void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

void PutU16(std::string* out, uint16_t v) {
  char bytes[2] = {static_cast<char>(v & 0xff), static_cast<char>(v >> 8)};
  out->append(bytes, 2);
}

void PutU32(std::string* out, uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(bytes, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(bytes, 8);
}

void PutI32(std::string* out, int32_t v) { PutU32(out, static_cast<uint32_t>(v)); }

void PutF64(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked reader over a frame body. Each Read* returns false once
/// the body is exhausted; the caller converts that to InvalidArgument.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* v) {
    if (data_.size() - pos_ < 1) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool ReadU16(uint16_t* v) {
    if (data_.size() - pos_ < 2) return false;
    *v = static_cast<uint16_t>(Byte(0) | (Byte(1) << 8));
    pos_ += 2;
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (data_.size() - pos_ < 4) return false;
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) out |= static_cast<uint32_t>(Byte(i)) << (8 * i);
    *v = out;
    pos_ += 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (data_.size() - pos_ < 8) return false;
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) out |= static_cast<uint64_t>(Byte(i)) << (8 * i);
    *v = out;
    pos_ += 8;
    return true;
  }
  bool ReadI32(int32_t* v) {
    uint32_t raw;
    if (!ReadU32(&raw)) return false;
    *v = static_cast<int32_t>(raw);
    return true;
  }
  bool ReadF64(double* v) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool ReadString(std::string* v) {
    uint32_t len;
    if (!ReadU32(&len)) return false;
    if (data_.size() - pos_ < len) return false;
    v->assign(data_.substr(pos_, len));
    pos_ += len;
    return true;
  }

  bool exhausted() const { return pos_ == data_.size(); }

  /// Bytes left to read — the bound for validating wire element counts
  /// before they size an allocation.
  size_t remaining() const { return data_.size() - pos_; }

 private:
  uint32_t Byte(int i) const { return static_cast<uint8_t>(data_[pos_ + i]); }

  std::string_view data_;
  size_t pos_ = 0;
};

std::string ToHex(uint16_t v) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "0x%04x", v);
  return buf;
}

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("truncated or malformed ") + what +
                                 " body");
}

/// The error envelope: code name + message. Encoding the *name* (not the
/// enum value) is what makes the envelope survive enum renumbering; the
/// round trip is StatusCodeToString -> StatusCodeFromString.
void PutStatusEnvelope(std::string* out, const Status& status) {
  PutString(out, std::string(StatusCodeToString(status.code())));
  PutString(out, status.message());
}

bool ReadStatusEnvelope(Reader* reader, Status* status) {
  std::string code_name;
  std::string message;
  if (!reader->ReadString(&code_name) || !reader->ReadString(&message)) {
    return false;
  }
  std::optional<StatusCode> code = StatusCodeFromString(code_name);
  if (code.has_value()) {
    *status = Status(*code, std::move(message));
  } else {
    // A name this build does not know (newer peer): preserve everything we
    // can rather than dropping the diagnosis on the floor.
    *status = Status::Internal("unknown wire status code '" + code_name +
                               "': " + message);
  }
  return true;
}

std::string MakeFrame(MessageType type, uint64_t correlation_id,
                      std::string_view body) {
  std::string out;
  out.reserve(kHeaderSize + body.size());
  PutU16(&out, kMagic);
  PutU8(&out, kProtocolVersion);
  PutU8(&out, static_cast<uint8_t>(type));
  PutU32(&out, static_cast<uint32_t>(body.size()));
  PutU64(&out, correlation_id);
  out.append(body);
  return out;
}

}  // namespace

std::string EncodeLinkRequest(uint64_t correlation_id, const LinkRequestMsg& msg) {
  std::string body;
  PutU64(&body, msg.deadline_us);
  PutString(&body, msg.ontology);
  PutU32(&body, static_cast<uint32_t>(msg.tokens.size()));
  for (const std::string& token : msg.tokens) PutString(&body, token);
  return MakeFrame(MessageType::kLinkRequest, correlation_id, body);
}

std::string EncodeLinkResponse(uint64_t correlation_id, const LinkResponseMsg& msg) {
  std::string body;
  PutStatusEnvelope(&body, msg.status);
  PutU64(&body, msg.snapshot_version);
  PutU64(&body, msg.server_request_id);
  PutF64(&body, msg.timings.queue_wait_us);
  PutF64(&body, msg.timings.batch_form_us);
  PutF64(&body, msg.timings.candgen_us);
  PutF64(&body, msg.timings.ed_us);
  PutF64(&body, msg.timings.rank_us);
  PutF64(&body, msg.timings.total_us);
  PutU32(&body, static_cast<uint32_t>(msg.candidates.size()));
  for (const linking::ScoredCandidate& c : msg.candidates) {
    PutI32(&body, c.concept_id);
    PutF64(&body, c.log_prob);
    PutF64(&body, c.loss);
  }
  return MakeFrame(MessageType::kLinkResponse, correlation_id, body);
}

std::string EncodeHealthRequest(uint64_t correlation_id) {
  return MakeFrame(MessageType::kHealthRequest, correlation_id, {});
}

std::string EncodeHealthResponse(uint64_t correlation_id,
                                 const HealthResponseMsg& msg) {
  std::string body;
  PutU8(&body, static_cast<uint8_t>(msg.state));
  PutU64(&body, msg.snapshot_version);
  return MakeFrame(MessageType::kHealthResponse, correlation_id, body);
}

std::string EncodeDrainRequest(uint64_t correlation_id) {
  return MakeFrame(MessageType::kDrainRequest, correlation_id, {});
}

std::string EncodeDrainResponse(uint64_t correlation_id, const Status& status) {
  std::string body;
  PutStatusEnvelope(&body, status);
  return MakeFrame(MessageType::kDrainResponse, correlation_id, body);
}

std::string EncodeStatsRequest(uint64_t correlation_id) {
  return MakeFrame(MessageType::kStatsRequest, correlation_id, {});
}

std::string EncodeStatsResponse(uint64_t correlation_id,
                                const StatsResponseMsg& msg) {
  std::string body;
  PutU64(&body, msg.stats.admitted);
  PutU64(&body, msg.stats.rejected);
  PutU64(&body, msg.stats.shed);
  PutU64(&body, msg.stats.deadline_exceeded);
  PutU64(&body, msg.stats.completed);
  PutU64(&body, msg.stats.batches);
  PutU64(&body, msg.stats.queue_depth);
  PutU64(&body, msg.stats.max_queue_depth);
  return MakeFrame(MessageType::kStatsResponse, correlation_id, body);
}

std::string EncodeErrorResponse(uint64_t correlation_id, const Status& status) {
  std::string body;
  PutStatusEnvelope(&body, status);
  return MakeFrame(MessageType::kError, correlation_id, body);
}

Result<FrameHeader> DecodeHeader(std::string_view bytes,
                                 uint32_t max_body_bytes) {
  if (bytes.size() < kHeaderSize) {
    return Status::InvalidArgument("frame header needs " +
                                   std::to_string(kHeaderSize) + " bytes, got " +
                                   std::to_string(bytes.size()));
  }
  Reader reader(bytes.substr(0, kHeaderSize));
  uint16_t magic = 0;
  uint8_t version = 0;
  uint8_t type = 0;
  FrameHeader header;
  reader.ReadU16(&magic);
  reader.ReadU8(&version);
  reader.ReadU8(&type);
  reader.ReadU32(&header.body_size);
  reader.ReadU64(&header.correlation_id);
  if (magic != kMagic) {
    return Status::InvalidArgument("bad frame magic " + ToHex(magic) +
                                   " (not an ncl::net peer?)");
  }
  if (version != kProtocolVersion) {
    return Status::InvalidArgument(
        "unsupported protocol version " + std::to_string(version) +
        " (this build speaks " + std::to_string(kProtocolVersion) + ")");
  }
  if (header.body_size > max_body_bytes) {
    return Status::InvalidArgument(
        "frame body of " + std::to_string(header.body_size) +
        " bytes exceeds the " + std::to_string(max_body_bytes) + "-byte cap");
  }
  header.version = version;
  header.type = static_cast<MessageType>(type);
  return header;
}

Result<LinkRequestMsg> DecodeLinkRequest(std::string_view body) {
  Reader reader(body);
  LinkRequestMsg msg;
  uint32_t count;
  if (!reader.ReadU64(&msg.deadline_us) || !reader.ReadString(&msg.ontology) ||
      !reader.ReadU32(&count)) {
    return Truncated("LinkRequest");
  }
  // The deadline is attacker-controlled: clamp it here, at the trust
  // boundary, so no downstream arithmetic ever sees a value that could
  // overflow a steady_clock time_point.
  if (msg.deadline_us > kMaxDeadlineUs) msg.deadline_us = kMaxDeadlineUs;
  // The count is attacker-controlled: bound it by the bytes actually present
  // (each token carries at least a 4-byte length prefix) before it sizes an
  // allocation, or a 28-byte frame could demand a multi-GB reserve.
  if (count > reader.remaining() / 4) return Truncated("LinkRequest");
  msg.tokens.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string token;
    if (!reader.ReadString(&token)) return Truncated("LinkRequest");
    msg.tokens.push_back(std::move(token));
  }
  if (!reader.exhausted()) return Truncated("LinkRequest");
  return msg;
}

Result<LinkResponseMsg> DecodeLinkResponse(std::string_view body) {
  Reader reader(body);
  LinkResponseMsg msg;
  uint32_t count;
  if (!ReadStatusEnvelope(&reader, &msg.status) ||
      !reader.ReadU64(&msg.snapshot_version) ||
      !reader.ReadU64(&msg.server_request_id) ||
      !reader.ReadF64(&msg.timings.queue_wait_us) ||
      !reader.ReadF64(&msg.timings.batch_form_us) ||
      !reader.ReadF64(&msg.timings.candgen_us) ||
      !reader.ReadF64(&msg.timings.ed_us) ||
      !reader.ReadF64(&msg.timings.rank_us) ||
      !reader.ReadF64(&msg.timings.total_us) || !reader.ReadU32(&count)) {
    return Truncated("LinkResponse");
  }
  // Same wire-count validation as DecodeLinkRequest: a candidate is exactly
  // 20 bytes (i32 + two f64), so any count beyond remaining/20 is malformed.
  if (count > reader.remaining() / 20) return Truncated("LinkResponse");
  msg.candidates.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    linking::ScoredCandidate candidate;
    if (!reader.ReadI32(&candidate.concept_id) ||
        !reader.ReadF64(&candidate.log_prob) || !reader.ReadF64(&candidate.loss)) {
      return Truncated("LinkResponse");
    }
    msg.candidates.push_back(candidate);
  }
  if (!reader.exhausted()) return Truncated("LinkResponse");
  return msg;
}

Result<HealthResponseMsg> DecodeHealthResponse(std::string_view body) {
  Reader reader(body);
  HealthResponseMsg msg;
  uint8_t state;
  if (!reader.ReadU8(&state) || !reader.ReadU64(&msg.snapshot_version) ||
      !reader.exhausted()) {
    return Truncated("HealthResponse");
  }
  if (state > static_cast<uint8_t>(ServerState::kDraining)) {
    return Status::InvalidArgument("unknown server state " + std::to_string(state));
  }
  msg.state = static_cast<ServerState>(state);
  return msg;
}

Result<StatsResponseMsg> DecodeStatsResponse(std::string_view body) {
  Reader reader(body);
  StatsResponseMsg msg;
  uint64_t queue_depth;
  uint64_t max_queue_depth;
  if (!reader.ReadU64(&msg.stats.admitted) || !reader.ReadU64(&msg.stats.rejected) ||
      !reader.ReadU64(&msg.stats.shed) ||
      !reader.ReadU64(&msg.stats.deadline_exceeded) ||
      !reader.ReadU64(&msg.stats.completed) || !reader.ReadU64(&msg.stats.batches) ||
      !reader.ReadU64(&queue_depth) || !reader.ReadU64(&max_queue_depth) ||
      !reader.exhausted()) {
    return Truncated("StatsResponse");
  }
  msg.stats.queue_depth = static_cast<size_t>(queue_depth);
  msg.stats.max_queue_depth = static_cast<size_t>(max_queue_depth);
  return msg;
}

Status DecodeStatusEnvelope(std::string_view body, Status* decoded) {
  Reader reader(body);
  if (!ReadStatusEnvelope(&reader, decoded) || !reader.exhausted()) {
    return Truncated("status envelope");
  }
  return Status::OK();
}

bool FrameDecoder::Next(Frame* frame, Status* status) {
  if (!error_.ok()) {
    *status = error_;
    return false;
  }
  *status = Status::OK();
  // Compact lazily: drop the consumed prefix once it dominates the buffer,
  // so a long-lived connection does not grow its read buffer forever.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  std::string_view pending(buffer_.data() + consumed_, buffer_.size() - consumed_);
  if (pending.size() < kHeaderSize) return false;
  Result<FrameHeader> header = DecodeHeader(pending, max_body_bytes_);
  if (!header.ok()) {
    error_ = header.status();
    *status = error_;
    return false;
  }
  if (pending.size() < kHeaderSize + header->body_size) return false;
  frame->header = *header;
  frame->body.assign(pending.substr(kHeaderSize, header->body_size));
  consumed_ += kHeaderSize + header->body_size;
  return true;
}

}  // namespace ncl::net
