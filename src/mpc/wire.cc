#include "mpc/wire.h"

#include "common/serialize.h"

namespace psi {
namespace wire {

std::vector<uint8_t> PackArcs(const std::vector<Arc>& arcs) {
  BinaryWriter w;
  w.WriteVarU64(arcs.size());
  for (const Arc& a : arcs) {
    w.WriteU32(a.from);
    w.WriteU32(a.to);
  }
  return w.TakeBuffer();
}

Status UnpackArcs(const std::vector<uint8_t>& buf, std::vector<Arc>* out) {
  BinaryReader r(buf);
  uint64_t count;
  PSI_RETURN_NOT_OK(r.ReadCount(&count, /*min_bytes_per_element=*/8));
  out->resize(count);
  for (auto& a : *out) {
    PSI_RETURN_NOT_OK(r.ReadU32(&a.from));
    PSI_RETURN_NOT_OK(r.ReadU32(&a.to));
  }
  if (!r.AtEnd()) return Status::SerializationError("trailing bytes");
  return Status::OK();
}

Status UnpackArcSet(const std::vector<uint8_t>& buf, size_t num_nodes,
                    std::vector<Arc>* out) {
  PSI_RETURN_NOT_OK(UnpackArcs(buf, out));
  for (const Arc& a : *out) {
    if (a.from >= num_nodes || a.to >= num_nodes) {
      return Status::ProtocolError("Omega_E' arc endpoint out of range");
    }
  }
  return Status::OK();
}

std::vector<uint8_t> PackBigUInts(std::span<const BigUInt> v) {
  BinaryWriter w;
  w.WriteVarU64(v.size());
  for (const auto& x : v) WriteBigUInt(&w, x);
  return w.TakeBuffer();
}

Status UnpackBigUInts(BinaryReader* r, std::vector<BigUInt>* out) {
  uint64_t count;
  // A serialized BigUInt is at least one byte (the varint limb count).
  PSI_RETURN_NOT_OK(r->ReadCount(&count, /*min_bytes_per_element=*/1));
  out->resize(count);
  for (auto& x : *out) PSI_RETURN_NOT_OK(ReadBigUInt(r, &x));
  return Status::OK();
}

Status UnpackBigUInts(const std::vector<uint8_t>& buf,
                      std::vector<BigUInt>* out) {
  BinaryReader r(buf);
  PSI_RETURN_NOT_OK(UnpackBigUInts(&r, out));
  if (!r.AtEnd()) return Status::SerializationError("trailing bytes");
  return Status::OK();
}

std::vector<uint8_t> PackBigInts(std::span<const BigInt> v) {
  BinaryWriter w;
  w.WriteVarU64(v.size());
  for (const auto& x : v) WriteBigInt(&w, x);
  return w.TakeBuffer();
}

Status UnpackBigInts(BinaryReader* r, std::vector<BigInt>* out) {
  uint64_t count;
  // A serialized BigInt is a sign byte plus at least a one-byte magnitude.
  PSI_RETURN_NOT_OK(r->ReadCount(&count, /*min_bytes_per_element=*/2));
  out->resize(count);
  for (auto& x : *out) PSI_RETURN_NOT_OK(ReadBigInt(r, &x));
  return Status::OK();
}

Status UnpackBigInts(const std::vector<uint8_t>& buf, std::vector<BigInt>* out) {
  BinaryReader r(buf);
  PSI_RETURN_NOT_OK(UnpackBigInts(&r, out));
  if (!r.AtEnd()) return Status::SerializationError("trailing bytes");
  return Status::OK();
}

std::vector<uint8_t> PackU64s(const std::vector<uint64_t>& v) {
  BinaryWriter w;
  w.WriteVarU64(v.size());
  for (uint64_t x : v) w.WriteU64(x);
  return w.TakeBuffer();
}

Status UnpackU64s(const std::vector<uint8_t>& buf, std::vector<uint64_t>* out) {
  BinaryReader r(buf);
  uint64_t count;
  PSI_RETURN_NOT_OK(r.ReadCount(&count, /*min_bytes_per_element=*/8));
  out->resize(count);
  for (auto& x : *out) PSI_RETURN_NOT_OK(r.ReadU64(&x));
  if (!r.AtEnd()) return Status::SerializationError("trailing bytes");
  return Status::OK();
}

namespace {

void WriteRngBlobs(BinaryWriter* w, const std::vector<ExecRngBlob>& blobs) {
  w->WriteVarU64(blobs.size());
  for (const auto& [label, bytes] : blobs) {
    w->WriteString(label);
    w->WriteBytes(bytes);
  }
}

[[nodiscard]] Status ReadRngBlobs(BinaryReader* r,
                                  std::vector<ExecRngBlob>* out) {
  uint64_t count;
  // A labelled snapshot is at least a 1-byte label length plus a 1-byte
  // state length.
  PSI_RETURN_NOT_OK(r->ReadCount(&count, /*min_bytes_per_element=*/2));
  out->resize(count);
  for (auto& [label, bytes] : *out) {
    PSI_RETURN_NOT_OK(r->ReadString(&label));
    PSI_RETURN_NOT_OK(r->ReadBytes(&bytes));
  }
  return Status::OK();
}

[[nodiscard]] Status CheckExecVersion(BinaryReader* r) {
  uint32_t version = 0;
  PSI_RETURN_NOT_OK(r->ReadU32(&version));
  if (version != kExecWireVersion) {
    return Status::SerializationError(
        "exec frame: unsupported version " + std::to_string(version) +
        " (want " + std::to_string(kExecWireVersion) + ")");
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> PackExecRequest(const ExecRequest& req) {
  BinaryWriter w;
  w.WriteU32(kExecWireVersion);
  w.WriteString(req.session);
  w.WriteString(req.program);
  w.WriteU32(req.stage_index);
  w.WriteU32(req.attempt);
  w.WriteU32(req.party);
  w.WriteU8(req.includes_state ? 1 : 0);
  if (req.includes_state) w.WriteBytes(req.state_blob);
  WriteRngBlobs(&w, req.rng_blobs);
  return w.TakeBuffer();
}

Status UnpackExecRequest(const std::vector<uint8_t>& buf, ExecRequest* out) {
  BinaryReader r(buf);
  PSI_RETURN_NOT_OK(CheckExecVersion(&r));
  PSI_RETURN_NOT_OK(r.ReadString(&out->session));
  PSI_RETURN_NOT_OK(r.ReadString(&out->program));
  PSI_RETURN_NOT_OK(r.ReadU32(&out->stage_index));
  PSI_RETURN_NOT_OK(r.ReadU32(&out->attempt));
  PSI_RETURN_NOT_OK(r.ReadU32(&out->party));
  uint8_t includes = 0;
  PSI_RETURN_NOT_OK(r.ReadU8(&includes));
  if (includes > 1) {
    return Status::SerializationError("exec request: bad includes_state byte");
  }
  out->includes_state = includes == 1;
  out->state_blob.clear();
  out->rng_blobs.clear();
  if (out->includes_state) PSI_RETURN_NOT_OK(r.ReadBytes(&out->state_blob));
  PSI_RETURN_NOT_OK(ReadRngBlobs(&r, &out->rng_blobs));
  if (!r.AtEnd()) return Status::SerializationError("trailing bytes");
  return Status::OK();
}

std::vector<uint8_t> PackExecResponse(const ExecResponse& resp) {
  BinaryWriter w;
  w.WriteU32(kExecWireVersion);
  w.WriteU8(static_cast<uint8_t>(resp.outcome));
  w.WriteString(resp.message);
  w.WriteU8(resp.from_cache ? 1 : 0);
  w.WriteU64(resp.crypto_ops);
  const bool has_payload = resp.outcome == ExecOutcome::kOk;
  if (has_payload) {
    w.WriteBytes(resp.state_blob);
    WriteRngBlobs(&w, resp.rng_blobs);
  }
  return w.TakeBuffer();
}

Status UnpackExecResponse(const std::vector<uint8_t>& buf,
                          ExecResponse* out) {
  BinaryReader r(buf);
  PSI_RETURN_NOT_OK(CheckExecVersion(&r));
  uint8_t outcome = 0;
  PSI_RETURN_NOT_OK(r.ReadU8(&outcome));
  if (outcome > static_cast<uint8_t>(ExecOutcome::kUnsupported)) {
    return Status::SerializationError("exec response: unknown outcome " +
                                      std::to_string(outcome));
  }
  out->outcome = static_cast<ExecOutcome>(outcome);
  PSI_RETURN_NOT_OK(r.ReadString(&out->message));
  uint8_t cached = 0;
  PSI_RETURN_NOT_OK(r.ReadU8(&cached));
  if (cached > 1) {
    return Status::SerializationError("exec response: bad from_cache byte");
  }
  out->from_cache = cached == 1;
  PSI_RETURN_NOT_OK(r.ReadU64(&out->crypto_ops));
  out->state_blob.clear();
  out->rng_blobs.clear();
  if (out->outcome == ExecOutcome::kOk) {
    PSI_RETURN_NOT_OK(r.ReadBytes(&out->state_blob));
    PSI_RETURN_NOT_OK(ReadRngBlobs(&r, &out->rng_blobs));
  }
  if (!r.AtEnd()) return Status::SerializationError("trailing bytes");
  return Status::OK();
}

}  // namespace wire
}  // namespace psi
