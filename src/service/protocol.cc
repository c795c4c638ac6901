/**
 * @file
 * Frame codec and payload validation for the sparseloopd protocol.
 */

#include "service/protocol.hh"

#include <climits>
#include <cstdio>

namespace sparseloop {

std::vector<std::uint8_t>
encodeFrame(FrameType type, const std::vector<std::uint8_t> &payload)
{
    if (payload.size() > kMaxFramePayload) {
        throw ProtocolError("frame payload of " +
                            std::to_string(payload.size()) +
                            " bytes exceeds the " +
                            std::to_string(kMaxFramePayload) + "-byte (" +
                            std::to_string(kMaxFramePayload >> 20) +
                            " MiB) bound");
    }
    WireWriter w;
    w.u32(kFrameMagic);
    w.u16(kProtocolVersion);
    w.u16(static_cast<std::uint16_t>(type));
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.bytes(payload.data(), payload.size());
    return w.take();
}

FrameHeader
decodeFrameHeader(const std::uint8_t *bytes)
{
    WireReader r(bytes, kFrameHeaderBytes);
    std::uint32_t magic = r.u32();
    if (magic != kFrameMagic) {
        throw ProtocolError("bad frame magic 0x" + [magic] {
            char buf[16];
            std::snprintf(buf, sizeof(buf), "%08x", magic);
            return std::string(buf);
        }());
    }
    std::uint16_t version = r.u16();
    if (version != kProtocolVersion) {
        throw ProtocolError("protocol version mismatch: peer speaks v" +
                            std::to_string(version) + ", this build v" +
                            std::to_string(kProtocolVersion));
    }
    FrameHeader h;
    h.type = static_cast<FrameType>(r.u16());
    h.payload_size = r.u32();
    if (h.payload_size > kMaxFramePayload) {
        throw ProtocolError("frame payload length " +
                            std::to_string(h.payload_size) +
                            " exceeds the " +
                            std::to_string(kMaxFramePayload) +
                            "-byte bound");
    }
    return h;
}

void
SearchRequest::check() const
{
    // The session casts these counts to int: values above INT_MAX
    // would wrap to a negative budget, so they are refused.
    auto intCount = [](std::uint32_t value, const char *field) {
        if (value > static_cast<std::uint32_t>(INT_MAX)) {
            throw WireError(std::string(field) + " " +
                            std::to_string(value) + " exceeds INT_MAX");
        }
    };
    intCount(samples, "samples");
    if (strategy >
        static_cast<std::uint8_t>(SearchStrategyKind::Hierarchical)) {
        throw WireError("unknown search strategy id " +
                        std::to_string(strategy));
    }
    intCount(batch_size, "batch_size");
    intCount(threads, "threads");
}

} // namespace sparseloop
