/**
 * @file
 * Wire primitives: the little-endian scalar and string forms every
 * field list is encoded with, and the reader's bounds checks.
 */

#include "service/wire.hh"

namespace sparseloop {

// ---------------------------------------------------------------------------
// WireWriter
// ---------------------------------------------------------------------------

void
WireWriter::str(const std::string &v)
{
    u32(static_cast<std::uint32_t>(v.size()));
    bytes(v.data(), v.size());
}

void
WireWriter::bytes(const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    buf_.insert(buf_.end(), p, p + n);
}

// ---------------------------------------------------------------------------
// WireReader
// ---------------------------------------------------------------------------

void
WireReader::truncated(std::size_t n) const
{
    throw WireError("truncated payload: need " + std::to_string(n) +
                    " bytes at offset " + std::to_string(pos_) + " of " +
                    std::to_string(size_));
}

std::string
WireReader::str()
{
    std::size_t n = count(1);
    need(n);
    std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
    pos_ += n;
    return s;
}

const std::uint8_t *
WireReader::skip(std::size_t n)
{
    need(n);
    const std::uint8_t *p = data_ + pos_;
    pos_ += n;
    return p;
}

void
WireReader::checkFits(std::uint64_t n, std::size_t min_bytes,
                      const char *what) const
{
    if (min_bytes > 0 && n > remaining() / min_bytes) {
        throw WireError(std::string("corrupt ") + what + " " +
                        std::to_string(n) + ": exceeds the " +
                        std::to_string(remaining()) + " bytes remaining");
    }
}

std::size_t
WireReader::count(std::size_t min_element_bytes)
{
    std::uint32_t n = u32();
    checkFits(n, min_element_bytes, "element count");
    return static_cast<std::size_t>(n);
}

void
WireReader::expectDone(const char *what) const
{
    if (!done()) {
        throw WireError(std::string(what) + ": " +
                        std::to_string(remaining()) +
                        " trailing bytes after decode");
    }
}

} // namespace sparseloop
