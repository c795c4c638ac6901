/**
 * @file
 * Wire serialization for the evaluation service (service/protocol.hh)
 * and the cache snapshot format (service/persistence.hh).
 *
 * The encoding is a flat little-endian byte stream: fixed-width
 * integers are written byte-by-byte (so the format is identical on
 * big-endian hosts), doubles are written by IEEE-754 bit pattern
 * (decode returns the exact same bits — the service's bit-identity
 * contract rides on this), strings and vectors are length-prefixed
 * with a u32 count. There is no alignment, no padding, and no
 * self-description; both ends agree on the schema via the protocol /
 * snapshot version numbers.
 *
 * Each serialized record states its field order exactly once, in a
 * `fields(archive, record)` function (common/fields.hh): next to each
 * domain struct, where it also drives the struct's `operator==`; next
 * to each payload in protocol.hh; next to each snapshot record in
 * persistence.cc. Only `Mapping`'s codec, below, is written as a pair.
 * `WireWriter` and `WireReader` are the two archives that walk those
 * lists — `w(a, b)` appends fields, `r(a, b)` reads them back in
 * place — so encode and decode cannot drift apart. Wire forms by
 * field type:
 *
 *     bool, uint8_t            1 byte
 *     int, uint32_t            u32
 *     int64_t, uint64_t        8 bytes
 *     double                   IEEE-754 bits
 *     string, vector, SmallVector   u32 count, then the elements
 *     FlatMatrix               u32 rows, u32 cols, row-major cells
 *     array                    its elements (the length is fixed)
 *     shared_ptr<const T>      the T it points to
 *     any other record         its field list
 *
 * `WireReader` is bounds-checked everywhere: any read past the end of
 * the buffer — a truncated frame, a corrupt length field — throws
 * `WireError` instead of reading garbage. Before any allocation, a
 * count must leave room for that many elements of the least size a
 * field list allows (the encoded size of a default-constructed
 * element), so a hostile 4-billion-element length prefix is rejected
 * up front rather than driving a giant allocation.
 *
 * Changing a field list changes the bytes on the wire and on disk:
 * bump `kProtocolVersion` / `kSnapshotVersion` with it, so stale peers
 * and snapshot files are rejected instead of misdecoded (the pinned
 * encodings in test_service_protocol fail until you do).
 */

#ifndef SPARSELOOP_SERVICE_WIRE_HH
#define SPARSELOOP_SERVICE_WIRE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/flat_matrix.hh"
#include "common/small_vector.hh"
#include "mapper/objective.hh"
#include "model/eval_cache.hh"

namespace sparseloop {

/** A malformed, truncated, or out-of-bounds wire payload. */
class WireError : public std::runtime_error
{
  public:
    explicit WireError(const std::string &msg) : std::runtime_error(msg)
    {}
};

/** Append-only little-endian byte-stream builder. */
class WireWriter
{
    static_assert(sizeof(double) == sizeof(std::uint64_t),
                  "IEEE-754 binary64 expected");

  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) { little(v); }
    void u32(std::uint32_t v) { little(v); }
    void u64(std::uint64_t v) { little(v); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    /** IEEE-754 bit pattern; exact round trip. */
    void f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
    void boolean(bool v) { u8(v ? 1 : 0); }
    /** u32 byte count + raw bytes. */
    void str(const std::string &v);
    void bytes(const void *data, std::size_t n);

    /** Append each field in order, in its wire form (file comment). */
    template <typename... Fields>
    void operator()(const Fields &...fields)
    {
        (put(fields), ...);
    }

    const std::vector<std::uint8_t> &buffer() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<std::uint8_t> buf_;

    template <typename U>
    void little(U v)
    {
        for (std::size_t i = 0; i < sizeof(U); ++i) {
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        }
    }

    void put(bool v) { boolean(v); }
    void put(std::uint8_t v) { u8(v); }
    void put(int v) { u32(static_cast<std::uint32_t>(v)); }
    void put(std::uint32_t v) { u32(v); }
    void put(std::int64_t v) { i64(v); }
    void put(std::uint64_t v) { u64(v); }
    void put(double v) { f64(v); }
    void put(const std::string &v) { str(v); }
    template <typename T, std::size_t N>
    void put(const std::array<T, N> &v) { putEach(v); }
    template <typename T>
    void put(const std::vector<T> &v) { putCounted(v); }
    template <typename T, std::size_t N>
    void put(const SmallVector<T, N> &v) { putCounted(v); }
    template <typename T>
    void put(const FlatMatrix<T> &m)
    {
        u32(static_cast<std::uint32_t>(m.rows()));
        u32(static_cast<std::uint32_t>(m.cols()));
        putEach(m.flat());
    }
    template <typename T>
    void put(const std::shared_ptr<const T> &p) { put(*p); }
    /** A record: its field list never writes through the reference. */
    template <typename T>
    void put(const T &record) { fields(*this, const_cast<T &>(record)); }

    template <typename Seq>
    void putCounted(const Seq &v)
    {
        u32(static_cast<std::uint32_t>(v.size()));
        putEach(v);
    }
    template <typename Seq>
    void putEach(const Seq &v)
    {
        for (const auto &x : v) {
            put(x);
        }
    }
};

/** The encoded size of a default-constructed T: the least bytes one
 *  element of a T sequence can occupy on the wire. */
template <typename T>
std::size_t
minEncodedSize()
{
    static const std::size_t bytes = [] {
        WireWriter w;
        w(T());
        return w.size();
    }();
    return bytes;
}

/**
 * Bounds-checked reader over a borrowed byte span (which must outlive
 * the reader). Every accessor throws `WireError` rather than reading
 * past the end.
 */
class WireReader
{
  public:
    WireReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}
    explicit WireReader(const std::vector<std::uint8_t> &buf)
        : WireReader(buf.data(), buf.size())
    {}

    std::uint8_t u8() { return static_cast<std::uint8_t>(little(1)); }
    std::uint16_t u16() { return static_cast<std::uint16_t>(little(2)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(little(4)); }
    std::uint64_t u64() { return little(8); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }
    bool boolean() { return u8() != 0; }
    std::string str();

    /**
     * A u32 element count, validated against the bytes remaining:
     * decoding @p min_element_bytes per element must fit in the rest
     * of the buffer. Rejects corrupt giant counts before any
     * allocation happens.
     */
    std::size_t count(std::size_t min_element_bytes);

    /** Consume @p n bytes and return a borrowed pointer to them
     *  (valid while the underlying buffer lives). */
    const std::uint8_t *skip(std::size_t n);

    /** Read each field in order, in place (file comment). */
    template <typename... Fields>
    void operator()(Fields &...fields)
    {
        (get(fields), ...);
    }

    std::size_t remaining() const { return size_ - pos_; }
    /** True when every byte has been consumed. */
    bool done() const { return pos_ == size_; }
    /** Throw WireError unless the payload was consumed exactly. */
    void expectDone(const char *what) const;

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;

    void need(std::size_t n) const
    {
        if (size_ - pos_ < n) {
            truncated(n);
        }
    }
    [[noreturn]] void truncated(std::size_t n) const;
    /** Consume @p n bytes as a little-endian integer. */
    std::uint64_t little(std::size_t n)
    {
        need(n);
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < n; ++i) {
            v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        }
        pos_ += n;
        return v;
    }
    /** Throw unless @p n elements of @p min_bytes each can fit. */
    void checkFits(std::uint64_t n, std::size_t min_bytes,
                   const char *what) const;

    void get(bool &v) { v = boolean(); }
    void get(std::uint8_t &v) { v = u8(); }
    void get(int &v) { v = static_cast<int>(u32()); }
    void get(std::uint32_t &v) { v = u32(); }
    void get(std::int64_t &v) { v = i64(); }
    void get(std::uint64_t &v) { v = u64(); }
    void get(double &v) { v = f64(); }
    void get(std::string &v) { v = str(); }
    void get(std::vector<bool> &v)
    {
        v.resize(count(minEncodedSize<bool>()));
        for (auto &&bit : v) {
            bit = boolean();
        }
    }
    template <typename T, std::size_t N>
    void get(std::array<T, N> &v) { getEach(v); }
    template <typename T>
    void get(std::vector<T> &v) { getCounted(v); }
    template <typename T, std::size_t N>
    void get(SmallVector<T, N> &v) { getCounted(v); }
    template <typename T>
    void get(FlatMatrix<T> &m)
    {
        std::size_t rows = u32();
        std::size_t cols = u32();
        checkFits(static_cast<std::uint64_t>(rows) * cols,
                  minEncodedSize<T>(), "grid cell count");
        m.assign(rows, cols);
        getEach(m.flat());
    }
    template <typename T>
    void get(std::shared_ptr<const T> &p)
    {
        auto value = std::make_shared<T>();
        get(*value);
        p = std::move(value);
    }
    template <typename T>
    void get(T &record) { fields(*this, record); }

    template <typename Seq>
    void getCounted(Seq &v)
    {
        v.resize(count(minEncodedSize<typename Seq::value_type>()));
        getEach(v);
    }
    template <typename Seq>
    void getEach(Seq &v)
    {
        for (auto &x : v) {
            get(x);
        }
    }
};

/** @name Mapping's codec (rebuilt through its constructor).
 *  @{ */
inline void
fields(WireWriter &w, Mapping &mapping)
{
    w(mapping.levels());
}

inline void
fields(WireReader &r, Mapping &mapping)
{
    std::vector<LevelNest> levels;
    r(levels);
    mapping = Mapping(std::move(levels));
}
/** @} */

/** Append one record. */
template <typename T>
void
encode(WireWriter &w, const T &value)
{
    w(value);
}

/** Read one record; round-trips to a value equal to the encoded one
 *  under the type's exact (bitwise-double) `operator==`. */
template <typename T>
T
decode(WireReader &r)
{
    T value;
    r(value);
    return value;
}

} // namespace sparseloop

#endif // SPARSELOOP_SERVICE_WIRE_HH
