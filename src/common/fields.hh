/**
 * @file
 * Field lists. A record states its fields once, next to its struct, as
 * `template <typename A> auto fields(A &a, Record &r)` returning
 * `a(r.x, r.y, ...)`. The wire archives (service/wire.hh) walk that
 * list to encode and decode the record, and `fieldTie` walks it to
 * compare records, so equality is one line over the same list:
 * `return fieldTie(a) == fieldTie(b);` (exact: doubles compare with
 * `==`, the evaluation cache's bit-identity contract). Define a list
 * before the `operator==` that uses it.
 */

#ifndef SPARSELOOP_COMMON_FIELDS_HH
#define SPARSELOOP_COMMON_FIELDS_HH

#include <tuple>

namespace sparseloop {

/** A tuple of const references to @p record's fields, in list order. */
template <typename T>
auto
fieldTie(const T &record)
{
    auto tie = [](const auto &...field) { return std::tie(field...); };
    // The tying archive never writes through the reference.
    return fields(tie, const_cast<T &>(record));
}

} // namespace sparseloop

#endif // SPARSELOOP_COMMON_FIELDS_HH
