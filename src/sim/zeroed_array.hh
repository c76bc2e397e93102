/**
 * @file
 * A fixed-size array whose storage starts zero-filled, for large
 * simulator tables (LLC lines, per-frame records) in which an
 * all-zero entry means "empty". Construction writes nothing: when
 * calloc() serves a request from a fresh mapping, as glibc does for
 * large ones by default, it does not write the zero pages either,
 * and the OS backs each page only when it is first touched. A
 * machine then pays for the entries a run uses, not for capacity.
 */

#ifndef LATR_SIM_ZEROED_ARRAY_HH_
#define LATR_SIM_ZEROED_ARRAY_HH_

#include <cstddef>
#include <cstdlib>
#include <type_traits>

#include "sim/logging.hh"

namespace latr
{

template <typename T>
class ZeroedArray
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "ZeroedArray elements must be plain data");

  public:
    /** @p count zero-filled elements. */
    explicit ZeroedArray(std::size_t count)
        : data_(static_cast<T *>(std::calloc(count, sizeof(T))))
    {
        if (count != 0 && !data_)
            fatal("cannot allocate %zu zeroed elements of %zu bytes",
                  count, sizeof(T));
    }

    ~ZeroedArray() { std::free(data_); }

    ZeroedArray(const ZeroedArray &) = delete;
    ZeroedArray &operator=(const ZeroedArray &) = delete;

    T &operator[](std::size_t i) const { return data_[i]; }

  private:
    T *data_;
};

} // namespace latr

#endif // LATR_SIM_ZEROED_ARRAY_HH_
