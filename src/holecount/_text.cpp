// Number text of holecount's CLI, loaded through ctypes.PyDLL by _fastdel.py
// and called from cli.py.
//
//   hc_write_rows   rows of an (m, 2) float64 array, each number as Python's
//                   repr writes it (std::to_chars' shortest digits)
//   hc_write_entries
//                   '"k": v' entries of int64 keys and float64 values, as
//                   json writes a dict of str(k) to float
//   hc_parse_rows   'x,y' CSV rows, each number correctly rounded as
//                   Python's float() rounds it (std::from_chars)
//   hc_max_number_chars
//                   the bound per number that write buffers are sized from
//
// Both work in buffers the caller allocates and allocate nothing.  Each
// returns -1 to decline, and the caller then takes its Python path: the
// writer declines a non-finite value or a buffer below the stated bound,
// and the parser declines any text outside the common grammar below, so
// the Python parser reads it or words the error.
//
// Arrays, the parser's text included, come in as Python objects and are
// borrowed through the buffer protocol (see borrow), as in _kernels.c; a
// failed check sets a Python exception, which ctypes raises.

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <system_error>

namespace {

// The longest repr of a double, "-2.2250738585072014e-308"; the longest
// int64, "-9223372036854775808", is shorter.
constexpr int64_t kMaxNumber = 24;

char *put_text(char *out, const char *s, size_t len) {
    std::memcpy(out, s, len);
    return out + len;
}

// repr(v) of a finite double: the shortest digits that read back as v,
// from std::to_chars, in exponent form when the decimal point falls at
// position <= -4 or > 16 (as "1e-05", "1.5e+16"), otherwise in fixed form
// with ".0" on integral values.
char *put_number(char *out, double v) {
    char sci[32];
    const char *end = std::to_chars(sci, sci + sizeof sci, v,
                                    std::chars_format::scientific).ptr;
    const char *s = sci;
    if (*s == '-')
        *out++ = *s++;
    const char *e = static_cast<const char *>(std::memchr(s, 'e', end - s));
    // "d.ddd": the digits are s[0] and s[2] .. e[-1]
    char digits[20];
    int n = 1;
    digits[0] = s[0];
    for (const char *d = s + 2; d < e; ++d)
        digits[n++] = *d;
    int exp = 0;
    for (const char *d = e + 2; d < end; ++d)
        exp = 10 * exp + (*d - '0');
    int point = (e[1] == '-' ? -exp : exp) + 1;  // v = 0.digits * 10^point
    if (point <= -4 || point > 16)
        return put_text(out, s, end - s);  // to_chars writes repr's exponent form
    if (point <= 0) {
        out = put_text(out, "0.000", 2 - point);
        return put_text(out, digits, n);
    }
    if (point >= n) {
        out = put_text(out, digits, n);
        std::memset(out, '0', point - n);
        return put_text(out + (point - n), ".0", 2);
    }
    out = put_text(out, digits, point);
    *out++ = '.';
    return put_text(out, digits + point, n - point);
}

const char *skip_blanks(const char *p, const char *end) {
    while (p < end && (*p == ' ' || *p == '\t'))
        ++p;
    return p;
}

// The end of the '#' comment at p: its '\n', or `end`.  nullptr declines a
// comment with a non-ASCII byte, which only the decoder can judge, or with
// a '\r' that is not part of a "\r\n": Python ends a line there.
const char *skip_comment(const char *p, const char *end) {
    for (; p < end && *p != '\n'; ++p)
        if (static_cast<unsigned char>(*p) >= 0x80
            || (*p == '\r' && (end - p < 2 || p[1] != '\n')))
            return nullptr;
    return p;
}

// Past the line end at p, "\n" or "\r\n", or p itself at the end of the
// text; nullptr when p is at neither.
const char *next_line(const char *p, const char *end) {
    if (p == end)
        return p;
    if (*p == '\r' && end - p >= 2 && p[1] == '\n')
        return p + 2;
    return *p == '\n' ? p + 1 : nullptr;
}

// One field: blanks, at most one sign followed by a digit or '.', a decimal
// number in float() syntax without underscores, blanks.  Returns the first
// character after it, or nullptr to decline (from_chars' underflow and
// overflow included).
const char *read_number(const char *p, const char *end, double *value) {
    p = skip_blanks(p, end);
    bool negative = false;
    if (p < end && (*p == '+' || *p == '-'))
        negative = *p++ == '-';
    if (p == end || !((*p >= '0' && *p <= '9') || *p == '.'))
        return nullptr;
    double v;
    std::from_chars_result r = std::from_chars(p, end, v);
    if (r.ec != std::errc() || !std::isfinite(v))
        return nullptr;
    *value = negative ? -v : v;
    return skip_blanks(r.ptr, end);
}

enum { READ, WRITE };

constexpr int kMaxArrays = 3;  // the most arrays one function borrows

struct Borrowed {
    Py_buffer views[kMaxArrays];
    int n = 0;           // views held
    bool failed = false; // a Python exception is set

    ~Borrowed() {
        while (n > 0)
            PyBuffer_Release(&views[--n]);
    }
};

// A borrowed buffer's memory, which converts to the pointer type it is
// assigned to.
struct Memory {
    void *buf;
    template <typename T>
    operator T *() const { return static_cast<T *>(buf); }
};

// The kind of a struct-module format of one item: 'f' floating point, 'i'
// signed and 'u' unsigned integer, 0 anything else; as in _kernels.c.
char format_kind(const char *format) {
    if (format == nullptr)
        return 'u';  // plain bytes
    if (*format == '@' || *format == '=' || *format == (PY_LITTLE_ENDIAN ? '<' : '>'))
        ++format;
    if (format[0] == '\0' || format[1] != '\0')
        return 0;
    if (std::strchr("efd", format[0]))
        return 'f';
    if (std::strchr("bhilqn", format[0]))
        return 'i';
    return std::strchr("BHILQN", format[0]) ? 'u' : 0;
}

// The memory of obj's buffer, which must be C-contiguous, hold items of
// `kind` and `size` bytes, at least `count` of them, and be writable for
// WRITE.  Otherwise nullptr with a Python exception set; after one failure
// every later call returns nullptr, so a function borrows all its arrays
// and tests b->failed once.  The views are released when b goes out of
// scope.
Memory borrow(Borrowed *b, PyObject *obj, char kind, size_t size, int64_t count,
              int mode) {
    if (b->failed)
        return {nullptr};
    b->failed = true;
    if (b->n == kMaxArrays) {
        PyErr_SetString(PyExc_SystemError, "too many arrays to borrow");
        return {nullptr};
    }
    Py_buffer *view = &b->views[b->n];
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (mode == WRITE ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return {nullptr};
    b->n++;
    if (format_kind(view->format) != kind || view->itemsize != (Py_ssize_t)size
        || !PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(PyExc_TypeError,
                     "array %d: expected a C-contiguous array of %zu-byte '%c' "
                     "items, got format '%s' with %zd-byte items",
                     b->n, size, kind, view->format ? view->format : "B",
                     view->itemsize);
        return {nullptr};
    }
    if (count < 0 || view->len / view->itemsize < count) {
        PyErr_Format(PyExc_ValueError, "array %d: holds %zd items, the call needs %lld",
                     b->n, view->len / view->itemsize, static_cast<long long>(count));
        return {nullptr};
    }
    b->failed = false;
    return {view->buf};
}

// The number of items of the array borrowed last; 0 after a failure.
int64_t last_length(const Borrowed *b) {
    return b->failed ? 0 : b->views[b->n - 1].len / b->views[b->n - 1].itemsize;
}

// Raise ValueError unless 0 <= i0 <= i1: the writers' range of items.
bool bad_range(Borrowed *b, int64_t i0, int64_t i1) {
    if (!b->failed && (i0 < 0 || i1 < i0)) {
        PyErr_Format(PyExc_ValueError, "no items [%lld, %lld)",
                     static_cast<long long>(i0), static_cast<long long>(i1));
        b->failed = true;
    }
    return b->failed;
}

}  // namespace

extern "C" {

// The longest text of one number, which the caller sizes its buffer from.
int64_t hc_max_number_chars(void) { return kMaxNumber; }

// Rows [i0, i1) of an (m, 2) array as text: each row is its two numbers
// with `mid` between them, and `sep` goes before every row but row 0 of the
// array, so chunks of rows concatenate to the text of the whole.  Returns
// the bytes written to `out`, or -1 when a value is not finite or the
// cap = len(out) bytes cannot hold kMaxNumber characters per number.
int64_t hc_write_rows(PyObject *rows_obj, int64_t i0, int64_t i1, const char *mid,
                      const char *sep, PyObject *out_obj) {
    Borrowed b;
    const double *rows = borrow(&b, rows_obj, 'f', sizeof *rows, 2 * i1, READ);
    uint8_t *out = borrow(&b, out_obj, 'u', sizeof *out, 0, WRITE);
    const int64_t cap = last_length(&b);
    if (bad_range(&b, i0, i1))
        return -1;
    const size_t mid_len = std::strlen(mid), sep_len = std::strlen(sep);
    const int64_t row_max = 2 * kMaxNumber + mid_len + sep_len;
    if (i1 > i0 && cap / (i1 - i0) < row_max)
        return -1;
    char *p = reinterpret_cast<char *>(out);
    for (int64_t i = i0; i < i1; ++i) {
        const double x = rows[2 * i], y = rows[2 * i + 1];
        if (!std::isfinite(x) || !std::isfinite(y))
            return -1;
        if (i > 0)
            p = put_text(p, sep, sep_len);
        p = put_number(p, x);
        p = put_text(p, mid, mid_len);
        p = put_number(p, y);
    }
    return p - reinterpret_cast<char *>(out);
}

// Entries [i0, i1) of the parallel arrays `keys` and `values` as text: each
// entry is '"k": v', the key in decimal and the value as repr writes it,
// and `sep` goes before every entry but entry 0, so chunks concatenate to
// the text of the whole.  Returns the bytes written to `out`, or -1 when a
// value is not finite or the cap = len(out) bytes cannot hold
// 2 kMaxNumber + 4 characters per entry besides its separator.
int64_t hc_write_entries(PyObject *keys_obj, PyObject *values_obj, int64_t i0,
                         int64_t i1, const char *sep, PyObject *out_obj) {
    Borrowed b;
    const int64_t *keys = borrow(&b, keys_obj, 'i', sizeof *keys, i1, READ);
    const double *values = borrow(&b, values_obj, 'f', sizeof *values, i1, READ);
    uint8_t *out = borrow(&b, out_obj, 'u', sizeof *out, 0, WRITE);
    const int64_t cap = last_length(&b);
    if (bad_range(&b, i0, i1))
        return -1;
    const size_t sep_len = std::strlen(sep);
    const int64_t entry_max = 2 * kMaxNumber + 4 + sep_len;
    if (i1 > i0 && cap / (i1 - i0) < entry_max)
        return -1;
    char *p = reinterpret_cast<char *>(out);
    for (int64_t i = i0; i < i1; ++i) {
        if (!std::isfinite(values[i]))
            return -1;
        if (i > 0)
            p = put_text(p, sep, sep_len);
        *p++ = '"';
        p = std::to_chars(p, p + kMaxNumber, keys[i]).ptr;
        p = put_text(p, "\": ", 3);
        p = put_number(p, values[i]);
    }
    return p - reinterpret_cast<char *>(out);
}

// The `x,y` rows of the bytes of `text` into `rows`, at most cap =
// len(rows) / 2 of them.
// Lines end in "\n" or "\r\n" and are empty, blank (spaces and tabs), an
// ASCII '#' comment after blanks, or one row of two numbers split by ','.
// Returns the number of rows, or -1 on any other line, or on more than
// `cap` rows.
int64_t hc_parse_rows(PyObject *text_obj, PyObject *rows_obj) {
    Borrowed b;
    const char *text = borrow(&b, text_obj, 'u', sizeof *text, 0, READ);
    const int64_t len = last_length(&b);
    double *rows = borrow(&b, rows_obj, 'f', sizeof *rows, 0, WRITE);
    const int64_t cap = last_length(&b) / 2;
    if (b.failed)
        return -1;
    const char *p = text, *end = text + len;
    int64_t n = 0;
    while (p < end) {
        p = skip_blanks(p, end);
        if (p < end && *p == '#' && (p = skip_comment(p, end)) == nullptr)
            return -1;
        if (p == end)
            break;
        if (const char *next = next_line(p, end)) {
            p = next;
            continue;
        }
        if (n == cap)
            return -1;
        p = read_number(p, end, &rows[2 * n]);
        if (p == nullptr || p == end || *p != ',')
            return -1;
        p = read_number(p + 1, end, &rows[2 * n + 1]);
        if (p == nullptr || (p = next_line(p, end)) == nullptr)
            return -1;
        ++n;
    }
    return n;
}

}  // extern "C"
