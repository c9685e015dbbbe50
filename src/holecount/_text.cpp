// Number text of holecount's CLI, loaded through ctypes by _fastdel.py and
// called from cli.py.
//
//   hc_write_rows   rows of an (m, 2) float64 array, each number as Python's
//                   repr writes it (std::to_chars' shortest digits)
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

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <system_error>

namespace {

// The longest repr of a double, "-2.2250738585072014e-308".
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

}  // namespace

extern "C" {

// The longest text of one number, which the caller sizes its buffer from.
int64_t hc_max_number_chars(void) { return kMaxNumber; }

// Rows [i0, i1) of an (m, 2) array as text: each row is its two numbers
// with `mid` between them, and `sep` goes before every row but row 0 of the
// array, so chunks of rows concatenate to the text of the whole.  Returns
// the bytes written to `out`, or -1 when a value is not finite or `cap`
// bytes cannot hold kMaxNumber characters per number.
int64_t hc_write_rows(const double *rows, int64_t i0, int64_t i1, const char *mid,
                      const char *sep, uint8_t *out, int64_t cap) {
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

// The `x,y` rows of `len` bytes of text into `rows`, at most `cap` of them.
// Lines are empty, blank (spaces and tabs), a '#' comment after blanks, or
// one row of two numbers split by ','.  Returns the number of rows, or -1
// on any other line, or on more than `cap` rows.
int64_t hc_parse_rows(const char *text, int64_t len, double *rows, int64_t cap) {
    const char *p = text, *end = text + len;
    int64_t n = 0;
    while (p < end) {
        p = skip_blanks(p, end);
        if (p < end && *p == '#')
            p = static_cast<const char *>(std::memchr(p, '\n', end - p));
        if (p == nullptr || p == end)
            break;
        if (*p == '\n') {
            ++p;
            continue;
        }
        if (n == cap)
            return -1;
        p = read_number(p, end, &rows[2 * n]);
        if (p == nullptr || p == end || *p != ',')
            return -1;
        p = read_number(p + 1, end, &rows[2 * n + 1]);
        if (p == nullptr || (p < end && *p++ != '\n'))
            return -1;
        ++n;
    }
    return n;
}

}  // extern "C"
